"""Frame allocation with reclamation, and the backend eviction hooks.

The paper delegates page-out *policy* to the memory manager (section
3.3.3).  Victim selection and the writeback of dirty victims live in
the backend-agnostic cache engine (:mod:`repro.cache.engine`); what
stays here is the machine-dependent mechanics the engine calls back
into — translation shootdown, per-virtual-page stub re-targeting and
frame release — plus frame allocation, which triggers reclamation when
RAM runs out.
"""

from __future__ import annotations

from repro.errors import OutOfFrames
from repro.kernel.clock import CostEvent
from repro.pvm.page import RealPageDescriptor


class PageoutMixin:
    """Frame allocation and eviction mechanics, grafted onto the PVM."""

    def _allocate_frame(self) -> int:
        """Allocate a frame, reclaiming victims when RAM is full."""
        try:
            frame = self.memory.allocate_frame()
        except OutOfFrames:
            if self.reclaim_frames(self.reclaim_batch) == 0:
                raise
            frame = self.memory.allocate_frame()
        self.clock.charge(CostEvent.FRAME_ALLOC)
        return frame

    @property
    def resident_page_count(self) -> int:
        """Pages currently resident under the cache engine."""
        return len(self.residency)

    def reclaim_frames(self, target: int) -> int:
        """Evict up to *target* pages; return how many frames freed."""
        return self.cache_engine.reclaim(target)

    def discard_page(self, page: RealPageDescriptor) -> None:
        """Evict one (already written-back) page: the engine's hook.

        Stubs survive the eviction: they re-target to (cache, offset);
        the segment now holds the value they reference.
        """
        self._detach_stubs_to_segment(page)
        self._drop_page(page, save=False)

    def page_cleaned(self, page: RealPageDescriptor) -> None:
        """A page was pushed out and stays resident: the engine's hook.

        There is no hardware modified bit, so a store is seen only when
        it faults: take write access away from the page's translations
        and let the next store re-dirty it through a protection fault.
        """
        if page.mappings:
            self.hw.revoke_write(page)

    def _drop_page(self, page: RealPageDescriptor,
                   save: bool = False) -> None:
        """Remove a page from the cache, the global map and RAM."""
        if save and page.dirty:
            self.cache_engine.push(page.cache, page.offset,
                                   self.page_size, reason="evict")
        self.hw.shootdown(page)
        self.cache_engine.forget(page)
        self.global_map.discard(page.cache, page.offset)
        if self.memory.is_allocated(page.frame):
            self.memory.free_frame(page.frame)
            self.clock.charge(CostEvent.FRAME_FREE)
