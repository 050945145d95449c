"""A real-time memory manager behind the GMI.

Everything is resolved *eagerly*: ``region_create`` allocates, maps
and pins every page up front; deferred copies are disabled; reclaim
never runs.  After ``region_create`` returns, no access to the region
can fault and the MMU maps never change — the guarantee the paper's
``lockInMemory`` provides on demand, made the default for every
region.

The point of this class in the reproduction is the *replaceable unit*
claim: the Nucleus, IPC and Chorus/MIX layers run unchanged over it
(see tests/integration/test_gmi_genericity.py), trading memory
efficiency for determinism — exactly the real-time corner of the
paper's design space.
"""

from __future__ import annotations

from repro.errors import OutOfFrames
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.pvm.cache import PvmCache
from repro.pvm.context import PvmContext
from repro.pvm.pvm import PagedVirtualMemory
from repro.pvm.region import PvmRegion


class RealTimeVirtualMemory(PagedVirtualMemory):
    """The minimal, fault-free GMI implementation."""

    name = "minimal-rt"

    # -- eager regions ------------------------------------------------------------

    def region_create(self, context: PvmContext, address: int, size: int,
                      protection: Protection, cache: PvmCache,
                      offset: int, advice=None) -> PvmRegion:
        """Create a region fully resident, mapped and pinned (no later faults)."""
        region = super().region_create(context, address, size, protection,
                                       cache, offset, advice=advice)
        # Populate, map and pin every page now; from here on, access to
        # the region is deterministic.
        try:
            self.region_lock(region, lock=True)
        except OutOfFrames:
            # Roll back: unpin whatever was locked before the failure,
            # then drop the half-created region.
            for vaddr in region.page_addresses():
                page = self.hw.mapping_of(context.space, vaddr)
                if page is not None and page.pin_count > 0:
                    page.pin_count -= 1
            super().region_destroy(region)
            raise
        return region

    def region_destroy(self, region: PvmRegion) -> None:
        """Unpin and destroy (frames return to the free pool)."""
        if region.locked and not region.destroyed:
            self.region_lock(region, lock=False)
        super().region_destroy(region)

    # -- no deferral, no reclaim ------------------------------------------------------

    def _effective_policy(self, src: PvmCache, src_offset: int,
                          dst: PvmCache, dst_offset: int, size: int,
                          policy: CopyPolicy) -> CopyPolicy:
        # Deferred copies introduce faults; a real-time kernel copies now.
        return CopyPolicy.EAGER

    def page_cleaned(self, page) -> None:
        # A store to a mapped page must not fault here, so the manager
        # cannot see it: a page that stays mapped stays dirty, and its
        # bytes are pushed again when it leaves memory.
        if page.mappings:
            page.dirty = True

    def reclaim_frames(self, target: int) -> int:
        # Page replacement is non-deterministic latency: never.  Memory
        # exhaustion surfaces as OutOfFrames at allocation time.
        return 0
