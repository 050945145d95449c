"""The two stub kinds of the global map (plus the page descriptor).

Figure 2 of the paper: a real page descriptor holds a back pointer to
its cache descriptor and the page's offset in the segment — that class
now lives with the backend-agnostic cache subsystem
(:mod:`repro.cache.descriptor`) and is re-exported here for the many
existing importers.  A page in a cache's list "may be replaced by a
synchronization page stub" (section 4.1.1); per-virtual-page deferred
copy adds copy-on-write page stubs (section 4.3).  The stubs stay with
the PVM: they are deferred-copy machinery, not cache state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache.descriptor import RealPageDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pvm.cache import PvmCache

__all__ = ["CowStub", "RealPageDescriptor", "SyncStub"]


class SyncStub:
    """Synchronization page stub: the page is in transit (pullIn or
    pushOut in progress); any access sleeps until it completes."""

    __slots__ = ("cache", "offset", "condition", "done", "waiters",
                 "access_mode", "inflight")

    def __init__(self, cache: "PvmCache", offset: int, condition,
                 access_mode=None):
        self.cache = cache
        self.offset = offset
        self.condition = condition
        self.done = False
        self.waiters = 0
        #: AccessMode of the pullIn in progress; fillUp grants write
        #: access iff the data was pulled for writing.
        self.access_mode = access_mode
        #: the in-flight extent entry this stub belongs to (stubs of
        #: one ranged pull share the entry — and its condition).
        self.inflight = None

    def resolve(self) -> None:
        """Mark the transfer complete and wake all sleepers
        (idempotent: a stub lands exactly once)."""
        if self.done:
            return
        self.done = True
        entry = self.inflight
        if entry is not None:
            entry.page_done()
        self.condition.notify_all()

    def __repr__(self) -> str:
        return f"SyncStub(cache={self.cache.name}, off={self.offset:#x})"


class CowStub:
    """Per-virtual-page copy-on-write stub (section 4.3).

    Placed in the global map at the *destination* (cache, offset); lets
    reads find the source page, and write violations allocate a private
    copy.  While the source page is resident the stub points at its
    page descriptor; if the source page is paged out, the stub is
    retargeted to (source cache, source offset).
    """

    __slots__ = ("cache", "offset", "src_page", "src_cache", "src_offset")

    def __init__(self, cache: "PvmCache", offset: int,
                 src_page: Optional[RealPageDescriptor] = None,
                 src_cache: Optional["PvmCache"] = None,
                 src_offset: int = 0):
        self.cache = cache
        self.offset = offset
        self.src_page = src_page
        self.src_cache = src_cache
        self.src_offset = src_offset
        cache.own_stubs.add(self)
        if src_page is not None:
            src_page.cow_stubs.add(self)
            src_page.cache.incoming_stubs.add(self)
        elif src_cache is not None:
            src_cache.incoming_stubs.add(self)

    @property
    def resident_source(self) -> bool:
        """True while the stub points at a resident page descriptor."""
        return self.src_page is not None

    def detach_to_segment(self) -> None:
        """Retarget from the (evicted) source page to (cache, offset).

        The source cache keeps the stub registered in its
        ``incoming_stubs`` so destruction can still materialize it.
        """
        page = self.src_page
        if page is None:
            return
        self.src_cache = page.cache
        self.src_offset = page.offset
        self.src_page = None
        page.cow_stubs.discard(self)

    def unthread(self) -> None:
        """Fully detach this stub from its source and its destination
        (resolution/drop)."""
        self.cache.own_stubs.discard(self)
        if self.src_page is not None:
            self.src_page.cow_stubs.discard(self)
            self.src_page.cache.incoming_stubs.discard(self)
            self.src_page = None
        elif self.src_cache is not None:
            self.src_cache.incoming_stubs.discard(self)
        self.src_cache = None

    def __repr__(self) -> str:
        target = (
            repr(self.src_page) if self.src_page is not None
            else f"({self.src_cache and self.src_cache.name}, {self.src_offset:#x})"
        )
        return f"CowStub(cache={self.cache.name}, off={self.offset:#x} -> {target})"
