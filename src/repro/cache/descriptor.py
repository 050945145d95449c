"""Real page descriptors (Figure 2 of the paper).

A real page descriptor holds a back pointer to its cache descriptor
and the page's offset in the segment; the shared residency index
(:mod:`repro.cache.residency`) tracks the set of descriptors resident
in RAM for every backend.  The synchronization and copy-on-write page
*stubs* that may replace a descriptor in the global map stay with the
backend (:mod:`repro.pvm.page`) — they are deferred-copy machinery,
not cache state.
"""

from __future__ import annotations

from typing import Set, Tuple


class RealPageDescriptor:
    """One resident page: a frame holding data of (cache, offset)."""

    __slots__ = (
        "cache", "offset", "frame", "dirty", "pin_count",
        "mappings", "cow_stubs", "referenced", "write_granted",
        "charged_space",
    )

    def __init__(self, cache, offset: int, frame: int,
                 write_granted: bool = True):
        self.cache = cache
        self.offset = offset
        self.frame = frame
        self.dirty = False
        #: False when the data was pulled read-only: a write requires a
        #: getWriteAccess upcall first (Table 3).
        self.write_granted = write_granted
        #: lockInMemory nesting depth; pinned pages are never evicted.
        self.pin_count = 0
        #: (space, page-aligned vaddr) pairs where this frame is mapped.
        self.mappings: Set[Tuple[int, int]] = set()
        #: CowStubs whose source is this page (threaded list of 4.3).
        self.cow_stubs: Set = set()
        #: reference bit for the clock replacement algorithm.
        self.referenced = True
        #: address space this page's residency is charged to under an
        #: active frame arbiter (None when unattributed or inert).
        self.charged_space = None

    @property
    def pinned(self) -> bool:
        """True while lockInMemory holds the page."""
        return self.pin_count > 0

    @property
    def guarded(self) -> bool:
        """True when writes to this page must first preserve the
        original in the cache's history object."""
        return self.cache.guards.get(self.offset) is not None

    def __repr__(self) -> str:
        flags = "".join([
            "D" if self.dirty else "-",
            "P" if self.pinned else "-",
            "S" if self.cow_stubs else "-",
        ])
        return (
            f"Page(cache={self.cache.name}, off={self.offset:#x}, "
            f"frame={self.frame}, {flags})"
        )
