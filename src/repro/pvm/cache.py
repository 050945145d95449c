"""PVM cache descriptors (the local caches of Figure 2).

A cache descriptor holds the identifier of its data segment, the set
of currently-cached real page descriptors, and the history-tree links:
a sorted *parent* fragment list (where to find pages this cache lacks,
section 4.2.4) and a sorted *guard* fragment list (which of this
cache's fragments must preserve pre-images into a history object when
written), each an :class:`~repro.extents.IntervalMap` of ``[offset,
end) -> Link``.  Guards are the mirror image of the child's parent
links: together they form the history tree of section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set

from repro.errors import StaleObject
from repro.extents import IntervalMap
from repro.gmi.interface import Cache, CopyPolicy
from repro.gmi.types import CacheStatistics, Protection
from repro.pvm.page import RealPageDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.pvm.pvm import PagedVirtualMemory


@dataclass(frozen=True)
class Link:
    """Payload of a parent or guard fragment: a (cache, offset) target.

    ``mode`` distinguishes copy-on-write parents (reads may share the
    ancestor's frame) from copy-on-reference parents (any access
    allocates a private copy, section 4.2.2).
    """

    cache: "PvmCache"
    offset: int
    mode: str = "cow"            # "cow" | "cor"

    def shifted(self, delta: int) -> "Link":
        """The same link for a fragment whose start moved by *delta*."""
        return Link(self.cache, self.offset + delta, self.mode)


class PvmCache(Cache):
    """A local cache managed by the PVM."""

    def __init__(self, pvm: "PagedVirtualMemory", cache_id: int,
                 provider, segment=None, name: Optional[str] = None,
                 is_history: bool = False):
        self.pvm = pvm
        self.cache_id = cache_id
        self.provider = provider
        self.segment = segment
        self.name = name or f"cache{cache_id}"
        #: True for caches the PVM created unilaterally (working/history
        #: objects); they are declared upward via the segmentCreate upcall.
        self.is_history = is_history
        #: offset -> RealPageDescriptor for resident pages (Figure 2's
        #: doubly-linked list, as a dict keyed by segment offset).  The
        #: dict is owned by the shared residency index: reads are local
        #: probes, mutations funnel through the cache engine.
        self.pages: dict = pvm.residency.adopt(cache_id)
        #: where to find pages this cache does not hold (section 4.2.4).
        self.parents = IntervalMap()
        #: fragments whose writes must push pre-images to a history object.
        self.guards = IntervalMap()
        #: caches holding a parent link into this one (tree children).
        self.children: Set["PvmCache"] = set()
        #: per-virtual-page stubs whose source is this cache (either via
        #: a resident page of ours or detached to (cache, offset)); kept
        #: so cache destruction can materialize them first.
        self.incoming_stubs: Set = set()
        #: per-virtual-page stubs sitting in this cache's own slots (it
        #: is their copy destination); kept so cache destruction can
        #: drop them without scanning the global map.
        self.own_stubs: Set = set()
        #: source deleted while copies remain (section 4.2.2): kept as an
        #: anonymous node until the last child goes away.
        self.dead = False
        self.destroyed = False
        #: offsets where this cache's own version is authoritative even
        #: though a parent fragment covers them (materialized COW copies,
        #: explicit writes) — the discriminator between "look up the
        #: tree" and "pull back my own swapped-out page".
        self.owned: Set[int] = set()
        #: access caps applied by cache.setProtection (coherence control),
        #: fragment-granular.
        self.prot_caps = IntervalMap()
        self.stats = CacheStatistics()

    # -- guard helpers -----------------------------------------------------------

    def _check_live(self) -> None:
        if self.destroyed:
            raise StaleObject(f"cache {self.name} was destroyed")

    @property
    def history(self) -> Optional["PvmCache"]:
        """This cache's history object, when it is a copy source.

        The shape invariant (section 4.2.1) guarantees a source has a
        *single* immediate descendant; with fragment-granular copies
        several guards may exist but they all point to the same history
        object per fragment — this property returns the unique target
        when there is exactly one, else None.
        """
        targets = {link.cache for link in self.guards.values()}
        if len(targets) == 1:
            return next(iter(targets))
        return None

    # -- Table 1 -----------------------------------------------------------------

    def copy(self, src_offset: int, dst: "PvmCache", dst_offset: int,
             size: int, *, policy: CopyPolicy = CopyPolicy.AUTO,
             on_reference: bool = False) -> None:
        self._check_live()
        dst._check_live()
        self.pvm.cache_copy(self, src_offset, dst, dst_offset, size,
                            policy=policy, on_reference=on_reference)

    def move(self, src_offset: int, dst: "PvmCache", dst_offset: int,
             size: int) -> None:
        self._check_live()
        dst._check_live()
        self.pvm.cache_move(self, src_offset, dst, dst_offset, size)

    def destroy(self) -> None:
        self._check_live()
        self.pvm.cache_destroy(self)

    # -- explicit access ------------------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        self._check_live()
        return self.pvm.cache_read(self, offset, size)

    def write(self, offset: int, data: bytes) -> None:
        self._check_live()
        self.pvm.cache_write(self, offset, data)

    # -- Table 4 ----------------------------------------------------------------------

    def fill_up(self, offset: int, data: bytes) -> None:
        self.pvm.cache_fill_up(self, offset, data)

    def fill_zero(self, offset: int, size: int) -> None:
        """Zero-fill variant of :meth:`fill_up` (anonymous memory:
        charges ``bzero``, not a data transfer)."""
        self.pvm.cache_fill_zero(self, offset, size)

    def copy_back(self, offset: int, size: int) -> bytes:
        return self.pvm.cache_copy_back(self, offset, size, surrender=False)

    def move_back(self, offset: int, size: int) -> bytes:
        return self.pvm.cache_copy_back(self, offset, size, surrender=True)

    def flush(self, offset: int, size: int) -> None:
        self._check_live()
        self.pvm.cache_flush(self, offset, size, keep=False)

    def sync(self, offset: int, size: int) -> None:
        self._check_live()
        self.pvm.cache_flush(self, offset, size, keep=True)

    def invalidate(self, offset: int, size: int) -> None:
        self._check_live()
        self.pvm.cache_invalidate(self, offset, size)

    def set_protection(self, offset: int, size: int,
                       protection: Protection) -> None:
        self._check_live()
        self.pvm.cache_set_protection(self, offset, size, protection)

    def lock_in_memory(self, offset: int, size: int) -> None:
        self._check_live()
        self.pvm.cache_lock(self, offset, size, lock=True)

    def unlock(self, offset: int, size: int) -> None:
        self._check_live()
        self.pvm.cache_lock(self, offset, size, lock=False)

    # -- introspection -------------------------------------------------------------------

    @property
    def statistics(self) -> CacheStatistics:
        """Occupancy and traffic counters (refreshes resident count)."""
        self.stats.resident_pages = len(self.pages)
        return self.stats

    def resident_extents(self) -> List[tuple]:
        """Resident data as sorted, disjoint ``(offset, length)`` byte
        runs, coalesced from the resident offsets on demand."""
        return self.pvm.residency.resident_extents(self.cache_id)

    def resident_page(self, offset: int) -> Optional[RealPageDescriptor]:
        """The resident page at *offset*, if any."""
        return self.pages.get(offset)

    def ancestry(self, offset: int) -> List["PvmCache"]:
        """The parent chain for *offset*, nearest first (debug aid)."""
        chain: List["PvmCache"] = []
        cache, off = self, offset
        while True:
            hit = cache.parents.interval_at(off)
            if hit is None:
                return chain
            start, _, link = hit
            off = link.offset + (off - start)
            cache = link.cache
            chain.append(cache)

    def __repr__(self) -> str:
        flags = "".join([
            "H" if self.is_history else "-",
            "D" if self.dead else "-",
            "X" if self.destroyed else "-",
        ])
        return (
            f"PvmCache({self.name}, {len(self.pages)} pages, "
            f"{len(self.parents)} parents, {len(self.guards)} guards, {flags})"
        )
