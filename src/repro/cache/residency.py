"""The shared residency index: who is in RAM, for every backend.

Before this module existed, three bookkeepers each held part of the
answer to "which pages of which segments are resident": the per-cache
``pages`` dict, the replacement policy's private queue, and the
backend's resident counter.  They could (and under races did) drift.
The :class:`ResidencyIndex` is the single writer for all three views:

* per-cache page tables — a cache *adopts* its table from the index,
  so ``cache.pages`` remains a plain dict for readers (lookups in the
  fault path stay one dict probe) while every mutation funnels through
  :meth:`insert` / :meth:`remove` / :meth:`rebind`;
* the eviction policy's queue — registration happens inside the same
  call that makes the page visible, so the policy can never know about
  a page the caches do not (or vice versa);
* the global resident count — O(1), maintained incrementally.

The index is backend-agnostic: it stores page *descriptors*
(:class:`repro.cache.descriptor.RealPageDescriptor`) and never touches
frames, MMUs or providers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cache.descriptor import RealPageDescriptor
from repro.cache.eviction import EvictionPolicy


class ResidencyIndex:
    """Segment -> resident page descriptors, plus the policy queue."""

    def __init__(self, policy: EvictionPolicy, page_size: int = 1):
        self.policy = policy
        #: page size: adjacent resident offsets ``page_size`` apart
        #: coalesce into one extent in :meth:`resident_extents`.
        self.page_size = page_size
        #: cache_id -> (offset -> RealPageDescriptor); each value dict
        #: is the very object the cache holds as ``cache.pages``.
        self._pages: Dict[int, Dict[int, RealPageDescriptor]] = {}
        self._count = 0

    # -- cache lifecycle ---------------------------------------------------------

    def adopt(self, cache_id: int) -> Dict[int, RealPageDescriptor]:
        """Return (creating if needed) the page table for *cache_id*.

        The cache stores the returned dict as its ``pages`` attribute:
        reads go straight to it, writes go through the index.
        """
        return self._pages.setdefault(cache_id, {})

    def release(self, cache_id: int) -> None:
        """Forget a destroyed cache's table (must already be empty of
        pages the policy still tracks — callers drop pages first)."""
        table = self._pages.pop(cache_id, None)
        if table:
            for page in table.values():
                self.policy.unregister(page)
                self._count -= 1
            table.clear()

    def _table_for(self, cache) -> Dict[int, RealPageDescriptor]:
        """The table pages of *cache* live in — always the very dict
        the cache holds as ``cache.pages``.

        A released cache can become a page's home again (a CoW stub
        referencing its data resolves after destruction); in that case
        its own table is re-linked rather than fabricating a second
        dict the cache would never see.
        """
        table = self._pages.get(cache.cache_id)
        if table is None:
            table = getattr(cache, "pages", None)
            if table is None:
                table = {}
            self._pages[cache.cache_id] = table
        return table

    # -- page mutation -----------------------------------------------------------

    def insert(self, page: RealPageDescriptor) -> None:
        """Make *page* resident: cache table + policy queue + count."""
        table = self._table_for(page.cache)
        if page.offset not in table:
            self._count += 1
        table[page.offset] = page
        self.policy.register(page)

    def remove(self, page: RealPageDescriptor) -> None:
        """Drop *page* from residency everywhere."""
        table = self._pages.get(page.cache.cache_id)
        if table is not None and table.pop(page.offset, None) is not None:
            self._count -= 1
        self.policy.unregister(page)

    def rebind(self, page: RealPageDescriptor, dst_cache,
               dst_offset: int) -> None:
        """Move a resident page to (dst_cache, dst_offset) *without*
        policy churn: the page keeps its queue position and reference
        bit (cache.move re-homes data; it is not an access)."""
        src_table = self._pages.get(page.cache.cache_id)
        if src_table is not None and \
                src_table.pop(page.offset, None) is not None:
            self._count -= 1
        page.cache = dst_cache
        page.offset = dst_offset
        dst_table = self._table_for(dst_cache)
        if dst_offset not in dst_table:
            self._count += 1
        dst_table[dst_offset] = page
        # the policy entry survives untouched — same descriptor object.

    # -- queries -----------------------------------------------------------------

    def dirty_pages(self) -> List[RealPageDescriptor]:
        """All resident dirty pages, in cache-creation then
        page-insertion order (the write-back daemon's scan order).

        Returned as a list so callers (the daemon holds the manager
        lock for its whole tick) may clean pages while walking it."""
        return [page
                for table in self._pages.values()
                for page in table.values()
                if page.dirty]

    def pages_of(self, cache_id: int) -> Dict[int, RealPageDescriptor]:
        """The live page table for *cache_id* (empty dict if unknown)."""
        return self._pages.get(cache_id, {})

    def resident_extents(self, cache_id: int) -> List[Tuple[int, int]]:
        """Resident data of *cache_id* as sorted, disjoint ``(offset,
        length)`` byte runs, coalesced from the resident offsets on
        demand (only snapshot-time and control callers ask)."""
        page_size = self.page_size
        runs: List[List[int]] = []
        for offset in sorted(self._pages.get(cache_id, ())):
            if runs and runs[-1][1] == offset:
                runs[-1][1] = offset + page_size
            else:
                runs.append([offset, offset + page_size])
        return [(start, end - start) for start, end in runs]

    def set_policy(self, policy: EvictionPolicy) -> None:
        """Swap the eviction policy at runtime, re-registering every
        resident page in its current scan order."""
        old = self.policy
        self.policy = policy
        for table in self._pages.values():
            for page in table.values():
                old.unregister(page)
                policy.register(page)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"ResidencyIndex({self._count} pages in "
                f"{len(self._pages)} caches, policy={self.policy.name})")
