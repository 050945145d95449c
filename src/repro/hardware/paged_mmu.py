"""Run-length page-table MMU port (Sun-3 / PMMU style, extent form).

Translations live in a per-space :class:`~repro.extents.runmap.RunMap`:
one table entry per contiguous vpn->pfn run with uniform protection,
so a million-page contiguous mapping is a single entry and the
resident-count / entry-count introspections are O(1) counters instead
of per-call scans.

The classic two-level organisation survives in the *statistics*: the
directory index (``vpn >> TABLE_BITS``) still partitions the space
into second-level tables, charging ``walk_level1`` / ``walk_level2``
per walk and ``table_alloc`` / ``table_free`` per directory bucket
filled or emptied.  The table stats depend only on the *set* of mapped
pages, never on the order or grouping of the operations that produced
it — the parity suites (tests/property/test_extent_models.py,
test_vbus_parity.py) compare counters between batched and per-page
runs, so an order-dependent stat (e.g. counting run splices) would
diverge.  The per-directory occupancy counters cost O(pages /
TABLE_SIZE), not O(pages).

The port overrides the MMU's run hooks on its run map, so every run,
range and batch operation of the base class stays O(runs).

The walk depth is recorded per translation so the MMU-port ablation
(benchmarks/test_ablation_mmu_ports.py) can compare organisations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.extents import RunMap
from repro.hardware.mmu import MMU, Mapping, Prot

#: Pages per second-level table (10 bits, like a classic two-level MMU).
TABLE_BITS = 10
TABLE_SIZE = 1 << TABLE_BITS


class PagedMMU(MMU):
    """Page-table MMU storing run-length translation extents."""

    port_name = "paged"

    #: A walk of a mapped vpn always charges both levels: a mapped
    #: page implies its directory bucket is occupied.
    walk_stats_mapped = ("walk_level1", "walk_level2")

    def __init__(self, page_size: int, tlb=None):
        super().__init__(page_size, tlb=tlb)
        # space -> run-length page table (vpn -> (frame, prot)).
        self._tables: Dict[int, RunMap] = {}
        # space -> directory index -> mapped-page count: which second-
        # level tables a classic two-level port would have allocated.
        self._buckets: Dict[int, Dict[int, int]] = {}

    # -- storage hooks ---------------------------------------------------------

    def _init_space(self, space: int) -> None:
        self._tables[space] = RunMap()
        self._buckets[space] = {}

    def _drop_space(self, space: int) -> None:
        del self._tables[space]
        del self._buckets[space]

    def _occupy(self, space: int, vpn: int, count: int, delta: int) -> None:
        """Move the directory occupancy of each page in [vpn,
        vpn+count) by *delta*, charging table alloc/free on the
        empty<->occupied transitions of each bucket."""
        buckets = self._buckets[space]
        end = vpn + count
        while vpn < end:
            hi = vpn >> TABLE_BITS
            take = min(end, (hi + 1) << TABLE_BITS) - vpn
            occupancy = buckets.get(hi, 0) + delta * take
            if occupancy > 0:
                if hi not in buckets:
                    self.stats.add("table_alloc")
                buckets[hi] = occupancy
            elif buckets.pop(hi, None) is not None:
                self.stats.add("table_free")
            vpn += take

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        self.stats.add("walk_level1")
        if (vpn >> TABLE_BITS) not in self._buckets[space]:
            return None
        self.stats.add("walk_level2")
        return self.peek(space, vpn)

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Stat-free probe: straight run-map lookup, no walk charges."""
        hit = self._tables[space].get(vpn)
        if hit is None:
            return None
        frame, prot = hit
        return Mapping(frame, prot)

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        table = self._tables[space]
        fresh = vpn not in table
        table.set(vpn, mapping.frame, mapping.prot)
        if fresh:
            self._occupy(space, vpn, 1, 1)

    def _del_entry(self, space: int, vpn: int) -> bool:
        existed = self._tables[space].delete(vpn)
        if existed:
            self._occupy(space, vpn, 1, -1)
        return existed

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        for vpn, frame, prot in self._tables[space].items():
            yield vpn, Mapping(frame, prot)

    def _space_size(self, space: int) -> int:
        # O(1): the run map maintains its mapped-page total.
        return len(self._tables[space])

    # -- run hooks ----------------------------------------------------------------

    def _set_run(self, space: int, vpn: int, count: int, frame: int,
                 prot: Prot) -> None:
        """One table entry for the whole run: a million contiguous
        pages cost one run entry.  The run's pages all count as
        occupied first, so no bucket empties on the way."""
        table = self._tables[space]
        before = table.runs_in(vpn, vpn + count)
        table.set_run(vpn, count, frame, prot)
        self._occupy(space, vpn, count, 1)
        for run_vpn, run_count, _, _ in before:
            self._occupy(space, run_vpn, run_count, -1)

    def _clear_run(self, space: int, vpn: int, count: int) -> int:
        table = self._tables[space]
        before = table.runs_in(vpn, vpn + count)
        for run_vpn, run_count, _, _ in before:
            self._occupy(space, run_vpn, run_count, -1)
        return table.clear_range(vpn, vpn + count)

    def _protect_run(self, space: int, vpn: int, count: int,
                     prot: Prot) -> None:
        """Re-protect in O(runs overlapped); pages below a hole are
        re-protected when it raises, as the per-page loop leaves them."""
        table = self._tables[space]
        gap = table.first_gap(vpn, vpn + count)
        table.set_attr_range(vpn, vpn + count if gap is None else gap, prot)
        if gap is not None:
            raise self._unmapped(space, gap)

    # -- introspection -------------------------------------------------------------

    def table_count(self, space: int) -> int:
        """Second-level tables currently allocated for *space* — O(1)
        (directory buckets with at least one mapped page)."""
        return len(self._buckets[space])

    def run_count(self, space: int) -> int:
        """Translation extents (maximal runs) of *space* — O(1)."""
        self._check_space(space)
        return self._tables[space].run_count

    def space_runs(self, space: int) -> List[Tuple[int, int, int, Prot]]:
        """The space's translation extents as ``(start_vpn, count,
        base_frame, prot)`` — the introspection the O(extents)
        acceptance tests read."""
        self._check_space(space)
        return self._tables[space].runs()
