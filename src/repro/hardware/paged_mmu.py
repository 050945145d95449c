"""Run-length page-table MMU port (Sun-3 / PMMU style, extent form).

Translations live in a per-space :class:`~repro.extents.runmap.RunMap`:
one table entry per contiguous vpn->pfn run with uniform protection,
so a million-page contiguous mapping is a single entry and the
resident-count / entry-count introspections are O(1) counters instead
of per-call scans.

The classic two-level organisation survives in the *statistics*: the
directory index (``vpn >> TABLE_BITS``) still partitions the space
into second-level tables, and ``walk_level1`` / ``walk_level2`` /
``table_alloc`` / ``table_free`` are charged exactly as the
dictionary-of-tables implementation charged them.  Those stats depend
only on the *set* of mapped pages, never on the order or grouping of
the operations that produced it — the parity suites
(tests/property/test_extent_models.py, test_vbus_parity.py) compare
counters between batched and per-page runs, so an order-dependent
stat (e.g. counting run splices) would diverge.  The per-directory occupancy
counters cost O(pages / TABLE_SIZE), not O(pages).

The walk depth is recorded per translation so the MMU-port ablation
(benchmarks/test_ablation_mmu_ports.py) can compare organisations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidOperation
from repro.extents import RunMap
from repro.hardware.mmu import MMU, Mapping, Prot

#: Pages per second-level table (10 bits, like a classic two-level MMU).
TABLE_BITS = 10
TABLE_SIZE = 1 << TABLE_BITS
TABLE_MASK = TABLE_SIZE - 1


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

    def _bucket_add(self, space: int, vpn: int, delta: int) -> None:
        """Move one directory bucket's occupancy, charging table
        alloc/free on the empty<->occupied transitions."""
        buckets = self._buckets[space]
        hi = vpn >> TABLE_BITS
        occupancy = buckets.get(hi, 0) + delta
        if occupancy > 0:
            if hi not in buckets:
                self.stats.add("table_alloc")
            buckets[hi] = occupancy
        elif buckets.pop(hi, None) is not None:
            self.stats.add("table_free")

    def _bucket_pages(self, table: RunMap, start_vpn: int,
                      end_vpn: int) -> Dict[int, int]:
        """Mapped pages per directory bucket within [start_vpn,
        end_vpn) — O(runs + buckets) via the run map."""
        counts: Dict[int, int] = {}
        for run_start, count, _, _ in table.runs_in(start_vpn, end_vpn):
            vpn = run_start
            remaining = count
            while remaining:
                hi = vpn >> TABLE_BITS
                take = min(remaining, ((hi + 1) << TABLE_BITS) - vpn)
                counts[hi] = counts.get(hi, 0) + take
                vpn += take
                remaining -= take
        return counts

    def _apply_bucket_delta(self, space: int, before: Dict[int, int],
                            after: Dict[int, int]) -> None:
        """Reconcile per-bucket occupancy after a range mutation."""
        buckets = self._buckets[space]
        for hi in before.keys() | after.keys():
            delta = after.get(hi, 0) - before.get(hi, 0)
            if not delta:
                continue
            occupancy = buckets.get(hi, 0) + delta
            if occupancy > 0:
                if hi not in buckets:
                    self.stats.add("table_alloc")
                buckets[hi] = occupancy
            elif buckets.pop(hi, None) is not None:
                self.stats.add("table_free")

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        self.stats.add("walk_level1")
        if (vpn >> TABLE_BITS) not in self._buckets[space]:
            return None
        self.stats.add("walk_level2")
        hit = self._tables[space].get(vpn)
        if hit is None:
            return None
        frame, prot = hit
        return Mapping(frame, prot)

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
            self._bucket_add(space, vpn, 1)

    def _del_entry(self, space: int, vpn: int) -> bool:
        existed = self._tables[space].delete(vpn)
        if existed:
            self._bucket_add(space, vpn, -1)
        return existed

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        for vpn, frame, prot in self._tables[space].items():
            yield vpn, Mapping(frame, prot)

    def _space_size(self, space: int) -> int:
        # O(1): the run map maintains its mapped-page total.
        return len(self._tables[space])

    # -- extent operations -------------------------------------------------------

    def map_run(self, space: int, vaddr: int, count: int, frame: int,
                prot: Prot) -> None:
        """One table entry for the whole run — the O(extents) port
        call: a million contiguous pages cost one run entry and one TLB
        range invalidation."""
        self._check_space(space)
        if prot == Prot.NONE:
            raise InvalidOperation("mapping with no access bits; use unmap")
        if count <= 0:
            return
        table = self._tables[space]
        vpn = self.vpn(vaddr)
        before = self._bucket_pages(table, vpn, vpn + count)
        table.set_run(vpn, count, frame, prot)
        after = self._bucket_pages(table, vpn, vpn + count)
        self._apply_bucket_delta(space, before, after)
        if self.tlb is not None:
            self.tlb.invalidate_range(space, vpn, count)

    def protect_range(self, space: int, vaddr: int, count: int,
                      prot: Prot) -> None:
        """Re-protect a whole range in O(runs overlapped).  Like the
        per-page form, a hole in the range is an error (translations
        below the hole are already re-protected when it raises, exactly
        as the page-by-page loop would leave them)."""
        self._check_space(space)
        if count <= 0:
            return
        table = self._tables[space]
        start_vpn = self.vpn(vaddr)
        end_vpn = start_vpn + count
        gap = table.first_gap(start_vpn, end_vpn)
        limit = end_vpn if gap is None else gap
        if limit > start_vpn:
            table.set_attr_range(start_vpn, limit, prot)
        if gap is not None:
            raise InvalidOperation(
                f"protect: no mapping at {gap << self._page_shift:#x} "
                f"in space {space}"
            )
        if self.tlb is not None:
            self.tlb.invalidate_range(space, start_vpn, count)

    def unmap_range(self, space: int, vaddr: int, size: int) -> int:
        """Range unmap in O(runs overlapped): trim/splice the run map,
        one TLB range invalidation."""
        self._check_space(space)
        if size <= 0:
            return 0
        table = self._tables[space]
        start_vpn = self.vpn(vaddr)
        end_vpn = self.vpn(vaddr + size - 1)
        before = self._bucket_pages(table, start_vpn, end_vpn + 1)
        dropped = table.clear_range(start_vpn, end_vpn + 1)
        if dropped:
            self._apply_bucket_delta(space, before, {})
            if self.tlb is not None:
                self.tlb.invalidate_range(space, start_vpn,
                                          end_vpn - start_vpn + 1)
        return dropped

    # -- batched operations ----------------------------------------------------------

    def map_batch(self, space: int, entries) -> None:
        """Bulk map: consecutive (vaddr, frame, prot) entries coalesce
        into run installs before touching the table."""
        self._check_space(space)
        table = self._tables[space]
        shift = self._page_shift
        spans: List[Tuple[int, int, int, Prot]] = []
        run_vpn = run_frame = 0
        run_prot: Optional[Prot] = None
        run_count = 0
        for vaddr, frame, prot in entries:
            if prot == Prot.NONE:
                raise InvalidOperation(
                    "mapping with no access bits; use unmap")
            vpn = vaddr >> shift
            if run_count and vpn == run_vpn + run_count \
                    and frame == run_frame + run_count and prot == run_prot:
                run_count += 1
                continue
            if run_count:
                spans.append((run_vpn, run_count, run_frame, run_prot))
            run_vpn, run_frame, run_prot, run_count = vpn, frame, prot, 1
        if run_count:
            spans.append((run_vpn, run_count, run_frame, run_prot))
        for vpn, count, frame, prot in spans:
            before = self._bucket_pages(table, vpn, vpn + count)
            table.set_run(vpn, count, frame, prot)
            after = self._bucket_pages(table, vpn, vpn + count)
            self._apply_bucket_delta(space, before, after)
        if spans and self.tlb is not None:
            for vpn, count, _, _ in spans:
                self.tlb.invalidate_range(space, vpn, count)

    def unmap_batch(self, space: int, vaddrs) -> int:
        """Bulk unmap: the addresses coalesce into range clears."""
        self._check_space(space)
        table = self._tables[space]
        vpns = sorted({vaddr >> self._page_shift for vaddr in vaddrs})
        if not vpns:
            return 0
        spans: List[Tuple[int, int]] = []
        span_start = previous = vpns[0]
        for vpn in vpns[1:]:
            if vpn != previous + 1:
                spans.append((span_start, previous - span_start + 1))
                span_start = vpn
            previous = vpn
        spans.append((span_start, previous - span_start + 1))
        dropped = 0
        for start, count in spans:
            before = self._bucket_pages(table, start, start + count)
            removed = table.clear_range(start, start + count)
            if removed:
                self._apply_bucket_delta(space, before, {})
                dropped += removed
        if dropped and self.tlb is not None:
            for start, count in spans:
                self.tlb.invalidate_range(space, start, count)
        return dropped

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
