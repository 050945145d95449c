"""Extent operations of the MMU ports (PR 6).

``map_run`` / ``protect_range`` / range unmap must match the per-page
primitives on every port; on the paged port the run-length table makes
a million-page contiguous mapping one table entry (O(extents) memory),
and the O(1) counters (``_space_size``, ``table_count``, ``run_count``)
must agree with a full scan at all times.  The directory-granular
``table_alloc`` / ``table_free`` statistics must depend only on the
mapped set, never on the grouping of the calls that built it — the
batched-versus-per-page parity suites rely on exactly that.
"""

import pytest

from repro.errors import InvalidOperation
from repro.hardware.inverted_mmu import InvertedMMU
from repro.hardware.paged_mmu import TABLE_SIZE, PagedMMU
from repro.hardware.segmented_mmu import SegmentedMMU
from repro.hardware.mmu import Prot
from repro.hardware.tlb import TLB
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture(params=[PagedMMU, InvertedMMU, SegmentedMMU],
                ids=["paged", "inverted", "segmented"])
def mmu(request):
    return request.param(page_size=PAGE)


class TestMapRunAllPorts:
    def test_map_run_matches_singles(self, mmu):
        run = mmu.create_space()
        single = mmu.create_space()
        mmu.map_run(run, 2 * PAGE, 5, 7, Prot.RW)
        for index in range(5):
            mmu.map(single, (2 + index) * PAGE, 7 + index, Prot.RW)
        for index in range(5):
            vaddr = (2 + index) * PAGE + 3
            assert mmu.translate(run, vaddr, write=True) == \
                mmu.translate(single, vaddr, write=True)
        assert mmu.lookup(run, PAGE) is None
        assert mmu.lookup(run, 7 * PAGE) is None

    def test_map_run_rejects_none_protection(self, mmu):
        space = mmu.create_space()
        with pytest.raises(InvalidOperation):
            mmu.map_run(space, 0, 3, 0, Prot.NONE)

    def test_protect_range_applies_and_raises_on_hole(self, mmu):
        space = mmu.create_space()
        mmu.map_run(space, 0, 2, 0, Prot.RW)
        mmu.map(space, 3 * PAGE, 5, Prot.RW)
        mmu.protect_range(space, 0, 2, Prot.READ)
        assert mmu.lookup(space, 0).prot == Prot.READ
        assert mmu.lookup(space, PAGE).prot == Prot.READ
        with pytest.raises(InvalidOperation):
            mmu.protect_range(space, 0, 4, Prot.RW)
        # The prefix below the hole was re-protected, like the
        # per-page loop.
        assert mmu.lookup(space, 0).prot == Prot.RW
        assert mmu.lookup(space, 3 * PAGE).prot == Prot.RW


class TestRunLengthTable:
    def test_contiguous_million_pages_is_one_run(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        pages = 1_000_000
        mmu.map_run(space, 0, pages, 0, Prot.RW)
        assert mmu.run_count(space) == 1
        assert mmu._space_size(space) == pages
        assert mmu.table_count(space) == -(-pages // TABLE_SIZE)
        assert mmu.space_runs(space) == [(0, pages, 0, Prot.RW)]
        # Spot translations at both ends without a scan.
        assert mmu.translate(space, 0, write=True) == 0
        last = (pages - 1) * PAGE
        assert mmu.translate(space, last + 5, write=False) == last + 5

    def test_unmap_range_splits_a_run(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map_run(space, 0, 10, 0, Prot.RW)
        dropped = mmu.unmap_range(space, 4 * PAGE, 2 * PAGE)
        assert dropped == 2
        assert mmu.run_count(space) == 2
        assert mmu._space_size(space) == 8
        assert mmu.lookup(space, 4 * PAGE) is None
        assert mmu.lookup(space, 6 * PAGE).frame == 6

    def test_adjacent_runs_coalesce(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map_run(space, 0, 4, 0, Prot.RW)
        mmu.map_run(space, 4 * PAGE, 4, 4, Prot.RW)
        assert mmu.run_count(space) == 1
        # Frame-discontiguous or protection-mismatched neighbours stay
        # separate runs.
        mmu.map_run(space, 8 * PAGE, 2, 99, Prot.RW)
        mmu.map_run(space, 10 * PAGE, 2, 101, Prot.READ)
        assert mmu.run_count(space) == 3

    def test_counters_agree_with_full_scan(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map_run(space, 0, 6, 0, Prot.RW)
        mmu.unmap(space, 2 * PAGE)
        mmu.map(space, 9 * PAGE, 40, Prot.READ)
        mmu.map_batch(space, [(20 * PAGE, 50, Prot.RW),
                              (21 * PAGE, 51, Prot.RW)])
        scan = list(mmu._iter_space(space))
        assert mmu._space_size(space) == len(scan)
        assert mmu.run_count(space) == len(mmu.space_runs(space))
        assert sum(count for _, count, _, _ in mmu.space_runs(space)) == \
            len(scan)


class TestTableStatistics:
    def test_table_alloc_is_grouping_insensitive(self):
        """Mapping N pages one by one or as one run charges the same
        table_alloc count: tables are directory granules, not runs."""
        per_page = PagedMMU(page_size=PAGE)
        bulk = PagedMMU(page_size=PAGE)
        a, b = per_page.create_space(), bulk.create_space()
        pages = TABLE_SIZE + 5          # spans two directory granules
        for index in range(pages):
            per_page.map(a, index * PAGE, index, Prot.RW)
        bulk.map_run(b, 0, pages, 0, Prot.RW)
        assert per_page.stats.get("table_alloc") == \
            bulk.stats.get("table_alloc") == 2

    def test_table_free_on_emptied_granule_only(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map_run(space, 0, 4, 0, Prot.RW)
        mmu.unmap(space, 0)
        assert mmu.stats.get("table_free") == 0
        mmu.unmap_range(space, PAGE, 3 * PAGE)
        assert mmu.stats.get("table_free") == 1
        assert mmu.table_count(space) == 0

    def test_run_splits_do_not_charge_table_alloc(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map_run(space, 0, 8, 0, Prot.RW)
        allocs = mmu.stats.get("table_alloc")
        mmu.unmap(space, 3 * PAGE)      # splits the run in two
        assert mmu.run_count(space) == 2
        assert mmu.stats.get("table_alloc") == allocs


class TestExtentTLBIntegration:
    def test_map_run_invalidates_stale_entries(self):
        mmu = PagedMMU(page_size=PAGE, tlb=TLB(8))
        space = mmu.create_space()
        mmu.map(space, 0, 5, Prot.RW)
        mmu.translate(space, 0, write=False)        # cache vpn 0
        mmu.map_run(space, 0, 3, 10, Prot.RW)       # remap over it
        assert mmu.translate(space, 0, write=False) == 10 * PAGE
