"""Extent-granular TLB shootdown.

``invalidate_range`` must drop exactly the live entries the per-page
batch would (same shootdown counts) while costing O(min(count, live)).
"""

from repro.hardware.mmu import Mapping, Prot
from repro.hardware.tlb import TLB


def _fill(tlb, space, vpns, base_frame=100):
    for vpn in vpns:
        tlb.fill(space, vpn, Mapping(base_frame + vpn, Prot.RW))


class TestInvalidateRange:
    def test_drops_only_entries_in_range(self):
        tlb = TLB(16)
        _fill(tlb, 1, [0, 3, 5, 9])
        dropped = tlb.invalidate_range(1, 2, 5)     # vpns [2, 7)
        assert dropped == 2
        assert tlb.probe(1, 3) is None
        assert tlb.probe(1, 5) is None
        assert tlb.probe(1, 0) is not None
        assert tlb.probe(1, 9) is not None

    def test_counts_match_per_page_batch(self):
        ranged, per_page = TLB(16), TLB(16)
        for tlb in (ranged, per_page):
            _fill(tlb, 1, [0, 3, 5, 9])
            _fill(tlb, 2, [4])
        ranged.invalidate_range(1, 0, 10)
        per_page.invalidate_batch(1, range(10))
        assert ranged.stats.get("shootdown") == \
            per_page.stats.get("shootdown") == 4
        assert ranged.occupancy == per_page.occupancy == 1

    def test_million_page_range_touches_only_live_entries(self):
        tlb = TLB(16)
        _fill(tlb, 1, [10, 500, 999_000])
        dropped = tlb.invalidate_range(1, 0, 1_000_000)
        assert dropped == 3
        assert tlb.occupancy == 0

    def test_other_spaces_untouched(self):
        tlb = TLB(16)
        _fill(tlb, 1, [4])
        _fill(tlb, 2, [4])
        tlb.invalidate_range(1, 0, 10)
        assert tlb.probe(2, 4) is not None

    def test_stale_entries_do_not_count(self):
        tlb = TLB(16)
        _fill(tlb, 1, [2, 3])
        tlb.flush_space(1)               # entries become stale, lazily
        assert tlb.invalidate_range(1, 0, 10) == 0
