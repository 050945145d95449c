"""Property tests for the PVM's core data structures."""

from hypothesis import given, settings, strategies as st

from repro.extents import IntervalMap
from repro.units import (
    page_ceil, page_floor, page_index, page_offset, page_range,
    pages_spanned,
)

PAGE = 8 * 1024


class ShiftPayload:
    """Payload recording its absolute base, so splits are checkable."""

    def __init__(self, base):
        self.base = base

    def shifted(self, delta):
        return ShiftPayload(self.base + delta)


# A batch of candidate fragments: (offset, size) pairs.
fragment_batches = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(1, 80)),
    min_size=0, max_size=25,
)
ranges = st.tuples(st.integers(0, 1000), st.integers(1, 200))


def build(batch):
    """Insert what fits; return (IntervalMap, accepted list)."""
    fragments = IntervalMap()
    accepted = []
    for offset, size in batch:
        if any(offset < o + s and o < offset + size for o, s in accepted):
            continue
        fragments.add(offset, offset + size, ShiftPayload(offset))
        accepted.append((offset, size))
    return fragments, accepted


class TestFragmentListProperties:
    """The section 4.2.4 fragment list (an IntervalMap of links)."""

    @given(fragment_batches)
    @settings(max_examples=200, deadline=None)
    def test_sorted_and_disjoint(self, batch):
        fragments, accepted = build(batch)
        items = fragments.items()
        assert len(items) == len(accepted)
        starts = [start for start, _, _ in items]
        assert starts == sorted(starts)
        for left, right in zip(items, items[1:]):
            assert left[1] <= right[0]

    @given(fragment_batches, st.integers(0, 1100))
    @settings(max_examples=200, deadline=None)
    def test_find_matches_naive_scan(self, batch, probe):
        fragments, accepted = build(batch)
        naive = next(
            ((o, s) for o, s in accepted if o <= probe < o + s), None)
        found = fragments.interval_at(probe)
        if naive is None:
            assert found is None
        else:
            assert (found[0], found[1] - found[0]) == naive

    @given(fragment_batches, ranges)
    @settings(max_examples=200, deadline=None)
    def test_remove_range_removes_exactly_the_range(self, batch, cut):
        fragments, accepted = build(batch)
        covered_before = {
            point
            for offset, size in accepted
            for point in range(offset, offset + size)
        }
        cut_offset, cut_size = cut
        removed = fragments.cut(cut_offset, cut_offset + cut_size)
        covered_after = {
            point
            for start, end, _ in fragments.items()
            for point in range(start, end)
        }
        cut_points = set(range(cut_offset, cut_offset + cut_size))
        assert covered_after == covered_before - cut_points
        assert {point for start, end, _ in removed
                for point in range(start, end)} == \
            covered_before & cut_points

    @given(fragment_batches, ranges)
    @settings(max_examples=200, deadline=None)
    def test_split_payloads_keep_absolute_base(self, batch, cut):
        """After any removal, every piece's payload base equals its
        start — kept pieces and cut-out pieces alike — so lookups
        through split fragments still target the right parent
        offsets."""
        fragments, _ = build(batch)
        offset, size = cut
        removed = fragments.cut(offset, offset + size)
        for start, _, payload in fragments.items() + removed:
            assert payload.base == start

    @given(fragment_batches, ranges)
    @settings(max_examples=100, deadline=None)
    def test_overlapping_agrees_with_find(self, batch, probe_range):
        fragments, _ = build(batch)
        offset, size = probe_range
        hits = fragments.overlapping(offset, offset + size)
        for item in fragments.items():
            expected = offset < item[1] and item[0] < offset + size
            assert (item in hits) == expected


class TestPageArithmetic:
    @given(st.integers(0, 2**48), st.sampled_from([4096, 8192, 16384]))
    @settings(max_examples=300, deadline=None)
    def test_floor_ceil_bracket(self, offset, page):
        assert page_floor(offset, page) <= offset <= page_ceil(offset, page)
        assert page_floor(offset, page) % page == 0
        assert page_ceil(offset, page) % page == 0
        assert page_ceil(offset, page) - page_floor(offset, page) in (0, page)

    @given(st.integers(0, 2**48), st.sampled_from([4096, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_index_offset_decompose(self, offset, page):
        assert page_index(offset, page) * page + page_offset(offset, page) \
            == offset

    @given(st.integers(0, 2**20), st.integers(0, 2**16),
           st.sampled_from([4096, 8192]))
    @settings(max_examples=300, deadline=None)
    def test_page_range_covers_span(self, offset, size, page):
        starts = list(page_range(offset, size, page))
        assert len(starts) == pages_spanned(offset, size, page)
        if size > 0:
            assert starts[0] == page_floor(offset, page)
            assert starts[-1] == page_floor(offset + size - 1, page)
            for left, right in zip(starts, starts[1:]):
                assert right - left == page
        else:
            assert starts == []
