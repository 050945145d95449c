"""The sorted fragment list of section 4.2.4 — a cache's parent, guard
and protection-cap links — held in an :class:`IntervalMap`: insertion,
lookup, and the splitting removal that re-bases cut pieces."""

import pytest

from repro.extents import IntervalMap


class Payload:
    """Test payload tracking its shift history."""

    def __init__(self, tag, base=0):
        self.tag = tag
        self.base = base

    def shifted(self, delta):
        return Payload(self.tag, self.base + delta)

    def __eq__(self, other):
        return (self.tag, self.base) == (other.tag, other.base)

    def __repr__(self):
        return f"Payload({self.tag}, {self.base})"


def spans(fragments):
    return [(start, end) for start, end, _ in fragments.items()]


class TestInsert:
    def test_insert_and_find(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        found = fragments.interval_at(120)
        assert found is not None and found[2].tag == "a"

    def test_find_misses_outside(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        assert fragments.interval_at(99) is None
        assert fragments.interval_at(150) is None   # end-exclusive

    def test_sorted_order(self):
        fragments = IntervalMap()
        fragments.add(200, 210, Payload("b"))
        fragments.add(100, 110, Payload("a"))
        fragments.add(300, 310, Payload("c"))
        assert [p.tag for p in fragments.values()] == ["a", "b", "c"]

    def test_overlap_with_predecessor_rejected(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        with pytest.raises(ValueError):
            fragments.add(149, 159, Payload("b"))

    def test_overlap_with_successor_rejected(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        with pytest.raises(ValueError):
            fragments.add(60, 101, Payload("b"))

    def test_adjacent_fragments_allowed(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        fragments.add(150, 200, Payload("b"))
        assert len(fragments) == 2

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            IntervalMap().add(0, 0, Payload("a"))


class TestOverlapping:
    def test_overlapping_selection(self):
        fragments = IntervalMap()
        fragments.add(0, 10, Payload("a"))
        fragments.add(20, 30, Payload("b"))
        fragments.add(40, 50, Payload("c"))
        hits = fragments.overlapping(5, 35)
        assert [p.tag for _, _, p in hits] == ["a", "b"]

    def test_overlapping_empty(self):
        fragments = IntervalMap()
        fragments.add(0, 10, Payload("a"))
        assert fragments.overlapping(10, 15) == []


class TestRemoveRange:
    def test_exact_removal(self):
        fragments = IntervalMap()
        fragments.add(100, 150, Payload("a"))
        removed = fragments.cut(100, 150)
        assert len(fragments) == 0
        assert removed == [(100, 150, Payload("a"))]

    def test_split_middle(self):
        fragments = IntervalMap()
        fragments.add(0, 100, Payload("a"))
        removed = fragments.cut(40, 60)
        assert spans(fragments) == [(0, 40), (60, 100)]
        # The tail keeps a payload shifted by its distance from the
        # original start, so (offset -> target) mapping stays correct.
        assert fragments.get(60).base == 60
        assert fragments.get(0).base == 0
        assert removed == [(40, 60, Payload("a", 40))]

    def test_split_head(self):
        fragments = IntervalMap()
        fragments.add(0, 100, Payload("a"))
        fragments.cut(0, 30)
        assert fragments.items() == [(30, 100, Payload("a", 30))]

    def test_remove_spanning_multiple(self):
        fragments = IntervalMap()
        fragments.add(0, 10, Payload("a"))
        fragments.add(10, 20, Payload("b"))
        fragments.add(20, 30, Payload("c"))
        removed = fragments.cut(5, 25)
        assert spans(fragments) == [(0, 5), (25, 30)]
        assert removed == [(5, 10, Payload("a", 5)), (10, 20, Payload("b")),
                           (20, 25, Payload("c"))]

    def test_remove_untouched(self):
        fragments = IntervalMap()
        fragments.add(0, 10, Payload("a"))
        assert fragments.cut(50, 60) == []
        assert fragments.cut(5, 5) == []
        assert len(fragments) == 1


class TestMisc:
    def test_remove_if(self):
        fragments = IntervalMap()
        fragments.add(0, 10, Payload("a"))
        fragments.add(10, 20, Payload("b"))
        fragments.add(20, 30, Payload("a"))
        assert fragments.retain(lambda p: p.tag != "a") == 2
        assert fragments.items() == [(10, 20, Payload("b"))]
        assert fragments.retain(lambda p: True) == 0
        assert fragments.interval_at(15) == (10, 20, Payload("b"))

    def test_bool_and_clear(self):
        fragments = IntervalMap()
        assert not fragments
        fragments.add(0, 10, Payload("a"))
        assert fragments
        fragments.clear()
        assert not fragments
