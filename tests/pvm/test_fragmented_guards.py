"""Fragment-granular history trees: multiple guards, partial overlaps,
and the working-object union rule."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def make(pvm):
    def factory(name=None, fill=None, pages=6):
        cache = pvm.cache_create(ZeroFillProvider(), name=name)
        if fill is not None:
            for page in range(pages):
                cache.write(page * PAGE, bytes([fill + page]) * PAGE)
        return cache
    return factory


class TestDisjointFragmentCopies:
    def test_two_fragments_to_two_destinations(self, pvm, make):
        """Non-overlapping guards coexist without a working object."""
        src = make("src", fill=1)
        low = make("low")
        high = make("high")
        src.copy(0, low, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.copy(3 * PAGE, high, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert len(src.guards) == 2
        # No working object was needed: the fragments do not overlap.
        assert not any(cache.is_history for cache in pvm.caches())
        src.write(0, b"low change")
        src.write(3 * PAGE, b"high change")
        assert low.read(0, 2) == bytes([1, 1])
        assert high.read(0, 2) == bytes([4, 4])

    def test_fragment_boundaries_respected(self, pvm, make):
        src = make("src", fill=1)
        low = make("low")
        src.copy(0, low, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        # Writing OUTSIDE the copied fragment pushes nothing.
        src.write(4 * PAGE, b"unguarded")
        assert len(low.pages) == 0

    def test_same_destination_two_source_fragments(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.copy(4 * PAGE, dst, PAGE, PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 2) == bytes([1, 1])
        assert dst.read(PAGE, 2) == bytes([5, 5])
        src.write(0, b"x")
        src.write(4 * PAGE, b"y")
        assert dst.read(0, 2) == bytes([1, 1])
        assert dst.read(PAGE, 2) == bytes([5, 5])


class TestOverlappingFragmentCopies:
    def test_partial_overlap_inserts_working_object(self, pvm, make):
        src = make("src", fill=1)
        first = make("first")
        second = make("second")
        src.copy(0, first, 0, 3 * PAGE, policy=CopyPolicy.HISTORY)
        # Overlaps pages 2-4 with the existing guard over 0-2.
        src.copy(2 * PAGE, second, 0, 3 * PAGE, policy=CopyPolicy.HISTORY)
        working = src.history
        assert working is not None and working.is_history
        # The union of both fragments is guarded through w.
        src.write(0, b"a")          # only `first` cares
        src.write(2 * PAGE, b"b")   # both care
        src.write(4 * PAGE, b"c")   # only `second` cares
        assert first.read(0, 2) == bytes([1, 1])
        assert first.read(2 * PAGE, 2) == bytes([3, 3])
        assert second.read(0, 2) == bytes([3, 3])
        assert second.read(2 * PAGE, 2) == bytes([5, 5])

    def test_three_overlapping_copies_stack_working_objects(self, pvm,
                                                            make):
        src = make("src", fill=10)
        copies = []
        for index in range(3):
            copy = make(f"c{index}")
            src.copy(0, copy, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
            copies.append(copy)
        internal = [cache for cache in pvm.caches() if cache.is_history]
        assert len(internal) == 2
        src.write(0, b"final")
        for copy in copies:
            assert copy.read(0, 2) == bytes([10, 10])

    def test_copies_at_different_times_see_different_snapshots(self, pvm,
                                                               make):
        src = make("src", fill=1)
        early = make("early")
        src.copy(0, early, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"v2")
        late = make("late")
        src.copy(0, late, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"v3")
        assert early.read(0, 2) == bytes([1, 1])    # snapshot at copy 1
        assert late.read(0, 2) == b"v2"             # snapshot at copy 2
        assert src.read(0, 2) == b"v3"


class TestGuardsSurviveDestinationChanges:
    def test_destroying_one_fragment_destination_keeps_other(self, pvm,
                                                             make):
        src = make("src", fill=1)
        low = make("low")
        high = make("high")
        src.copy(0, low, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.copy(2 * PAGE, high, 0, PAGE, policy=CopyPolicy.HISTORY)
        low.destroy()
        assert len(src.guards) == 1
        src.write(2 * PAGE, b"still guarded")
        assert high.read(0, 2) == bytes([3, 3])

    def test_overwriting_copy_destination_releases_guard_duty(self, pvm,
                                                              make):
        """Copying NEW data over a history destination: the old pre-image
        obligation is satisfied first, then replaced."""
        src_a = make("a", fill=1)
        src_b = make("b", fill=100)
        dst = make("dst")
        src_a.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        src_b.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        # dst now reflects b; a's write no longer affects dst.
        src_a.write(0, b"gone")
        assert dst.read(0, 2) == bytes([100, 100])
