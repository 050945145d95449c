"""Shadow-object baseline: windows, swap, and GC edge cases."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.mach import MachVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return MachVirtualMemory(memory_size=4 * MB, auto_merge=True)


def make(vm, name, fill=None, pages=4):
    cache = vm.cache_create(ZeroFillProvider(), name=name)
    if fill is not None:
        for page in range(pages):
            cache.write(page * PAGE, bytes([fill + page]) * PAGE)
    return cache


class TestWindowedShadowCopy:
    def test_offset_shifted_copy(self, vm):
        src = make(vm, "src", fill=1)
        dst = make(vm, "dst")
        src.copy(2 * PAGE, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 2) == bytes([3, 3])
        assert dst.read(PAGE, 2) == bytes([4, 4])
        src.write(2 * PAGE, b"mutated")
        assert dst.read(0, 2) == bytes([3, 3])

    def test_partial_fragment_copy_leaves_rest_alone(self, vm):
        src = make(vm, "src", fill=10)
        dst = make(vm, "dst")
        src.copy(PAGE, dst, PAGE, PAGE, policy=CopyPolicy.HISTORY)
        # Only the copied fragment sank into an original object.
        assert 0 in src.pages                  # untouched page stayed
        assert PAGE not in src.pages           # copied page sank
        assert src.read(0, 2) == bytes([10, 10])
        assert src.read(PAGE, 2) == bytes([11, 11])
        assert dst.read(PAGE, 2) == bytes([11, 11])


class TestSwapInteraction:
    def test_shadow_copy_of_evicted_source(self, vm):
        src = make(vm, "src", fill=20, pages=2)
        src.flush(0, 2 * PAGE)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 2) == bytes([20, 20])
        src.write(0, b"src change")
        assert dst.read(0, 2) == bytes([20, 20])

    def test_original_object_pages_swap_roundtrip(self, vm):
        src = make(vm, "src", fill=30, pages=2)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        original = src.ancestry(0)[0]
        # Evict the original object's pages to its swap segment.
        vm.cache_flush(original, 0, 2 * PAGE, keep=False)
        assert len(original.pages) == 0
        assert dst.read(0, 2) == bytes([30, 30])
        assert src.read(PAGE, 2) == bytes([31, 31])


class TestMergeEdges:
    def test_merge_preserves_top_modifications(self, vm):
        src = make(vm, "src", fill=40, pages=2)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"top version")
        dst.destroy()                          # triggers auto-merge
        assert vm.chain_depth(src) == 0
        assert src.read(0, 11) == b"top version"
        assert src.read(PAGE, 2) == bytes([41, 41])

    def test_merge_of_swapped_interior_pages(self, vm):
        src = make(vm, "src", fill=50, pages=2)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        original = src.ancestry(0)[0]
        vm.cache_flush(original, 0, 2 * PAGE, keep=False)
        dst.destroy()
        # Merge pulled the swapped pages back for the survivor.
        assert src.read(0, 2) == bytes([50, 50])
        assert src.read(PAGE, 2) == bytes([51, 51])

    def test_no_merge_while_two_children_live(self, vm):
        src = make(vm, "src", fill=60)
        a, b = make(vm, "a"), make(vm, "b")
        src.copy(0, a, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.copy(0, b, 0, PAGE, policy=CopyPolicy.HISTORY)
        depth_before = vm.chain_depth(src)
        a.destroy()
        # b still depends on the interiors; chains cannot fully merge
        # into src while a sibling lives.
        assert b.read(0, 2) == bytes([60, 60])
        assert src.read(0, 2) == bytes([60, 60])


class TestMachMove:
    def test_move_works_through_shadow_chains(self, vm):
        src = make(vm, "src", fill=70)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        sink = make(vm, "sink")
        dst.move(0, sink, 0, PAGE)
        assert sink.read(0, 2) == bytes([70, 70])
