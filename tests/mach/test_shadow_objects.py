"""Shadow-object baseline: semantics and the 4.2.5 pathologies."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
from repro.mach import MachVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return MachVirtualMemory(memory_size=4 * MB, auto_merge=False)


@pytest.fixture
def gcvm():
    return MachVirtualMemory(memory_size=4 * MB, auto_merge=True)


def make(vm, name, fill=None, pages=3):
    cache = vm.cache_create(ZeroFillProvider(), name=name)
    if fill is not None:
        for page in range(pages):
            cache.write(page * PAGE, bytes([fill + page]) * PAGE)
    return cache


def shadow_copy(src, dst, pages=3):
    src.copy(0, dst, 0, pages * PAGE, policy=CopyPolicy.HISTORY)


class TestBasicShadowCopy:
    def test_copy_isolates_source_and_destination(self, vm):
        src = make(vm, "src", fill=1)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        src.write(0, b"src change")
        dst.write(PAGE, b"dst change")
        assert dst.read(0, 2) == bytes([1, 1])
        assert src.read(PAGE, 2) == bytes([2, 2])
        assert src.read(0, 10) == b"src change"
        assert dst.read(PAGE, 10) == b"dst change"

    def test_original_pages_stay_in_original_object(self, vm):
        """Unlike history objects: the source's pages sink into an
        immutable original; the source cache becomes an empty shadow."""
        src = make(vm, "src", fill=1)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        assert len(src.pages) == 0             # all pages sank
        original = src.ancestry(0)[0]
        assert len(original.pages) == 3
        assert original.is_history

    def test_two_shadow_creations_charged(self, vm):
        src = make(vm, "src", fill=1)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        assert vm.clock.count(CostEvent.SHADOW_CREATE) == 2

    def test_lookups_charged_as_shadow_hops(self, vm):
        src = make(vm, "src", fill=1)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        dst.read(0, 1)
        assert vm.clock.count(CostEvent.SHADOW_LOOKUP) > 0
        assert vm.clock.count(CostEvent.HISTORY_LOOKUP) == 0

    def test_source_write_copies_into_top(self, vm):
        """A source write allocates in the source's (empty) top —
        original page value survives below for the copy."""
        src = make(vm, "src", fill=5)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        src.write(0, b"fresh")
        assert 0 in src.pages                  # private page in the top
        assert dst.read(0, 2) == bytes([5, 5])

    def test_per_page_policy_also_uses_shadows(self, vm):
        """Mach has one deferral mechanism for all sizes."""
        src = make(vm, "src", fill=5)
        dst = make(vm, "dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        assert vm.clock.count(CostEvent.SHADOW_CREATE) == 2
        assert vm.clock.count(CostEvent.COW_STUB_INSERT) == 0

    def test_mapped_access_through_chain(self, vm):
        from repro.gmi.types import Protection
        src = make(vm, "src", fill=9)
        dst = make(vm, "dst")
        shadow_copy(src, dst)
        ctx = vm.context_create()
        ctx.region_create(0x40000, 3 * PAGE, protection=Protection.RW,
                          cache=dst, offset=0)
        assert vm.user_read(ctx, 0x40000, 2) == bytes([9, 9])
        vm.user_write(ctx, 0x40000, b"mapped")
        assert src.read(0, 2) == bytes([9, 9])


class TestChainGrowth:
    """Pathology 1: repeated fork with parent modification grows the
    chain; state disperses across the original and its shadows."""

    def fork_exit_loop(self, vm, src, generations):
        for generation in range(generations):
            child = make(vm, f"child{generation}")
            shadow_copy(src, child)
            src.write(0, bytes([generation + 100]) * 4)
            child.destroy()

    def test_chain_grows_without_gc(self, vm):
        src = make(vm, "src", fill=1)
        self.fork_exit_loop(vm, src, 5)
        assert vm.chain_depth(src) == 5    # one interior object per fork

    def test_data_correct_despite_chain(self, vm):
        src = make(vm, "src", fill=1)
        self.fork_exit_loop(vm, src, 5)
        assert src.read(0, 4) == bytes([104]) * 4
        assert src.read(PAGE, 1) == bytes([2])
        assert src.read(2 * PAGE, 1) == bytes([3])

    def test_gc_keeps_chain_flat(self, gcvm):
        src = make(gcvm, "src", fill=1)
        self.fork_exit_loop(gcvm, src, 5)
        assert gcvm.chain_depth(src) <= 1
        assert src.read(0, 4) == bytes([104]) * 4
        assert src.read(PAGE, 1) == bytes([2])

    def test_gc_pays_merge_cost(self, gcvm):
        src = make(gcvm, "src", fill=1)
        self.fork_exit_loop(gcvm, src, 5)
        assert gcvm.clock.count(CostEvent.SHADOW_MERGE_PAGE) > 0

    def test_explicit_merge_pass(self, vm):
        src = make(vm, "src", fill=1)
        self.fork_exit_loop(vm, src, 4)
        assert vm.chain_depth(src) == 4
        vm.merge_chains(src)
        assert vm.chain_depth(src) == 0
        assert src.read(0, 4) == bytes([103]) * 4
        assert src.read(2 * PAGE, 1) == bytes([3])

    def test_lookup_cost_scales_with_depth(self, vm):
        """The measurable symptom: deep chains make misses expensive."""
        src = make(vm, "src", fill=1)
        self.fork_exit_loop(vm, src, 8)
        before = vm.clock.count(CostEvent.SHADOW_LOOKUP)
        src.read(2 * PAGE, 1)      # never modified: lives at the bottom
        hops = vm.clock.count(CostEvent.SHADOW_LOOKUP) - before
        assert hops >= 8


class TestSiblingFork:
    def test_two_live_copies_share_original(self, vm):
        src = make(vm, "src", fill=1)
        a, b = make(vm, "a"), make(vm, "b")
        shadow_copy(src, a)
        shadow_copy(src, b)
        a.write(0, b"A")
        b.write(0, b"B")
        assert src.read(0, 1) == bytes([1])
        assert a.read(0, 1) == b"A"
        assert b.read(0, 1) == b"B"
        assert a.read(PAGE, 1) == bytes([2])
        assert b.read(PAGE, 1) == bytes([2])

    def test_child_exit_then_parent_exit(self, gcvm):
        src = make(gcvm, "src", fill=1)
        child = make(gcvm, "child")
        shadow_copy(src, child)
        child.write(0, b"c")
        child.destroy()
        src.destroy()
        # Everything reapable is gone.
        assert all(cache.destroyed or not cache.is_history
                   for cache in gcvm.caches())

    def test_parent_exit_first_keeps_data_for_child(self, gcvm):
        src = make(gcvm, "src", fill=7)
        child = make(gcvm, "child")
        shadow_copy(src, child)
        src.destroy()
        assert child.read(0, 2) == bytes([7, 7])
        assert child.read(2 * PAGE, 1) == bytes([9])
