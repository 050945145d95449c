"""The cache engine: pluggable eviction, budgets, and the unified
drain path used by segment-cache retention drops."""

import pytest

from repro.cache import CacheEngine, ClockPolicy, FifoPolicy, LruPolicy
from repro.cache.provider import ZeroFillProvider
from repro.nucleus import Nucleus
from repro.pvm import PagedVirtualMemory
from repro.segments import MemoryMapper
from repro.units import KB, MB

PAGE = 8 * KB


def run_pin_scenario(vm):
    """Touch pages 0..2, pin page 0, evict one, unpin, evict one;
    return the offsets still resident.

    Clock and LRU disagree on the second victim: the clock sweep
    skips a pinned page *without* consuming its reference bit (it
    gets its second chance once unpinned), while the LRU refresh
    consumes it — so after the unpin, clock evicts page 2 and LRU
    evicts page 0.
    """
    cache = vm.cache_create(ZeroFillProvider(), name="pin-scenario")
    for index in range(3):
        cache.write(index * PAGE, bytes([index + 1]) * 8)
    cache.lock_in_memory(0, PAGE)
    vm.reclaim_frames(1)
    cache.unlock(0, PAGE)
    vm.reclaim_frames(1)
    return {offset + step for offset, length in cache.resident_extents()
            for step in range(0, length, PAGE)}


class TestPolicySwap:
    def test_one_line_policy_swap_changes_eviction_order(self):
        # The acceptance scenario: the only difference between the two
        # systems is the policy argument, and the eviction order flips.
        clock_vm = PagedVirtualMemory(memory_size=32 * PAGE,
                                      replacement_policy=ClockPolicy())
        lru_vm = PagedVirtualMemory(memory_size=32 * PAGE,
                                    replacement_policy=LruPolicy())
        clock_resident = run_pin_scenario(clock_vm)
        lru_resident = run_pin_scenario(lru_vm)
        assert clock_resident == {0}
        assert lru_resident == {2 * PAGE}
        assert clock_resident != lru_resident

    def test_runtime_set_policy_redirects_eviction(self):
        vm = PagedVirtualMemory(memory_size=32 * PAGE,
                                replacement_policy=ClockPolicy())
        vm.policy = LruPolicy()            # live swap, pages re-registered
        assert vm.policy.name == "lru"
        assert run_pin_scenario(vm) == {2 * PAGE}

    def test_eviction_counters_carry_the_policy_label(self):
        vm = PagedVirtualMemory(memory_size=32 * PAGE,
                                replacement_policy=FifoPolicy())
        cache = vm.cache_create(ZeroFillProvider(), name="labeled")
        for index in range(4):
            cache.write(index * PAGE, b"x")
        vm.reclaim_frames(2)
        counters = vm.metrics_snapshot()["counters"]
        assert counters["pageout.evicted"] == 2
        assert counters["pageout.evicted{backend=pvm,policy=fifo}"] == 2
        assert counters["cache.evict{policy=fifo,segment=labeled}"] == 2


class TestBudget:
    def test_budget_caps_residency(self):
        # The engine enforces a policy budget below physical pressure:
        # plenty of frames, but at most 4 resident pages.
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        vm.cache_engine.budget = 4
        cache = vm.cache_create(ZeroFillProvider(), name="budgeted")
        for index in range(12):
            cache.write(index * PAGE, bytes([index + 1]) * 8)
        assert vm.resident_page_count <= 4
        # Evicted pages still read back through the provider.
        for index in range(12):
            assert cache.read(index * PAGE, 8) == bytes([index + 1]) * 8

    def test_pinned_pages_exceed_budget_rather_than_evict(self):
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        vm.cache_engine.budget = 2
        cache = vm.cache_create(ZeroFillProvider(), name="pinned")
        cache.lock_in_memory(0, 4 * PAGE)          # 4 pinned > budget 2
        for index in range(4):
            assert cache.resident_page(index * PAGE) is not None

    def test_zero_budget_keeps_only_the_incoming_page(self):
        # budget=0 is the degenerate grant: every insert overshoots,
        # and the reclaim pass must terminate (no spin) leaving at most
        # the page it was told to exclude — the one being inserted.
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        vm.cache_engine.budget = 0
        cache = vm.cache_create(ZeroFillProvider(), name="starved")
        for index in range(6):
            cache.write(index * PAGE, bytes([index + 1]) * 8)
            assert vm.resident_page_count <= 1
        # The data still round-trips through the provider.
        for index in range(6):
            assert cache.read(index * PAGE, 8) == bytes([index + 1]) * 8

    def test_zero_budget_reclaim_returns_without_progress(self):
        # An explicit reclaim against an empty residency set must
        # report zero and return (no retry loop on no-progress).
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        vm.cache_engine.budget = 0
        assert vm.cache_engine.reclaim(8) == 0

    def test_all_pinned_reclaim_terminates_without_evicting(self):
        # Every resident page pinned: the victim walk visits each page
        # once, evicts none, and returns 0 instead of spinning.
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        cache = vm.cache_create(ZeroFillProvider(), name="wired")
        cache.lock_in_memory(0, 4 * PAGE)
        resident_before = vm.resident_page_count
        assert vm.cache_engine.reclaim(4) == 0
        assert vm.resident_page_count == resident_before
        for index in range(4):
            assert cache.resident_page(index * PAGE) is not None

    def test_all_pinned_insert_under_budget_does_not_spin(self):
        # budget=1 with 4 pinned pages: inserting a fifth page finds
        # no unpinned victim except itself (excluded) — the insert
        # completes over budget rather than looping.
        vm = PagedVirtualMemory(memory_size=64 * PAGE)
        vm.cache_engine.budget = 1
        cache = vm.cache_create(ZeroFillProvider(), name="over-wired")
        cache.lock_in_memory(0, 4 * PAGE)
        cache.write(4 * PAGE, b"fifth")
        assert vm.resident_page_count >= 4
        for index in range(4):
            assert cache.resident_page(index * PAGE) is not None


class TestDrainRetained:
    def test_drop_retained_shows_in_cache_evict_counters(self):
        nucleus = Nucleus(memory_size=4 * MB, max_cached_segments=4)
        mapper = MemoryMapper()
        nucleus.register_mapper(mapper)
        capability = mapper.register(b"\x07" * (4 * PAGE))
        sm = nucleus.segment_manager
        cache = sm.bind(capability)
        cache.write(0, b"dirty")
        cache.read(PAGE, 8)
        resident = sum(length for _, length in
                       cache.resident_extents()) // PAGE
        assert resident >= 2
        sm.release(capability)
        assert sm.retained_count == 1
        assert sm.drop_retained() == 1
        counters = nucleus.vm.metrics_snapshot()["counters"]
        assert counters["cache.evict"] >= resident
        retained_series = [name for name in counters
                           if name.startswith("cache.evict{")
                           and "reason=retained" in name]
        assert retained_series, "retained drops must be labeled"
        # The dirty page went back to the mapper on the way out.
        assert mapper.write_requests >= 1
        assert mapper.read_range(capability.key, 0, 5) == b"dirty"

    def test_drain_returns_dropped_count_and_empties_cache(self):
        vm = PagedVirtualMemory(memory_size=32 * PAGE)
        cache = vm.cache_create(ZeroFillProvider(), name="drained")
        for index in range(3):
            cache.write(index * PAGE, b"d")
        dropped = vm.cache_engine.drain(cache)
        assert dropped == 3
        assert cache.resident_extents() == []
        # Data survived the drain via pushOut.
        assert cache.read(0, 1) == b"d"


class TestEngineWiring:
    def test_vm_exposes_engine_and_shared_residency(self):
        vm = PagedVirtualMemory(memory_size=32 * PAGE)
        assert isinstance(vm.cache_engine, CacheEngine)
        assert vm.residency is vm.cache_engine.residency
        assert vm.policy is vm.cache_engine.policy

    def test_unknown_policy_budget_default_off(self):
        vm = PagedVirtualMemory(memory_size=32 * PAGE)
        assert vm.cache_engine.budget is None
