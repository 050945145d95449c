"""The write-back daemon: aging, batching, eviction interplay."""

import pytest

from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
from repro.pvm import PagedVirtualMemory
from repro.cache.writeback import WritebackDaemon
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def rig():
    vm = PagedVirtualMemory(memory_size=2 * MB)
    daemon = WritebackDaemon(vm, age_threshold=2, batch_limit=4)
    cache = vm.cache_create(ZeroFillProvider())
    return vm, daemon, cache


class TestAging:
    def test_young_dirty_pages_left_alone(self, rig):
        vm, daemon, cache = rig
        cache.write(0, b"fresh")
        assert daemon.tick() == 0              # age 1 < threshold 2
        assert cache.pages[0].dirty

    def test_old_dirty_pages_cleaned(self, rig):
        vm, daemon, cache = rig
        cache.write(0, b"aging")
        daemon.tick()
        assert daemon.tick() == 1
        assert not cache.pages[0].dirty
        # The data is recoverable from the provider now.
        cache.invalidate(0, PAGE)
        assert cache.read(0, 5) == b"aging"

    def test_rewrite_does_not_reset_age_but_stays_correct(self, rig):
        vm, daemon, cache = rig
        cache.write(0, b"v1")
        daemon.tick()
        cache.write(0, b"v2")
        daemon.tick()                          # cleaned with v2
        cache.invalidate(0, PAGE)
        assert cache.read(0, 2) == b"v2"

    def test_clean_pages_not_tracked(self, rig):
        vm, daemon, cache = rig
        cache.write(0, b"x")
        daemon.tick()
        daemon.tick()
        daemon.tick()
        assert daemon.dirty_tracked == 0


class TestBatching:
    def test_batch_limit_respected(self, rig):
        vm, daemon, cache = rig
        for index in range(10):
            cache.write(index * PAGE, b"d")
        daemon.tick()
        cleaned = daemon.tick()
        assert cleaned == 4                    # batch_limit
        assert daemon.tick() == 4
        assert daemon.tick() == 2

    def test_counters(self, rig):
        vm, daemon, cache = rig
        for index in range(3):
            cache.write(index * PAGE, b"d")
        daemon.tick()
        daemon.tick()
        assert daemon.pages_cleaned == 3
        assert daemon.ticks == 2


class TestEvictionInterplay:
    def test_cleaned_pages_evict_without_pushout(self):
        """The point of the daemon: eviction of clean pages is free of
        synchronous write-back."""
        vm = PagedVirtualMemory(memory_size=8 * PAGE)
        daemon = WritebackDaemon(vm, age_threshold=1, batch_limit=64)
        cache = vm.cache_create(ZeroFillProvider())
        for index in range(8):
            cache.write(index * PAGE, bytes([index + 1]))
        daemon.tick()                          # everything cleaned
        pushes_before = vm.clock.count(CostEvent.PUSH_OUT)
        other = vm.cache_create(ZeroFillProvider())
        for index in range(4):
            other.write(index * PAGE, b"pressure")
        # The evictions triggered no further pushOuts for `cache`.
        evict_pushes = vm.clock.count(CostEvent.PUSH_OUT) - pushes_before
        assert evict_pushes == 0
        for index in range(8):
            assert cache.read(index * PAGE, 1) == bytes([index + 1])

    def test_without_daemon_evictions_pay_pushouts(self):
        vm = PagedVirtualMemory(memory_size=8 * PAGE)
        cache = vm.cache_create(ZeroFillProvider())
        for index in range(8):
            cache.write(index * PAGE, bytes([index + 1]))
        pushes_before = vm.clock.count(CostEvent.PUSH_OUT)
        other = vm.cache_create(ZeroFillProvider())
        for index in range(4):
            other.write(index * PAGE, b"pressure")
        assert vm.clock.count(CostEvent.PUSH_OUT) - pushes_before > 0
