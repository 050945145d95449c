"""Every backend resolves its paging through the one repro.cache
engine: same residency index, same counters, same eviction path."""

import pytest

from repro import (
    MachVirtualMemory, PagedVirtualMemory, RealTimeVirtualMemory,
)
from repro.cache import CacheEngine, ResidencyIndex
from repro.cache.provider import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB

BACKENDS = [PagedVirtualMemory, MachVirtualMemory, RealTimeVirtualMemory]


@pytest.mark.parametrize("backend", BACKENDS)
class TestUnifiedCachePath:
    def test_engine_and_residency_are_wired(self, backend):
        vm = backend(memory_size=32 * PAGE)
        assert isinstance(vm.cache_engine, CacheEngine)
        assert isinstance(vm.residency, ResidencyIndex)
        assert vm.residency is vm.cache_engine.residency

    def test_faults_count_through_cache_metrics(self, backend):
        from repro.obs import RingBufferSink

        vm = backend(memory_size=32 * PAGE)
        # Hit counting (like history-depth sampling) only runs while a
        # sink is attached, keeping the untraced fault path lean.
        vm.probe.set_sink(RingBufferSink(capacity=1024))
        cache = vm.cache_create(ZeroFillProvider(), name="unified")
        for index in range(4):
            cache.write(index * PAGE, bytes([index + 1]) * 8)
        cache.read(0, 8)                            # a residency hit
        counters = vm.metrics_snapshot()["counters"]
        assert counters["cache.miss"] >= 4
        assert counters["cache.pull_in"] >= 4
        assert counters["cache.miss{segment=unified}"] >= 4
        assert counters["cache.hit{segment=unified}"] >= 1
        assert len(vm.residency) == vm.resident_page_count

    def test_flush_goes_through_cache_writeback(self, backend):
        vm = backend(memory_size=32 * PAGE)
        cache = vm.cache_create(ZeroFillProvider(), name="flushed")
        cache.write(0, b"dirty bytes")
        cache.flush(0, PAGE)
        counters = vm.metrics_snapshot()["counters"]
        assert counters["cache.writeback"] >= 1
        assert counters["cache.writeback{reason=flush,segment=flushed}"] >= 1


class TestEvictionParity:
    @pytest.mark.parametrize("backend,label", [
        (PagedVirtualMemory, "pvm"),
        (MachVirtualMemory, "mach-shadow"),
    ])
    def test_pressure_eviction_is_labeled_per_backend(self, backend, label):
        vm = backend(memory_size=8 * PAGE)
        cache = vm.cache_create(ZeroFillProvider(), name="pressure")
        for index in range(16):                     # 2x physical memory
            cache.write(index * PAGE, bytes([index + 1]) * 8)
        counters = vm.metrics_snapshot()["counters"]
        assert counters["pageout.evicted"] >= 8
        key = f"pageout.evicted{{backend={label},policy=second-chance}}"
        assert counters[key] >= 8

    def test_minimal_backend_never_evicts(self):
        vm = RealTimeVirtualMemory(memory_size=32 * PAGE)
        cache = vm.cache_create(ZeroFillProvider(), name="rt")
        for index in range(4):
            cache.write(index * PAGE, b"x")
        assert vm.reclaim_frames(2) == 0
        assert "pageout.evicted" not in vm.metrics_snapshot()["counters"]
        assert len(vm.residency) == 4
