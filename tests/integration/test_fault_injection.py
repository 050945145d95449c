"""Fault injection: failing mappers must not corrupt the memory
manager's state (no orphan stubs, no leaked frames, clean retries)."""

import pytest

from repro.errors import MapperError, OutOfFrames
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider
from repro.pvm import PagedVirtualMemory
from repro.pvm.page import SyncStub
from repro.units import KB, MB

PAGE = 8 * KB


class FlakyProvider(SegmentProvider):
    """Fails the first *failures* pullIns, then serves normally."""

    def __init__(self, failures=1, pattern=b"\x5A"):
        self.failures = failures
        self.pattern = pattern
        self.attempts = 0

    def pull_in(self, cache, offset, size, access_mode):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise MapperError("mapper temporarily unavailable")
        cache.fill_up(offset, self.pattern * size)

    def push_out(self, cache, offset, size):
        cache.copy_back(offset, size)

    def segment_create(self, cache):
        return "flaky"


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=2 * MB)


class TestFlakyMapper:
    def test_failure_propagates_cleanly(self, vm):
        provider = FlakyProvider()
        cache = vm.cache_create(provider)
        with pytest.raises(MapperError):
            cache.read(0, 4)
        # No stub left behind, no page, no leaked frame.
        assert vm.global_map.lookup(cache, 0) is None
        assert len(cache.pages) == 0
        assert vm.memory.allocated_frames == 0

    def test_retry_after_failure_succeeds(self, vm):
        provider = FlakyProvider(failures=1)
        cache = vm.cache_create(provider)
        with pytest.raises(MapperError):
            cache.read(0, 4)
        assert cache.read(0, 4) == b"\x5A" * 4
        assert provider.attempts == 2

    def test_mapped_access_failure_then_retry(self, vm):
        provider = FlakyProvider(failures=1)
        cache = vm.cache_create(provider)
        ctx = vm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        with pytest.raises(MapperError):
            vm.user_read(ctx, 0x40000, 1)
        assert vm.user_read(ctx, 0x40000, 1) == b"\x5A"

    def test_failure_under_deferred_copy(self, vm):
        """A copy whose ancestor pull fails must stay consistent."""
        from repro.gmi.interface import CopyPolicy
        provider = FlakyProvider(failures=1)
        src = vm.cache_create(provider, name="src")
        dst = vm.cache_create(FlakyProvider(failures=0), name="dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        with pytest.raises(MapperError):
            dst.read(0, 4)                # walks to src, whose pull fails
        assert dst.read(0, 4) == b"\x5A" * 4


class TestMemoryExhaustionRecovery:
    def test_oom_during_fill_is_recoverable(self):
        vm = PagedVirtualMemory(memory_size=4 * PAGE)
        cache = vm.cache_create(FlakyProvider(failures=0))
        ctx = vm.context_create()
        region = ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()             # all RAM pinned
        other = vm.cache_create(FlakyProvider(failures=0))
        with pytest.raises(OutOfFrames):
            other.read(0, 1)
        assert vm.global_map.lookup(other, 0) is None
        region.unlock()
        vm.reclaim_frames(2)
        assert other.read(0, 1) == b"\x5A"

    def test_no_sync_stub_survives_any_failure(self, vm):
        provider = FlakyProvider(failures=3)
        cache = vm.cache_create(provider)
        for _ in range(3):
            with pytest.raises(MapperError):
                cache.read(0, 1)
        stubs = [entry for _, entry in vm.global_map
                 if isinstance(entry, SyncStub)]
        assert stubs == []
        assert cache.read(0, 1) == b"\x5A"
