"""A page is clean only once its bytes have landed.

Every pushOut runs its mapper write to completion on the kernel thread
before ``CacheEngine.push`` cleans the pages.  So when the mapper's
store fails, each path that writes dirty pages back — eviction, an
explicit sync, the write-back daemon — must hand the mapper's own
exception to its caller, leave every page of the failed run resident
and dirty, and land the bytes on a retry once the store is healthy.
"""

import pytest

from repro.cache.writeback import WritebackDaemon
from repro.nucleus import Nucleus
from repro.segments import MemoryMapper
from repro.units import KB, MB

PAGE = 8 * KB
PAGES = 4
BASE = 0x100000


class StoreDied(Exception):
    """The mapper's own failure type (not an IPC or VM error)."""


class FlakyMapper(MemoryMapper):
    """A memory mapper whose store can be switched off."""

    def __init__(self):
        super().__init__()
        self.failing = False

    def write_range(self, key, offset, data):
        if self.failing:
            raise StoreDied("store unavailable")
        super().write_range(key, offset, data)


@pytest.fixture
def rig():
    """A mapped file with every page dirtied with a distinct byte."""
    nucleus = Nucleus(memory_size=2 * MB)
    mapper = FlakyMapper()
    nucleus.register_mapper(mapper)
    capability = mapper.register(bytes(PAGES * PAGE))
    actor = nucleus.create_actor("writer")
    region = nucleus.rgn_map(actor, capability, PAGES * PAGE, address=BASE)
    expected = b"".join(bytes([index + 1]) * PAGE for index in range(PAGES))
    actor.write(BASE, expected)
    cache = region.cache
    assert all(cache.pages[index * PAGE].dirty for index in range(PAGES))
    mapper.failing = True
    return nucleus.vm, mapper, capability.key, cache, expected


def assert_run_resident_and_dirty(vm, cache):
    for index in range(PAGES):
        page = cache.pages.get(index * PAGE)
        assert page is not None, f"page {index} left residency"
        assert page.dirty, f"page {index} was cleaned without landing"
        assert vm.residency.pages_of(cache.cache_id).get(
            index * PAGE) is page


def test_eviction_failure_keeps_the_run_dirty(rig):
    vm, mapper, key, cache, expected = rig
    with pytest.raises(StoreDied):
        vm.cache_engine.reclaim(PAGES)
    assert_run_resident_and_dirty(vm, cache)
    assert mapper.read_range(key, 0, PAGES * PAGE) == bytes(PAGES * PAGE)
    mapper.failing = False
    assert vm.cache_engine.reclaim(PAGES) == PAGES
    assert not cache.pages
    assert mapper.read_range(key, 0, PAGES * PAGE) == expected


def test_sync_failure_keeps_the_run_dirty(rig):
    vm, mapper, key, cache, expected = rig
    with pytest.raises(StoreDied):
        vm.cache_flush(cache, 0, PAGES * PAGE, keep=True)
    assert_run_resident_and_dirty(vm, cache)
    mapper.failing = False
    vm.cache_flush(cache, 0, PAGES * PAGE, keep=True)
    assert mapper.read_range(key, 0, PAGES * PAGE) == expected
    assert not any(cache.pages[index * PAGE].dirty
                   for index in range(PAGES))


def test_daemon_failure_keeps_the_run_dirty(rig):
    vm, mapper, key, cache, expected = rig
    daemon = WritebackDaemon(vm, age_threshold=1)
    with pytest.raises(StoreDied):
        daemon.tick()
    assert_run_resident_and_dirty(vm, cache)
    assert daemon.pages_cleaned == 0
    mapper.failing = False
    assert daemon.tick() == PAGES
    assert mapper.read_range(key, 0, PAGES * PAGE) == expected
    assert not any(cache.pages[index * PAGE].dirty
                   for index in range(PAGES))
