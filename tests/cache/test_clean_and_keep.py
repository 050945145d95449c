"""A page cleaned in place must still catch its next store.

Two paths clean a dirty page and keep it resident: the write-back
daemon and ``cache_flush(keep=True)`` (the GMI ``sync``).  Without a
hardware modified bit, a store is only seen when it faults, so a kept
page must lose write access as it is cleaned.  Otherwise the next
store lands in the frame without re-dirtying the page, eviction drops
it, and the mapper keeps the old bytes.

The fault-free minimal manager cannot take that fault; it keeps a
writably mapped page dirty instead.
"""

import pytest

from repro import (
    MachVirtualMemory, PagedVirtualMemory, RealTimeVirtualMemory,
)
from repro.cache.writeback import WritebackDaemon
from repro.mach.eager import EagerVirtualMemory
from repro.nucleus import Nucleus
from repro.segments import MemoryMapper
from repro.units import KB, MB

PAGE = 8 * KB
BASE = 0x100000

BACKENDS = [PagedVirtualMemory, MachVirtualMemory, EagerVirtualMemory,
            RealTimeVirtualMemory]


def _daemon(vm, cache):
    assert WritebackDaemon(vm, age_threshold=1).tick() == 1


def _sync(vm, cache):
    cache.sync(0, PAGE)


CLEANERS = {"daemon": _daemon, "sync": _sync}


@pytest.mark.parametrize("cleaner", list(CLEANERS))
@pytest.mark.parametrize("backend", BACKENDS, ids=lambda cls: cls.name)
def test_store_after_clean_and_keep_reaches_the_mapper(backend, cleaner):
    nucleus = Nucleus(vm_class=backend, memory_size=2 * MB)
    vm = nucleus.vm
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    capability = mapper.register(bytes(PAGE))
    actor = nucleus.create_actor("writer")
    region = nucleus.rgn_map(actor, capability, PAGE, address=BASE)
    cache = region.cache

    actor.write(BASE, b"\x01")
    CLEANERS[cleaner](vm, cache)
    assert mapper.read_range(capability.key, 0, 1) == b"\x01"
    actor.write(BASE, b"\x02")

    # Evict (a no-op for the minimal manager's pinned pages), re-read.
    vm.cache_engine.reclaim(10)
    assert actor.read(BASE, 1) == b"\x02"
    # Unmapping releases the segment; its pages leave memory.
    nucleus.rgn_free(actor, region)
    vm.cache_engine.reclaim(10)
    assert mapper.read_range(capability.key, 0, 1) == b"\x02"
