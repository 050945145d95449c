"""Destroying the caches of a deferred copy frees every page.

Regression for a PVM leak: a per-page copy destination whose stubs
outlived it.  Destroying the destination left its copy-on-write stubs
in the global map, so destroying (or reaping) the source later
materialized them into the dead cache — a dirty frame nobody could
ever free.  Every manager must end these sequences with an empty
global map and no allocated frame.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.mach import EagerVirtualMemory, MachVirtualMemory
from repro.minimal import RealTimeVirtualMemory
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB

ALL_VMS = [PagedVirtualMemory, MachVirtualMemory, EagerVirtualMemory,
           RealTimeVirtualMemory]


@pytest.fixture(params=ALL_VMS,
                ids=["pvm", "mach-shadow", "eager", "minimal-rt"])
def vm(request):
    return request.param(memory_size=24 * PAGE, page_size=PAGE)


def _caches(vm, count):
    return [vm.cache_create(ZeroFillProvider(), name=f"c{index}")
            for index in range(count)]


def _assert_nothing_left(vm):
    assert list(vm.global_map) == []
    assert vm.memory.allocated_frames == 0


def test_destroying_a_copy_target_after_its_dead_source(vm):
    _, c1, c2 = _caches(vm, 3)
    c2.copy(0, c1, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
    c2.copy(0, c1, 0, PAGE, policy=CopyPolicy.HISTORY, on_reference=True)
    c2.destroy()
    c1.destroy()
    _assert_nothing_left(vm)


def test_destroying_a_copy_target_before_its_source(vm):
    c1, c2 = _caches(vm, 2)
    c2.write(0, b"resident source page")
    c2.copy(0, c1, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
    c1.destroy()
    c2.write(0, b"a write no longer owes c1 a copy")
    c2.destroy()
    _assert_nothing_left(vm)


def test_destroying_caches_after_a_partial_shadow_sink(vm):
    """A copy that sinks only part of the source's parent range must
    not unlink the source from that parent: the source still reaches
    it through its other fragments, and reaping the parent early let a
    later pull land in a dead object that nothing frees."""
    c0, c1, c2, c3, c4 = _caches(vm, 5)
    c1.copy(0, c4, 4 * PAGE, 2 * PAGE, policy=CopyPolicy.HISTORY)
    c4.copy(5 * PAGE, c0, 0, PAGE, policy=CopyPolicy.HISTORY)
    c0.copy(0, c1, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
    c4.copy(4 * PAGE, c0, 0, PAGE, policy=CopyPolicy.EAGER)
    for cache in (c0, c1, c2, c3, c4):
        cache.destroy()
    _assert_nothing_left(vm)
