"""Rollback behaviour of the real-time MM under memory exhaustion."""

import pytest

from repro.errors import OutOfFrames
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.minimal import RealTimeVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


def test_failed_create_leaves_no_pins_behind():
    vm = RealTimeVirtualMemory(memory_size=1 * MB)       # 128 frames
    ctx = vm.context_create()
    big = vm.cache_create(ZeroFillProvider(), name="big")
    ctx.region_create(0x100000, 120 * PAGE, protection=Protection.RW,
                      cache=big, offset=0)
    small = vm.cache_create(ZeroFillProvider(), name="small")
    with pytest.raises(OutOfFrames):
        ctx.region_create(0xF00000, 16 * PAGE, protection=Protection.RW,
                          cache=small, offset=0)
    # Nothing in the failed cache remains pinned; the frames the
    # attempt consumed were released.
    assert all(not page.pinned for page in small.pages.values())
    small.invalidate(0, 16 * PAGE)
    assert vm.memory.free_frames == 128 - 120


def test_retry_after_making_room():
    vm = RealTimeVirtualMemory(memory_size=1 * MB)
    ctx = vm.context_create()
    big = vm.cache_create(ZeroFillProvider(), name="big")
    region = ctx.region_create(0x100000, 120 * PAGE, protection=Protection.RW,
                               cache=big, offset=0)
    small = vm.cache_create(ZeroFillProvider(), name="small")
    with pytest.raises(OutOfFrames):
        ctx.region_create(0xF00000, 16 * PAGE, protection=Protection.RW,
                          cache=small, offset=0)
    small.invalidate(0, 16 * PAGE)      # drop the partial allocation
    region.destroy()
    big.destroy()
    created = ctx.region_create(0xF00000, 16 * PAGE, protection=Protection.RW,
                                cache=small, offset=0)
    assert created.status().resident_pages == 16
