"""The minimal real-time GMI implementation (section 5.2)."""

import pytest

from repro.errors import OutOfFrames
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.minimal import RealTimeVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return RealTimeVirtualMemory(memory_size=1 * MB)


def make_cache(vm, name=None):
    return vm.cache_create(ZeroFillProvider(), name=name)


class TestFaultFreedom:
    def test_region_fully_resident_at_create(self, vm):
        ctx = vm.context_create()
        cache = make_cache(vm)
        region = ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        assert region.status().resident_pages == 4
        assert all(page.pinned for page in cache.pages.values())

    def test_no_faults_after_create(self, vm):
        ctx = vm.context_create()
        cache = make_cache(vm)
        ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        faults_before = vm.bus.stats.get("faults")
        for index in range(4):
            vm.user_write(ctx, 0x40000 + index * PAGE, b"deterministic")
            vm.user_read(ctx, 0x40000 + index * PAGE, 13)
        assert vm.bus.stats.get("faults") == faults_before

    def test_mmu_maps_stay_fixed(self, vm):
        """The lockInMemory guarantee, as the default."""
        ctx = vm.context_create()
        cache = make_cache(vm)
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        frames_before = {
            vaddr: vm.mmu.lookup(ctx.space, 0x40000 + vaddr * PAGE).frame
            for vaddr in range(2)
        }
        vm.user_write(ctx, 0x40000, b"work")
        frames_after = {
            vaddr: vm.mmu.lookup(ctx.space, 0x40000 + vaddr * PAGE).frame
            for vaddr in range(2)
        }
        assert frames_before == frames_after


class TestEagerBehaviour:
    def test_copies_are_physical(self, vm):
        src, dst = make_cache(vm, "src"), make_cache(vm, "dst")
        src.write(0, b"eager")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        assert 0 in dst.pages                      # materialised now
        src.write(0, b"later")
        assert dst.read(0, 5) == b"eager"
        assert not dst.parents and not src.guards   # no tree built

    def test_no_reclaim_under_pressure(self, vm):
        ctx = vm.context_create()
        cache = make_cache(vm)
        # 1 MB RAM = 128 frames; a 120-page region fits...
        ctx.region_create(0x100000, 120 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        # ...but the next eager region does not, and nothing is evicted.
        other = make_cache(vm)
        with pytest.raises(OutOfFrames):
            ctx.region_create(0xF00000, 16 * PAGE, protection=Protection.RW,
                              cache=other, offset=0)

    def test_failed_create_rolls_back(self, vm):
        ctx = vm.context_create()
        cache = make_cache(vm)
        ctx.region_create(0x100000, 120 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        other = make_cache(vm)
        with pytest.raises(OutOfFrames):
            ctx.region_create(0xF00000, 16 * PAGE, protection=Protection.RW,
                              cache=other, offset=0)
        # The failed region is not left behind half-created.
        assert ctx.regions_overlapping(0xF00000, 1) == []

    def test_destroy_releases_frames(self, vm):
        ctx = vm.context_create()
        cache = make_cache(vm)
        region = ctx.region_create(0x40000, 8 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        free_before = vm.memory.free_frames
        region.destroy()
        cache.destroy()
        assert vm.memory.free_frames == free_before + 8


class TestGmiCompatibility:
    def test_nucleus_runs_unchanged(self):
        """The replaceable-unit claim: the Nucleus over the RT MM."""
        from repro.nucleus import Nucleus
        nucleus = Nucleus(vm_class=RealTimeVirtualMemory,
                          memory_size=2 * MB)
        actor = nucleus.create_actor()
        region = nucleus.rgn_allocate(actor, 4 * PAGE, address=0x40000)
        actor.write(0x40000, b"rt actor")
        assert actor.read(0x40000, 8) == b"rt actor"
        assert region.status().resident_pages == 4
        nucleus.destroy_actor(actor)
