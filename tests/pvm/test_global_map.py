"""Direct unit tests for the single global map (section 4.1.1)."""

import pytest

from repro.errors import InvalidOperation
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.pvm.global_map import GlobalMap
from repro.pvm.page import CowStub, RealPageDescriptor, SyncStub
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def rig():
    vm = PagedVirtualMemory(memory_size=1 * MB)
    gmap = GlobalMap(PAGE)
    caches = [vm.cache_create(ZeroFillProvider(), name=f"c{i}")
              for i in range(2)]
    return vm, gmap, caches


def make_page(vm, cache, offset):
    frame = vm.memory.allocate_frame()
    return RealPageDescriptor(cache, offset, frame)


class TestBasicOps:
    def test_insert_lookup_remove(self, rig):
        vm, gmap, (a, b) = rig
        page = make_page(vm, a, 0)
        gmap.insert(a, 0, page)
        assert gmap.lookup(a, 0) is page
        assert gmap.remove(a, 0) is page
        assert gmap.lookup(a, 0) is None

    def test_keys_are_cache_scoped(self, rig):
        vm, gmap, (a, b) = rig
        page_a = make_page(vm, a, 0)
        page_b = make_page(vm, b, 0)
        gmap.insert(a, 0, page_a)
        gmap.insert(b, 0, page_b)
        assert gmap.lookup(a, 0) is page_a
        assert gmap.lookup(b, 0) is page_b
        assert len(gmap) == 2

    def test_double_insert_rejected(self, rig):
        vm, gmap, (a, _) = rig
        gmap.insert(a, 0, make_page(vm, a, 0))
        with pytest.raises(InvalidOperation):
            gmap.insert(a, 0, make_page(vm, a, 0))

    def test_replace_requires_occupant(self, rig):
        vm, gmap, (a, _) = rig
        with pytest.raises(InvalidOperation):
            gmap.replace(a, 0, make_page(vm, a, 0))

    def test_replace_returns_old(self, rig):
        vm, gmap, (a, _) = rig
        vm_lock = None
        stub = SyncStub(a, 0, vm_lock)
        gmap.insert(a, 0, stub)
        page = make_page(vm, a, 0)
        assert gmap.replace(a, 0, page) is stub
        assert gmap.lookup(a, 0) is page

    def test_remove_empty_rejected_discard_tolerant(self, rig):
        vm, gmap, (a, _) = rig
        with pytest.raises(InvalidOperation):
            gmap.remove(a, 0)
        assert gmap.discard(a, 0) is None

    def test_alignment_enforced(self, rig):
        vm, gmap, (a, _) = rig
        with pytest.raises(InvalidOperation):
            gmap.lookup(a, 100)
        with pytest.raises(InvalidOperation):
            gmap.insert(a, PAGE + 1, make_page(vm, a, 0))


class TestEnumeration:
    def test_entries_of_sorted_and_scoped(self, rig):
        vm, gmap, (a, b) = rig
        for offset in (2 * PAGE, 0, PAGE):
            gmap.insert(a, offset, make_page(vm, a, offset))
        gmap.insert(b, 0, make_page(vm, b, 0))
        offsets = [offset for offset, _ in gmap.entries_of(a)]
        assert offsets == [0, PAGE, 2 * PAGE]

    def test_iteration_yields_all(self, rig):
        vm, gmap, (a, b) = rig
        gmap.insert(a, 0, make_page(vm, a, 0))
        gmap.insert(b, PAGE, make_page(vm, b, PAGE))
        keys = {key for key, _ in gmap}
        assert keys == {(a.cache_id, 0), (b.cache_id, PAGE)}


class TestScalingProperty:
    """Section 4.1: the map scales with resident pages, not with
    segment or address-space sizes."""

    def test_size_tracks_resident_pages_only(self):
        vm = PagedVirtualMemory(memory_size=2 * MB)
        cache = vm.cache_create(ZeroFillProvider())
        ctx = vm.context_create()
        from repro.gmi.types import Protection
        # A 2 GB region over a (conceptually) huge segment...
        ctx.region_create(0x10000000, (1 << 31), protection=Protection.RW,
                          cache=cache, offset=0)
        assert len(vm.global_map) == 0
        # ...costs map entries only as pages are touched.
        for index in range(5):
            vm.user_write(ctx, 0x10000000 + index * 7919 * PAGE, b"x")
        assert len(vm.global_map) == 5
