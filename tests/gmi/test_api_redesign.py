"""The extent-shaped introspection surface: extents in, per-page
lists out.

``Cache.resident_extents`` and ``Context.regions_overlapping`` answer
residency and range queries in O(extents).
"""

import pytest

from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=64 * PAGE, page_size=PAGE)


@pytest.fixture
def cache(vm):
    return vm.cache_create(ZeroFillProvider())


@pytest.fixture
def ctx(vm):
    return vm.context_create("api")


class TestResidentExtents:
    def test_contiguous_pages_coalesce_to_one_run(self, cache):
        for index in range(4):
            cache.write(index * PAGE, b"x")
        assert cache.resident_extents() == [(0, 4 * PAGE)]

    def test_holes_split_runs(self, cache):
        cache.write(0, b"x")
        cache.write(3 * PAGE, b"x")
        cache.write(4 * PAGE, b"x")
        assert cache.resident_extents() == [(0, PAGE), (3 * PAGE, 2 * PAGE)]

    def test_empty_cache(self, cache):
        assert cache.resident_extents() == []

    def test_extents_track_eviction(self, vm, cache):
        for index in range(3):
            cache.write(index * PAGE, b"x")
        cache.invalidate(PAGE, PAGE)
        assert cache.resident_extents() == [(0, PAGE), (2 * PAGE, PAGE)]

    def test_agrees_with_resident_pages(self, cache):
        for offset in (0, PAGE, 5 * PAGE):
            cache.write(offset, b"x")
        offsets = sorted(cache.pages)
        from_extents = [start + index * PAGE
                        for start, length in cache.resident_extents()
                        for index in range(length // PAGE)]
        assert offsets == from_extents


class TestRegionsOverlapping:
    def test_range_query(self, ctx, cache):
        low = ctx.region_create(0x10000, 2 * PAGE,
                                protection=Protection.RW, cache=cache)
        high = ctx.region_create(0x10000 + 4 * PAGE, PAGE,
                                 protection=Protection.RW, cache=cache)
        assert ctx.regions_overlapping(0x10000, PAGE) == [low]
        assert ctx.regions_overlapping(0x10000, 5 * PAGE) == [low, high]
        assert ctx.regions_overlapping(0x10000 + 2 * PAGE, PAGE) == []

    def test_boundaries_are_half_open(self, ctx, cache):
        region = ctx.region_create(0x10000, PAGE,
                                   protection=Protection.RW, cache=cache)
        assert ctx.regions_overlapping(0x10000 - 1, 1) == []
        assert ctx.regions_overlapping(0x10000 + PAGE - 1, 1) == [region]
        assert ctx.regions_overlapping(0x10000 + PAGE, 1) == []
