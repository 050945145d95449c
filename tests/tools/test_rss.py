"""Residency accounting: RSS/PSS attribution across contexts."""

import pytest

from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.tools.rss import format_residency, residency_report
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=4 * MB)


class TestResidency:
    def test_private_pages_counted_once(self, vm):
        ctx = vm.context_create("solo")
        cache = vm.cache_create(ZeroFillProvider())
        ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        vm.user_write(ctx, 0x40000, b"a")
        vm.user_write(ctx, 0x40000 + PAGE, b"b")
        report = residency_report(vm)[0]
        assert report.name == "solo"
        assert report.rss_pages == 2
        assert report.pss_pages == pytest.approx(2.0)

    def test_shared_frame_split_in_pss(self, vm):
        cache = vm.cache_create(ZeroFillProvider(), name="shared")
        cache.write(0, b"x")
        contexts = [vm.context_create(f"c{i}") for i in range(2)]
        for ctx in contexts:
            ctx.region_create(0x40000, PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
            vm.user_read(ctx, 0x40000, 1)
        reports = {r.name: r for r in residency_report(vm)}
        for name in ("c0", "c1"):
            assert reports[name].rss_pages == 1
            assert reports[name].pss_pages == pytest.approx(0.5)

    def test_untouched_regions_are_free(self, vm):
        ctx = vm.context_create("lazy")
        cache = vm.cache_create(ZeroFillProvider())
        ctx.region_create(0x40000, 128 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        report = residency_report(vm)[0]
        assert report.rss_pages == 0

    def test_sorted_by_rss(self, vm):
        cache = vm.cache_create(ZeroFillProvider())
        big = vm.context_create("big")
        big.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        small = vm.context_create("small")
        small.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                            cache=cache, offset=4 * PAGE)
        for index in range(3):
            vm.user_write(big, 0x40000 + index * PAGE, b"x")
        vm.user_write(small, 0x40000, b"y")
        reports = residency_report(vm)
        assert [r.name for r in reports] == ["big", "small"]

    def test_format_contains_everything(self, vm):
        ctx = vm.context_create("fmt")
        cache = vm.cache_create(ZeroFillProvider(), name="seg")
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        vm.user_write(ctx, 0x40000, b"z")
        text = format_residency(vm)
        assert "fmt" in text and "seg" in text and "rss" in text
