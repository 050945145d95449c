"""Introspection tools: tree rendering, state dumps, vmstat."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.tools import (
    VmStat, dump_vm_state, render_cache_tree, render_context,
)
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=4 * MB)


def build_figure_3c(vm):
    src = vm.cache_create(ZeroFillProvider(), name="src")
    for page in range(4):
        src.write(page * PAGE, bytes([page + 1]) * 8)
    copies = []
    for name in ("cpy1", "cpy2"):
        copy = vm.cache_create(ZeroFillProvider(), name=name)
        src.copy(0, copy, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
        copies.append(copy)
    return src, copies


class TestRenderCacheTree:
    def test_tree_shows_all_nodes(self, vm):
        src, copies = build_figure_3c(vm)
        art = render_cache_tree(src)
        for name in ("src", "cpy1", "cpy2", "w(src)"):
            assert name in art

    def test_tree_shows_history_flag_and_guards(self, vm):
        src, copies = build_figure_3c(vm)
        art = render_cache_tree(copies[0])       # render from a leaf
        assert "(history)" in art
        assert "guards" in art and "->w(src)" in art

    def test_dead_nodes_flagged(self, vm):
        src, copies = build_figure_3c(vm)
        src.destroy()
        art = render_cache_tree(copies[0])
        assert "(dead)" in art

    def test_page_listing(self, vm):
        src, copies = build_figure_3c(vm)
        src.write(2 * PAGE, b"dirty")             # pre-image into w(src)
        art = render_cache_tree(src)
        assert "pages:{0,1,2,3}" in art            # src resident pages


class TestRenderContext:
    def test_region_lines(self, vm):
        ctx = vm.context_create("demo")
        cache = vm.cache_create(ZeroFillProvider(), name="seg")
        region = ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=PAGE)
        vm.user_write(ctx, 0x40000, b"x")
        text = render_context(ctx)
        assert "demo" in text
        assert "0x00040000" in text
        assert "seg" in text
        assert "resident=1" in text

    def test_locked_marker(self, vm):
        ctx = vm.context_create()
        cache = vm.cache_create(ZeroFillProvider())
        region = ctx.region_create(0x40000, PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        assert "LOCKED" in render_context(ctx)


class TestDumpVmState:
    def test_counts_reported(self, vm):
        src, copies = build_figure_3c(vm)
        text = dump_vm_state(vm)
        assert "memory manager: pvm" in text
        assert "resident pages: 4" in text
        assert "caches: 4" in text and "1 internal" in text

    def test_stub_census(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="s")
        src.write(0, b"x")
        dst = vm.cache_create(ZeroFillProvider(), name="d")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        assert "1 cow" in dump_vm_state(vm)


class TestVmStat:
    def test_interval_deltas(self, vm):
        stat = VmStat(vm)
        cache = vm.cache_create(ZeroFillProvider())
        cache.write(0, b"phase one")
        one = stat.sample("phase1")
        cache.write(PAGE, b"phase two")
        cache.write(2 * PAGE, b"more")
        two = stat.sample("phase2")
        assert one.deltas["alloc"] == 1
        assert two.deltas["alloc"] == 2
        assert one.resident == 1 and two.resident == 3

    def test_format_contains_labels(self, vm):
        stat = VmStat(vm)
        stat.sample("warm-up")
        text = stat.format()
        assert "warm-up" in text
        assert "faults" in text
