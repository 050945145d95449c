"""Eager-copy baseline behaviour."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
from repro.mach import EagerVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return EagerVirtualMemory(memory_size=4 * MB)


class TestEagerCopies:
    def test_copy_is_immediate(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="src")
        src.write(0, b"now")
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        # Data copied physically: a private page exists right away.
        assert 0 in dst.pages
        assert dst.pages[0].frame != src.pages[0].frame
        assert dst.read(0, 3) == b"now"

    def test_no_deferral_machinery(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="src")
        for page in range(4):
            src.write(page * PAGE, b"x")
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        src.copy(0, dst, 0, 4 * PAGE, policy=CopyPolicy.AUTO)
        assert len(dst.parents) == 0
        assert vm.clock.count(CostEvent.COW_STUB_INSERT) == 0
        assert vm.clock.count(CostEvent.SHADOW_CREATE) == 0
        assert vm.clock.count(CostEvent.HISTORY_TREE_SETUP) == 0

    def test_bcopy_charged_per_page(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="src")
        for page in range(4):
            src.write(page * PAGE, b"x")
        before = vm.clock.count(CostEvent.BCOPY_PAGE)
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        src.copy(0, dst, 0, 4 * PAGE)
        assert vm.clock.count(CostEvent.BCOPY_PAGE) - before >= 4

    def test_source_changes_invisible_to_copy(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="src")
        src.write(0, b"original")
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        src.copy(0, dst, 0, PAGE)
        src.write(0, b"mutated!")
        assert dst.read(0, 8) == b"original"
