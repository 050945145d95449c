"""User/system protection (the paper's "user/system" region attribute)."""

import pytest

from repro.errors import AccessViolation
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.hardware.mmu import Prot
from repro.units import KB

PAGE = 8 * KB

SYSTEM_RW = Protection.RW | Protection.SYSTEM


@pytest.fixture
def kernel_region(pvm, ctx, make_cache):
    cache = make_cache("kernel")
    region = ctx.region_create(0x40000, 2 * PAGE, protection=SYSTEM_RW,
                               cache=cache, offset=0)
    return cache, region


class TestSupervisorRegions:
    def test_user_access_rejected_unmapped(self, pvm, ctx, kernel_region):
        with pytest.raises(AccessViolation, match="system region"):
            pvm.user_read(ctx, 0x40000, 1)

    def test_supervisor_access_allowed(self, pvm, ctx, kernel_region):
        pvm.user_write(ctx, 0x40000, b"kernel data", supervisor=True)
        assert pvm.user_read(ctx, 0x40000, 11, supervisor=True) == \
            b"kernel data"

    def test_user_access_rejected_even_when_mapped(self, pvm, ctx,
                                                   kernel_region):
        """The SYSTEM bit lives in the PTE: a resident, mapped page
        still traps user mode (no fault-handler bypass)."""
        pvm.user_write(ctx, 0x40000, b"resident", supervisor=True)
        mapping = pvm.mmu.lookup(ctx.space, 0x40000)
        assert mapping.prot & Prot.SYSTEM
        with pytest.raises(AccessViolation):
            pvm.user_read(ctx, 0x40000, 1)
        with pytest.raises(AccessViolation):
            pvm.user_write(ctx, 0x40000, b"x")

    def test_user_regions_unaffected(self, pvm, ctx, make_cache):
        cache = make_cache()
        ctx.region_create(0x90000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x90000, b"user ok")
        assert pvm.user_read(ctx, 0x90000, 7) == b"user ok"

    def test_mixed_space(self, pvm, ctx, make_cache):
        """Kernel and user regions side by side in one context — the
        classic kernel-mapped-high layout."""
        kernel = make_cache("k")
        user = make_cache("u")
        ctx.region_create(0x7000000, PAGE, protection=SYSTEM_RW, cache=kernel,
                          offset=0)
        ctx.region_create(0x10000, PAGE, protection=Protection.RW, cache=user,
                          offset=0)
        pvm.user_write(ctx, 0x7000000, b"secrets", supervisor=True)
        pvm.user_write(ctx, 0x10000, b"app")
        with pytest.raises(AccessViolation):
            pvm.user_read(ctx, 0x7000000, 7)
        assert pvm.user_read(ctx, 0x7000000, 7, supervisor=True) == \
            b"secrets"

    def test_demote_region_to_user(self, pvm, ctx, kernel_region):
        cache, region = kernel_region
        pvm.user_write(ctx, 0x40000, b"was kernel", supervisor=True)
        region.set_protection(Protection.RW)        # drop SYSTEM
        assert pvm.user_read(ctx, 0x40000, 10) == b"was kernel"

    def test_cow_works_in_system_regions(self, pvm, ctx, make_cache):
        from repro.gmi.interface import CopyPolicy
        src = make_cache("ksrc")
        src.write(0, b"kernel image")
        dst = make_cache("kdst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        ctx.region_create(0x40000, PAGE, protection=SYSTEM_RW, cache=dst,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"patched!", supervisor=True)
        assert src.read(0, 12) == b"kernel image"
        assert pvm.user_read(ctx, 0x40000, 8, supervisor=True) == \
            b"patched!"
