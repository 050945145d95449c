"""Per-virtual-page copy-on-write (section 4.3)."""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
from repro.pvm.page import CowStub
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def make(pvm):
    def factory(name=None, fill=None, pages=4):
        cache = pvm.cache_create(ZeroFillProvider(), name=name)
        if fill is not None:
            for page in range(pages):
                cache.write(page * PAGE, bytes([fill + page]) * PAGE)
        return cache
    return factory


def pp_copy(src, dst, pages=2, src_off=0, dst_off=0):
    src.copy(src_off, dst, dst_off, pages * PAGE, policy=CopyPolicy.PER_PAGE)


class TestStubPlacement:
    def test_stubs_inserted_for_destination(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        pp_copy(src, dst)
        for offset in (0, PAGE):
            entry = pvm.global_map.lookup(dst, offset)
            assert isinstance(entry, CowStub)
        assert pvm.clock.count(CostEvent.COW_STUB_INSERT) == 2

    def test_stub_points_to_resident_page(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        pp_copy(src, dst)
        stub = pvm.global_map.lookup(dst, 0)
        assert stub.src_page is src.pages[0]
        assert stub in src.pages[0].cow_stubs

    def test_stub_for_nonresident_source_carries_cache_offset(self, pvm,
                                                              make):
        src = make("src", fill=1)
        src.flush(0, 4 * PAGE)                  # evict everything
        dst = make("dst")
        pp_copy(src, dst)
        stub = pvm.global_map.lookup(dst, 0)
        assert stub.src_page is None
        assert stub.src_cache is src and stub.src_offset == 0

    def test_source_pages_protected(self, pvm, make):
        from repro.hardware.mmu import Prot
        src = make("src", fill=1)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=src, offset=0)
        pvm.user_write(ctx, 0x40000, b"touch")
        dst = make("dst")
        pp_copy(src, dst)
        mapping = pvm.mmu.lookup(ctx.space, 0x40000)
        assert not (mapping.prot & Prot.WRITE)


class TestReads:
    def test_read_through_stub_shares_source_page(self, pvm, make):
        """The source page is accessible for reads through any cache to
        which it was copied (4.3)."""
        src = make("src", fill=5)
        dst = make("dst")
        pp_copy(src, dst)
        assert dst.read(0, 3) == bytes([5] * 3)
        assert 0 not in dst.pages          # still deferred

    def test_mapped_read_through_stub(self, pvm, make):
        src = make("src", fill=5)
        dst = make("dst")
        pp_copy(src, dst)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=dst, offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([5, 5])
        # Read mapped the source frame read-only; the stub remains.
        assert isinstance(pvm.global_map.lookup(dst, 0), CowStub)


class TestWriteResolution:
    def test_write_violation_allocates_copy(self, pvm, make):
        src = make("src", fill=5)
        dst = make("dst")
        pp_copy(src, dst)
        dst.write(0, b"resolved")
        assert dst.read(0, 8) == b"resolved"
        assert src.read(0, 8) == bytes([5] * 8)
        assert not isinstance(pvm.global_map.lookup(dst, 0), CowStub)
        assert pvm.clock.count(CostEvent.COW_STUB_RESOLVE) == 1

    def test_mapped_write_resolves_stub(self, pvm, make):
        src = make("src", fill=5)
        dst = make("dst")
        pp_copy(src, dst)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=dst, offset=0)
        pvm.user_write(ctx, 0x40000, b"mapped write")
        assert src.read(0, 4) == bytes([5] * 4)
        assert pvm.user_read(ctx, 0x40000, 12) == b"mapped write"

    def test_source_write_breaks_stubs_first(self, pvm, make):
        """Writing the source materializes dependent copies so they
        keep the copy-time value."""
        src = make("src", fill=5)
        dst = make("dst")
        pp_copy(src, dst)
        src.write(0, b"source moved on")
        assert dst.read(0, 3) == bytes([5] * 3)
        assert src.read(0, 15) == b"source moved on"
        assert 0 in dst.pages

    def test_multiple_destinations_one_source_page(self, pvm, make):
        src = make("src", fill=9)
        dsts = [make(f"d{i}") for i in range(3)]
        for dst in dsts:
            pp_copy(src, dst, pages=1)
        assert len(src.pages[0].cow_stubs) == 3
        src.write(0, b"boom")
        for dst in dsts:
            assert dst.read(0, 2) == bytes([9, 9])


class TestEvictionInteraction:
    def test_source_eviction_retargets_stubs(self, pvm, make):
        src = make("src", fill=3)
        dst = make("dst")
        pp_copy(src, dst)
        src.flush(0, PAGE)                  # push out + drop page 0
        stub = pvm.global_map.lookup(dst, 0)
        assert stub.src_page is None
        assert stub.src_cache is src
        # Read still resolves (pulls the saved page back).
        assert dst.read(0, 2) == bytes([3, 3])

    def test_write_after_source_eviction(self, pvm, make):
        src = make("src", fill=3)
        dst = make("dst")
        pp_copy(src, dst)
        src.flush(0, 2 * PAGE)
        dst.write(PAGE, b"after eviction")
        assert dst.read(PAGE, 14) == b"after eviction"
        assert src.read(PAGE, 2) == bytes([4, 4])

    def test_source_destroy_materializes_stubs(self, pvm, make):
        src = make("src", fill=3)
        dst = make("dst")
        pp_copy(src, dst)
        src.destroy()
        assert src.destroyed                # no history children: real destroy
        assert dst.read(0, 2) == bytes([3, 3])
        assert 0 in dst.pages


class TestIpcSizedTransfers:
    def test_auto_uses_per_page_for_small_copies(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.AUTO)
        assert isinstance(pvm.global_map.lookup(dst, 0), CowStub)

    def test_auto_uses_history_for_large_copies(self, pvm, make):
        src = pvm.cache_create(ZeroFillProvider(), name="big")
        src.write(0, b"large")
        dst = pvm.cache_create(ZeroFillProvider(), name="dstbig")
        src.copy(0, dst, 0, 16 * PAGE, policy=CopyPolicy.AUTO)
        assert len(dst.parents) == 1
        assert pvm.global_map.lookup(dst, 0) is None

    def test_64k_message_roundtrip(self, pvm, make):
        src = make("msg")
        payload = bytes(range(256)) * 256          # 64 KB
        src.write(0, payload)
        dst = make("slot")
        src.copy(0, dst, 0, 64 * KB, policy=CopyPolicy.PER_PAGE)
        assert dst.read(0, 64 * KB) == payload
