"""Deferred copies interacting with swapped-out pages.

Section 4.2: "Considering swapped-out pages presents no extra
difficulty" — these tests hold the paper to it.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def make(pvm):
    def factory(name=None, fill=None, pages=3):
        cache = pvm.cache_create(ZeroFillProvider(), name=name)
        if fill is not None:
            for page in range(pages):
                cache.write(page * PAGE, bytes([fill + page]) * PAGE)
        return cache
    return factory


class TestCopyOfSwappedSource:
    def test_history_copy_from_fully_evicted_source(self, pvm, make):
        src = make("src", fill=10)
        src.flush(0, 3 * PAGE)
        assert len(src.pages) == 0
        dst = make("dst")
        src.copy(0, dst, 0, 3 * PAGE, policy=CopyPolicy.HISTORY)
        # Reads walk to src, which pulls back from its swap.
        assert dst.read(0, 2) == bytes([10, 10])
        assert dst.read(2 * PAGE, 2) == bytes([12, 12])

    def test_write_to_swapped_guarded_source(self, pvm, make):
        src = make("src", fill=20)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.flush(0, 2 * PAGE)                 # evict after the copy
        src.write(0, b"post-swap write")
        # The pre-image still reached the history object.
        assert dst.read(0, 2) == bytes([20, 20])
        assert src.read(0, 15) == b"post-swap write"

    def test_per_page_copy_of_evicted_page_roundtrip(self, pvm, make):
        src = make("src", fill=30)
        src.flush(PAGE, PAGE)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.PER_PAGE)
        # Page 0: stub -> resident page; page 1: stub -> (cache, offset).
        assert dst.read(PAGE, 2) == bytes([31, 31])
        dst.write(PAGE, b"own now")
        assert dst.read(PAGE, 7) == b"own now"
        assert src.read(PAGE, 2) == bytes([31, 31])


class TestHistoryPageSwap:
    def test_preimage_evicted_then_source_rewritten(self, pvm, make):
        """The owned-offset marker prevents a second (corrupting) push."""
        src = make("src", fill=40)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"first")                 # pre-image 40.. -> dst
        dst.flush(0, PAGE)                     # evict the pre-image
        src.write(0, b"second")                # must NOT push "first"
        assert dst.read(0, 2) == bytes([40, 40])

    def test_collapse_pulls_swapped_parent_pages(self, pvm, make):
        src = make("src", fill=50, pages=2)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.flush(0, 2 * PAGE)                 # parent data on swap
        src.destroy()
        moved = pvm.collapse_history(dst)
        assert moved == 2
        assert dst.read(0, 2) == bytes([50, 50])
        assert dst.read(PAGE, 2) == bytes([51, 51])


class TestMappedSwapRoundtrips:
    def test_mapped_page_survives_explicit_flush(self, pvm, ctx, make):
        from repro.gmi.types import Protection
        cache = make("seg")
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        pvm.user_write(ctx, 0x40000, b"mapped then flushed")
        cache.flush(0, PAGE)
        assert pvm.mmu.lookup(ctx.space, 0x40000) is None   # shot down
        assert pvm.user_read(ctx, 0x40000, 19) == b"mapped then flushed"

    def test_shared_read_mapping_of_parent_page_survives_eviction(
            self, pvm, ctx, make):
        from repro.gmi.types import Protection
        src = make("src", fill=60)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([60, 60])
        # Evict the source page that backs dst's mapping.
        src.flush(0, PAGE)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([60, 60])
