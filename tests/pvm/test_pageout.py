"""Page replacement, pinning, and memory-pressure behaviour."""

import pytest

from repro.errors import OutOfFrames
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def small_pvm():
    """A PVM with only 8 frames of RAM: pressure is easy to create."""
    return PagedVirtualMemory(memory_size=8 * PAGE)


def make_cache(pvm, name=None):
    return pvm.cache_create(ZeroFillProvider(), name=name)


class TestReclaim:
    def test_allocation_beyond_ram_evicts(self, small_pvm):
        pvm = small_pvm
        cache = make_cache(pvm)
        for page in range(16):                     # 2x physical memory
            cache.write(page * PAGE, bytes([page]) * 8)
        assert pvm.resident_page_count <= 8
        # Every page still readable: evicted ones pull back from swap.
        for page in range(16):
            assert cache.read(page * PAGE, 8) == bytes([page]) * 8

    def test_dirty_pages_pushed_before_eviction(self, small_pvm):
        pvm = small_pvm
        cache = make_cache(pvm)
        for page in range(12):
            cache.write(page * PAGE, bytes([page + 1]) * 8)
        assert cache.statistics.push_outs > 0

    def test_mapped_pages_shot_down_on_eviction(self, small_pvm):
        pvm = small_pvm
        ctx = pvm.context_create()
        cache = make_cache(pvm)
        ctx.region_create(0x40000, 8 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        for page in range(8):
            pvm.user_write(ctx, 0x40000 + page * PAGE, bytes([page + 1]))
        other = make_cache(pvm)
        for page in range(6):
            other.write(page * PAGE, b"pressure")
        # Evicted mappings refault transparently with the saved value.
        for page in range(8):
            assert pvm.user_read(ctx, 0x40000 + page * PAGE, 1) == \
                bytes([page + 1])

    def test_second_chance_prefers_unreferenced(self, small_pvm):
        pvm = small_pvm
        cache = make_cache(pvm)
        for page in range(8):
            cache.write(page * PAGE, bytes([page]))
        # Re-reference pages 0-3 so their reference bits are set again.
        for page in range(4):
            cache.read(page * PAGE, 1)
        for page in cache.pages.values():
            if page.offset >= 4 * PAGE:
                page.referenced = False
        pvm.reclaim_frames(2)
        survivors = set(cache.pages)
        assert {0, PAGE, 2 * PAGE, 3 * PAGE} <= survivors


class TestPinning:
    def test_pinned_pages_never_evicted(self, small_pvm):
        pvm = small_pvm
        ctx = pvm.context_create()
        cache = make_cache(pvm)
        region = ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        pvm.user_write(ctx, 0x40000, b"pinned")
        region.lock_in_memory()
        pinned_frames = {page.frame for page in cache.pages.values()}
        other = make_cache(pvm)
        for page in range(10):
            other.write(page * PAGE, b"x")
        assert {page.frame for page in cache.pages.values()} == pinned_frames

    def test_all_pinned_memory_exhausts(self, small_pvm):
        pvm = small_pvm
        ctx = pvm.context_create()
        cache = make_cache(pvm)
        region = ctx.region_create(0x40000, 8 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        other = make_cache(pvm)
        with pytest.raises(OutOfFrames):
            other.write(0, b"no frames left")

    def test_unlock_releases_pressure(self, small_pvm):
        pvm = small_pvm
        ctx = pvm.context_create()
        cache = make_cache(pvm)
        region = ctx.region_create(0x40000, 8 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        region.unlock()
        other = make_cache(pvm)
        other.write(0, b"fine now")
        assert other.read(0, 8) == b"fine now"

    def test_cache_level_lock(self, small_pvm):
        pvm = small_pvm
        cache = make_cache(pvm)
        cache.write(0, b"data")
        cache.lock_in_memory(0, PAGE)
        assert cache.pages[0].pinned
        cache.unlock(0, PAGE)
        assert not cache.pages[0].pinned


class TestDeferredCopyUnderPressure:
    def test_history_copy_survives_eviction(self, small_pvm):
        pvm = small_pvm
        src = make_cache(pvm, "src")
        for page in range(4):
            src.write(page * PAGE, bytes([page + 1]) * 8)
        dst = make_cache(pvm, "dst")
        src.copy(0, dst, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"new value")
        # Pressure: evict aggressively.
        other = make_cache(pvm, "pressure")
        for page in range(8):
            other.write(page * PAGE, b"p")
        # The copy still sees the original values.
        for page in range(4):
            assert dst.read(page * PAGE, 8) == bytes([page + 1]) * 8

    def test_per_page_copy_survives_eviction(self, small_pvm):
        pvm = small_pvm
        src = make_cache(pvm, "src")
        src.write(0, b"original!")
        dst = make_cache(pvm, "dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        other = make_cache(pvm, "pressure")
        for page in range(9):
            other.write(page * PAGE, b"p")
        assert dst.read(0, 9) == b"original!"

    def test_history_page_swap_roundtrip(self, small_pvm):
        """Pre-images pushed to a history object survive its eviction
        (the segmentCreate upcall gave it swappable backing)."""
        pvm = small_pvm
        src = make_cache(pvm, "src")
        src.write(0, b"preimage")
        dst = make_cache(pvm, "dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.write(0, b"modified")     # pre-image pushed into dst
        pressure = make_cache(pvm, "pressure")
        for page in range(9):
            pressure.write(page * PAGE, b"p")
        assert dst.read(0, 8) == b"preimage"
