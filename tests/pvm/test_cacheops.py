"""Explicit cache access, move semantics, caps, and the unified cache."""

import pytest

from repro.errors import AccessViolation, InvalidOperation
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider, ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def make(pvm):
    def factory(name=None):
        return pvm.cache_create(ZeroFillProvider(), name=name)
    return factory


class TestExplicitAccess:
    def test_write_read_roundtrip_spanning_pages(self, pvm, make):
        cache = make()
        payload = bytes(range(256)) * 96          # 24 KB = 3 pages
        cache.write(PAGE - 100, payload)
        assert cache.read(PAGE - 100, len(payload)) == payload

    def test_read_of_unwritten_data_is_zero(self, pvm, make):
        cache = make()
        assert cache.read(5 * PAGE, 16) == bytes(16)

    def test_negative_read_rejected(self, pvm, make):
        with pytest.raises(InvalidOperation):
            make().read(-1, 10)


class TestUnifiedCache:
    """Section 3.2: one cache for mapped and read/write access — the
    dual-caching problem cannot arise."""

    def test_mapped_write_visible_to_explicit_read(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000 + 10, b"mapped")
        assert cache.read(10, 6) == b"mapped"

    def test_explicit_write_visible_to_mapped_read(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        cache.write(20, b"explicit")
        assert pvm.user_read(ctx, 0x40000 + 20, 8) == b"explicit"

    def test_single_frame_for_both_paths(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"x")
        cache.read(0, 1)
        assert len(cache.pages) == 1
        assert pvm.resident_page_count == 1


class TestMove:
    def test_aligned_move_reassigns_frames(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(0, b"move me")
        frame = src.pages[0].frame
        src.move(0, dst, 0, PAGE)
        assert dst.pages[0].frame == frame          # no copy happened
        assert dst.read(0, 7) == b"move me"
        assert 0 not in src.pages                   # source undefined

    def test_move_with_offset_translation(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(2 * PAGE, b"shifted")
        src.move(2 * PAGE, dst, 5 * PAGE, PAGE)
        assert dst.read(5 * PAGE, 7) == b"shifted"

    def test_unaligned_move_copies_and_clears(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(0, b"AAAABBBB")
        src.move(4, dst, 0, 4)
        assert dst.read(0, 4) == b"BBBB"

    def test_move_of_stubbed_page_degrades_to_copy(self, pvm, make):
        """A page with attached COW stubs cannot change identity."""
        src, dst, other = make("src"), make("dst"), make("other")
        src.write(0, b"shared")
        src.copy(0, other, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        src.move(0, dst, 0, PAGE)
        assert dst.read(0, 6) == b"shared"
        assert other.read(0, 6) == b"shared"        # stub content preserved

    def test_move_of_guarded_page_preserves_history(self, pvm, make):
        src, dst, child = make("src"), make("dst"), make("child")
        src.write(0, b"original")
        src.copy(0, child, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.move(0, dst, 0, PAGE)
        assert child.read(0, 8) == b"original"
        assert dst.read(0, 8) == b"original"


class TestSetProtection:
    def test_write_cap_blocks_mapped_write(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"before")
        cache.set_protection(0, PAGE, Protection.READ)
        with pytest.raises(AccessViolation):
            pvm.user_write(ctx, 0x40000, b"after")
        assert pvm.user_read(ctx, 0x40000, 6) == b"before"

    def test_lifting_cap_restores_write(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        cache.set_protection(0, PAGE, Protection.READ)
        cache.set_protection(0, PAGE, Protection.RWX)
        pvm.user_write(ctx, 0x40000, b"ok")
        assert pvm.user_read(ctx, 0x40000, 2) == b"ok"

    def test_write_cap_triggers_get_write_access(self, pvm, ctx):
        """A DSM manager can grant write access during the upcall."""

        class CoherenceProvider(SegmentProvider):
            def __init__(self):
                self.granted = []

            def pull_in(self, cache, offset, size, access_mode):
                cache.fill_zero(offset, size)

            def get_write_access(self, cache, offset, size):
                self.granted.append(offset)
                cache.set_protection(offset, size, Protection.RWX)

            def push_out(self, cache, offset, size):
                cache.copy_back(offset, size)

            def segment_create(self, cache):
                return "dsm"

        provider = CoherenceProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_read(ctx, 0x40000, 1)
        cache.set_protection(0, PAGE, Protection.READ)
        pvm.user_write(ctx, 0x40000, b"dsm write")
        assert provider.granted == [0]
        assert pvm.user_read(ctx, 0x40000, 9) == b"dsm write"


class TestInvalidate:
    def test_invalidate_drops_without_saving(self, pvm, make):
        cache = make()
        cache.write(0, b"volatile")
        cache.invalidate(0, PAGE)
        assert 0 not in cache.pages
        # Re-reading pulls zeroes: the write was never saved.
        assert cache.read(0, 8) == bytes(8)

    def test_invalidate_materializes_dependent_stubs(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(0, b"needed")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        src.invalidate(0, PAGE)
        assert dst.read(0, 6) == b"needed"

    def test_invalidate_skips_pinned(self, pvm, make):
        cache = make()
        cache.write(0, b"pinned")
        cache.lock_in_memory(0, PAGE)
        cache.invalidate(0, PAGE)
        assert cache.read(0, 6) == b"pinned"


class TestFillSemantics:
    def test_fill_up_resolves_only_aligned(self, pvm, make):
        cache = make()
        with pytest.raises(InvalidOperation):
            cache.fill_up(100, b"data")

    def test_spontaneous_fill_then_write_needs_grant(self, pvm, ctx):
        """Unsolicited cached data is read-only until getWriteAccess."""

        class PushyProvider(SegmentProvider):
            def __init__(self):
                self.write_upcalls = 0

            def pull_in(self, cache, offset, size, access_mode):
                cache.fill_zero(offset, size)

            def get_write_access(self, cache, offset, size):
                self.write_upcalls += 1

            def push_out(self, cache, offset, size):
                cache.copy_back(offset, size)

            def segment_create(self, cache):
                return "pushy"

        provider = PushyProvider()
        cache = pvm.cache_create(provider)
        cache.fill_up(0, b"pushed data")           # spontaneous caching
        assert cache.read(0, 11) == b"pushed data"
        cache.write(0, b"W")
        assert provider.write_upcalls == 1

    def test_fill_up_multi_page(self, pvm, make):
        cache = make()
        data = b"\x11" * PAGE + b"\x22" * PAGE
        cache.fill_up(0, data)
        assert cache.read(0, 1) == b"\x11"
        assert cache.read(PAGE, 1) == b"\x22"
        assert len(cache.pages) == 2

    def test_copy_back_with_holes(self, pvm, make):
        cache = make()
        cache.write(PAGE, b"island")
        blob = cache.copy_back(0, 2 * PAGE)
        assert blob[:PAGE] == bytes(PAGE)
        assert blob[PAGE:PAGE + 6] == b"island"

    def test_move_back_surrenders_pages(self, pvm, make):
        cache = make()
        cache.write(0, b"gone after")
        blob = cache.move_back(0, PAGE)
        assert blob[:10] == b"gone after"
        assert 0 not in cache.pages
