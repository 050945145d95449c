"""Mapping-coherence regressions (found by the hypothesis model).

Read mappings may present an *ancestor's* frame on a copy cache's
behalf; whenever the copy gains its own version — COW materialization,
stub resolution, copy-over, move — every translation serving that
(cache, offset) must be shot down, in every context, or stale bytes
stay visible through the old frame.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
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


class TestCowResolutionShootdown:
    def test_second_context_sees_private_copy(self, pvm, make):
        """ctx B's read mapping (ancestor frame) must not survive the
        copy's COW materialization triggered from ctx A."""
        src = make("src", fill=9)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        a = pvm.context_create("a")
        b = pvm.context_create("b")
        a.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                        offset=0)
        b.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                        offset=0)
        # Both contexts read: both map src's frame read-only.
        assert pvm.user_read(a, 0x40000, 2) == bytes([9, 9])
        assert pvm.user_read(b, 0x40000, 2) == bytes([9, 9])
        # A writes: dst materializes a private page.
        pvm.user_write(a, 0x40000, b"private!")
        # B must see the new content, not src's stale frame.
        assert pvm.user_read(b, 0x40000, 8) == b"private!"
        assert src.read(0, 2) == bytes([9, 9])

    def test_explicit_write_invalidates_mapped_readers(self, pvm, make):
        """COW resolution via cache.write (no mapping involved) must
        still invalidate mapped readers of the copy."""
        src = make("src", fill=5)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([5, 5])
        dst.write(0, b"via explicit write")
        assert pvm.user_read(ctx, 0x40000, 18) == b"via explicit write"

    def test_stub_resolution_invalidates_readers(self, pvm, make):
        src = make("src", fill=7)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([7, 7])
        dst.write(0, b"resolved")              # stub -> private page
        assert pvm.user_read(ctx, 0x40000, 8) == b"resolved"


class TestCopyOverShootdown:
    def test_mapped_reader_sees_new_parent_after_copy_over(self, pvm,
                                                           make):
        """Re-copying over a mapped destination must invalidate the
        mapping that presented the OLD parent's frame."""
        old = make("old", fill=1)
        new = make("new", fill=50)
        dst = make("dst")
        old.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([1, 1])
        new.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([50, 50])

    def test_mapped_reader_sees_moved_content(self, pvm, make):
        source = make("source", fill=30)
        dst = make("dst", fill=1)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=dst,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([1, 1])
        source.move(0, dst, 0, PAGE)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([30, 30])


class TestDetachedStubStaleness:
    def test_stub_detached_then_source_overwritten_by_copy(self, pvm,
                                                           make):
        """A stub detached to (cache, offset) pins the copy-time value
        even if that offset later becomes a copy destination."""
        origin = make("origin")                # never resident at page 3
        holder = make("holder")
        origin.copy(2 * PAGE, holder, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        replacement = make("replacement", fill=80)
        replacement.copy(0, origin, 2 * PAGE, PAGE,
                         policy=CopyPolicy.HISTORY)
        # holder still reflects origin's value at copy time (zeroes).
        assert holder.read(0, 4) == bytes(4)
        assert origin.read(2 * PAGE, 2) == bytes([80, 80])

    def test_stub_detached_then_source_pulled_and_written(self, pvm,
                                                          make):
        src = make("src")
        src.write(0, b"snapshot")
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        src.flush(0, PAGE)                     # stub detaches to (src, 0)
        src.write(0, b"mutated!")              # pull-back re-threads
        assert dst.read(0, 8) == b"snapshot"
        assert src.read(0, 8) == b"mutated!"
