"""The paper's Figure 3 scenarios, reproduced step by step.

Each test drives exactly the copy/write sequence of one sub-figure and
asserts both the tree *shape* (parents, guards, children, working
objects) and the page *placement and values* the figure shows.
"""

import pytest

from repro.gmi.interface import CopyPolicy
from repro.cache.provider import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB


def page_value(tag, prime=0):
    """A full page holding a recognisable value; 2' is page 2 rewritten."""
    return bytes([tag, prime]) * (PAGE // 2)


@pytest.fixture
def rig(pvm):
    def make(name):
        return pvm.cache_create(ZeroFillProvider(), name=name)
    src = make("src")
    for page in range(4):
        src.write(page * PAGE, page_value(page + 1))
    return pvm, make, src


def hist_copy(src, dst, pages=3):
    src.copy(0, dst, 0, pages * PAGE, policy=CopyPolicy.HISTORY)


class TestFigure3a:
    """cpy1 is a COW of pages 1-3 of src; page 2 updated in src,
    page 3 updated in cpy1."""

    def test_tree_shape(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        # cpy1 is src's single descendant and its history object.
        assert src.history is cpy1
        assert src.children == {cpy1}
        assert cpy1.ancestry(0) == [src]

    def test_page_placement_and_values(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        src.write(1 * PAGE, page_value(2, prime=1))    # 2'
        cpy1.write(2 * PAGE, page_value(3, prime=1))   # 3'
        # src holds 1, 2', 3 ; cpy1 holds 2 (original), 3'.
        assert src.read(0, PAGE) == page_value(1)
        assert src.read(PAGE, PAGE) == page_value(2, 1)
        assert src.read(2 * PAGE, PAGE) == page_value(3)
        assert sorted(cpy1.pages) == [PAGE, 2 * PAGE]
        assert cpy1.read(PAGE, PAGE) == page_value(2)       # original 2
        assert cpy1.read(2 * PAGE, PAGE) == page_value(3, 1)

    def test_cache_miss_resolved_in_src(self, rig):
        """A miss on page 1 in cpy1 resolves by looking it up in src."""
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        assert cpy1.read(0, PAGE) == page_value(1)
        # No private frame was allocated: the value came from src.
        assert 0 not in cpy1.pages

    def test_source_pages_protected_read_only(self, rig):
        """Grey frames in the figure: hardware-protected read-only."""
        from repro.gmi.types import Protection
        from repro.hardware.mmu import Prot
        pvm, make, src = rig
        ctx = pvm.context_create()
        region = ctx.region_create(0x40000, 3 * PAGE, protection=Protection.RW,
                                   cache=src, offset=0)
        pvm.user_read(ctx, 0x40000, 1)     # map page 1
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        mapping = pvm.mmu.lookup(ctx.space, 0x40000)
        assert mapping is not None
        assert not (mapping.prot & Prot.WRITE)

    def test_write_violation_in_source_mapped(self, rig):
        """Mapped write to a protected src page pushes the original to
        the history object and re-enables writing."""
        from repro.gmi.types import Protection
        pvm, make, src = rig
        ctx = pvm.context_create()
        ctx.region_create(0x40000, 3 * PAGE, protection=Protection.RW,
                          cache=src, offset=0)
        pvm.user_read(ctx, 0x40000 + PAGE, 1)
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        pvm.user_write(ctx, 0x40000 + PAGE, b"via mapping")
        assert cpy1.read(PAGE, PAGE) == page_value(2)
        assert pvm.user_read(ctx, 0x40000 + PAGE, 11) == b"via mapping"

    def test_second_write_to_same_page_no_second_push(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        src.write(PAGE, b"first")
        frame_after_first = cpy1.pages[PAGE].frame
        src.write(PAGE, b"second")
        assert cpy1.pages[PAGE].frame == frame_after_first
        assert cpy1.read(PAGE, PAGE) == page_value(2)


class TestFigure3b:
    """src pages 1-3 copied to cpy1; src page 2 modified; cpy1 copied
    to copyOfCpy1; cpy1 page 3 modified: both src and copyOfCpy1 get a
    frame with the original value."""

    def test_chain_shape(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        copy_of_cpy1 = make("copyOfCpy1")
        hist_copy(cpy1, copy_of_cpy1)
        assert cpy1.history is copy_of_cpy1
        assert cpy1.children == {copy_of_cpy1}
        assert copy_of_cpy1.ancestry(0) == [cpy1, src]

    def test_both_get_original_on_middle_write(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        src.write(PAGE, page_value(2, 1))              # 2' in src
        copy_of_cpy1 = make("copyOfCpy1")
        hist_copy(cpy1, copy_of_cpy1)
        cpy1.write(2 * PAGE, page_value(3, 1))         # 3' in cpy1
        # Both src and copyOfCpy1 keep the original page 3.
        assert src.read(2 * PAGE, PAGE) == page_value(3)
        assert copy_of_cpy1.read(2 * PAGE, PAGE) == page_value(3)
        assert cpy1.read(2 * PAGE, PAGE) == page_value(3, 1)
        # copyOfCpy1 holds its own frame for page 3 (4.2.3's rule).
        assert 2 * PAGE in copy_of_cpy1.pages

    def test_reads_through_two_levels(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        hist_copy(src, cpy1)
        src.write(PAGE, page_value(2, 1))
        copy_of_cpy1 = make("copyOfCpy1")
        hist_copy(cpy1, copy_of_cpy1)
        # Page 1 of both copies read from src.
        assert cpy1.read(0, PAGE) == page_value(1)
        assert copy_of_cpy1.read(0, PAGE) == page_value(1)
        # Page 2 of copyOfCpy1 read from cpy1 (the pre-2' original).
        assert copy_of_cpy1.read(PAGE, PAGE) == page_value(2)


class TestFigure3c:
    """Pages 1-4 of src copied twice (cpy1, cpy2): a working object w1
    is created and inserted; then page 3 of src, page 3 of cpy1 and
    page 4 of cpy2 are modified."""

    def build(self, rig):
        pvm, make, src = rig
        cpy1 = make("cpy1")
        src.copy(0, cpy1, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
        cpy2 = make("cpy2")
        src.copy(0, cpy2, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
        return pvm, src, cpy1, cpy2

    def test_working_object_inserted(self, rig):
        pvm, src, cpy1, cpy2 = self.build(rig)
        w1 = src.history
        assert w1 is not None and w1.is_history
        assert w1 is not cpy1 and w1 is not cpy2
        # Shape invariant: binary tree, one descendant per source.
        assert src.children == {w1}
        assert w1.children == {cpy1, cpy2}
        assert cpy1.ancestry(0) == [w1, src]
        assert cpy2.ancestry(0) == [w1, src]

    def test_declared_via_segment_create(self, rig):
        """The MM declares unilaterally-created caches upward (3.3.3)."""
        pvm, src, cpy1, cpy2 = self.build(rig)
        assert src.history.segment is not None

    def test_modifications(self, rig):
        pvm, src, cpy1, cpy2 = self.build(rig)
        w1 = src.history
        src.write(2 * PAGE, page_value(3, 1))
        cpy1.write(2 * PAGE, page_value(3, 2))
        cpy2.write(3 * PAGE, page_value(4, 1))
        # Original page 3 landed in w1; both copies resolve correctly.
        assert 2 * PAGE in w1.pages
        assert cpy2.read(2 * PAGE, PAGE) == page_value(3)
        assert cpy1.read(2 * PAGE, PAGE) == page_value(3, 2)
        assert src.read(2 * PAGE, PAGE) == page_value(3, 1)
        # Page 4: cpy2 private, cpy1 and src still original.
        assert cpy2.read(3 * PAGE, PAGE) == page_value(4, 1)
        assert cpy1.read(3 * PAGE, PAGE) == page_value(4)
        assert src.read(3 * PAGE, PAGE) == page_value(4)
        # Misses on page 1 resolved in src through w1.
        assert cpy1.read(0, PAGE) == page_value(1)
        assert cpy2.read(0, PAGE) == page_value(1)


class TestFigure3d:
    """src copied three times: two working objects stacked."""

    def test_two_working_objects(self, rig):
        pvm, make, src = rig
        copies = []
        for index in range(3):
            copy = make(f"cpy{index + 1}")
            src.copy(0, copy, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
            copies.append(copy)
        w2 = src.history
        assert w2.is_history
        assert src.children == {w2}
        # w2's children: the third copy and the first working object.
        children_names = {child.name for child in w2.children}
        assert copies[2].name in children_names
        w1 = next(child for child in w2.children if child.is_history)
        assert w1.children == {copies[0], copies[1]}
        # Full chains: cpy1 -> w1 -> w2 -> src.
        assert copies[0].ancestry(0) == [w1, w2, src]
        assert copies[2].ancestry(0) == [w2, src]

    def test_values_after_source_write(self, rig):
        pvm, make, src = rig
        copies = []
        for index in range(3):
            copy = make(f"cpy{index + 1}")
            src.copy(0, copy, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
            copies.append(copy)
        src.write(0, page_value(1, 9))
        for copy in copies:
            assert copy.read(0, PAGE) == page_value(1)
        assert src.read(0, PAGE) == page_value(1, 9)
