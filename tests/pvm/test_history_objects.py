"""History-object behaviour beyond the Figure 3 walkthroughs:
copy-on-reference, copies into existing segments (4.2.4), deletion
semantics (4.2.2), windowed copies and the collapse GC."""

import pytest

from repro.errors import InvalidOperation
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
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


class TestCopyOnReference:
    def test_read_materializes_private_copy(self, pvm, make):
        src = make("src", fill=10)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY,
                 on_reference=True)
        assert dst.read(0, 4) == bytes([10] * 4)
        # Unlike COW, the read allocated a private frame in dst.
        assert 0 in dst.pages
        assert dst.pages[0].frame != src.pages[0].frame

    def test_mapped_read_materializes(self, pvm, make):
        src = make("src", fill=20)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY,
                 on_reference=True)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=dst, offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == bytes([20, 20])
        assert 0 in dst.pages

    def test_cow_read_shares_instead(self, pvm, make):
        src = make("src", fill=30)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 1) == bytes([30])
        assert 0 not in dst.pages

    def test_source_write_still_preserved(self, pvm, make):
        src = make("src", fill=40)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY,
                 on_reference=True)
        src.write(0, b"changed")
        assert dst.read(0, 2) == bytes([40, 40])


class TestCopyIntoExisting:
    def test_overwrites_existing_data(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst", fill=100)
        src.copy(0, dst, PAGE, 2 * PAGE, policy=CopyPolicy.HISTORY)
        # dst page 0 untouched; pages 1-2 now read from src.
        assert dst.read(0, 2) == bytes([100, 100])
        assert dst.read(PAGE, 2) == bytes([1, 1])
        assert dst.read(2 * PAGE, 2) == bytes([2, 2])
        assert dst.read(3 * PAGE, 2) == bytes([103, 103])

    def test_fragments_with_different_parents(self, pvm, make):
        """4.2.4: individual fragments may have different parents."""
        a = make("a", fill=1)
        b = make("b", fill=50)
        dst = make("dst")
        a.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        b.copy(0, dst, PAGE, PAGE, policy=CopyPolicy.HISTORY)
        assert len(dst.parents) == 2
        assert dst.read(0, 1) == bytes([1])
        assert dst.read(PAGE, 1) == bytes([50])

    def test_copy_replaces_earlier_copy_fragment(self, pvm, make):
        a = make("a", fill=1)
        b = make("b", fill=60)
        dst = make("dst")
        a.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        b.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 1) == bytes([60])
        assert dst.read(PAGE, 1) == bytes([2])

    def test_partial_overlap_splits_fragment(self, pvm, make):
        a = make("a", fill=1)
        b = make("b", fill=70)
        dst = make("dst")
        a.copy(0, dst, 0, 4 * PAGE, policy=CopyPolicy.HISTORY)
        b.copy(0, dst, PAGE, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 1) == bytes([1])         # still from a
        assert dst.read(PAGE, 1) == bytes([70])     # from b
        assert dst.read(2 * PAGE, 1) == bytes([71])
        assert dst.read(3 * PAGE, 1) == bytes([4])  # from a, shifted payload

    def test_overwritten_destination_owes_history_its_preimage(self, pvm,
                                                               make):
        """If dst was itself a copy source, its history descendant must
        get the pre-copy values before the new copy lands."""
        src = make("src", fill=1)
        dst = make("dst", fill=200, pages=2)
        child = make("child")
        dst.copy(0, child, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        # child still sees dst's pre-copy content.
        assert child.read(0, 2) == bytes([200, 200])
        assert child.read(PAGE, 2) == bytes([201, 201])
        # dst itself now reads from src.
        assert dst.read(0, 2) == bytes([1, 1])


class TestWindowedCopy:
    def test_copy_with_offset_shift(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(2 * PAGE, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        assert dst.read(0, 1) == bytes([3])
        assert dst.read(PAGE, 1) == bytes([4])

    def test_write_in_shifted_window_preserves(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(2 * PAGE, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.write(2 * PAGE, b"overwritten")
        assert dst.read(0, 1) == bytes([3])


class TestDeletionSemantics:
    def test_copy_deleted_first_simply_discards(self, pvm, make):
        """The normal Unix case: the child (copy) exits first."""
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        dst.destroy()
        assert dst.destroyed
        assert not src.guards            # guards to the dead history dropped
        src.write(0, b"free again")      # no pre-image push needed
        assert len(src.children) == 0

    def test_source_deleted_first_keeps_data(self, pvm, make):
        """Parent exits while child continues: remaining unmodified
        source data is kept until the copy is deleted (4.2.2)."""
        src = make("src", fill=7)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.destroy()
        assert src.dead and not src.destroyed
        assert dst.read(0, 2) == bytes([7, 7])
        dst.destroy()
        # Now the dead source is reaped too.
        assert src.destroyed

    def test_dead_chain_cascades(self, pvm, make):
        src = make("src", fill=1)
        mid = make("mid")
        leaf = make("leaf")
        src.copy(0, mid, 0, PAGE, policy=CopyPolicy.HISTORY)
        mid.copy(0, leaf, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.destroy()
        mid.destroy()
        assert src.dead and mid.dead
        assert leaf.read(0, 1) == bytes([1])
        leaf.destroy()
        assert mid.destroyed and src.destroyed

    def test_working_object_reaped_with_last_copy(self, pvm, make):
        src = make("src", fill=1)
        cpy1 = make("cpy1")
        cpy2 = make("cpy2")
        src.copy(0, cpy1, 0, PAGE, policy=CopyPolicy.HISTORY)
        src.copy(0, cpy2, 0, PAGE, policy=CopyPolicy.HISTORY)
        working = src.history
        cpy1.destroy()
        assert not working.destroyed
        cpy2.destroy()
        # Working object loses both children; it is dead (it was
        # created unilaterally and its source still guards into it) —
        # the guards are dropped when it is released.
        assert working.children == set()


class TestCyclePrevention:
    def test_copy_back_to_ancestor_degrades_to_eager(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        dst.write(0, b"child result")
        # Copying child data back into the parent must not build a cycle.
        dst.copy(0, src, 0, PAGE, policy=CopyPolicy.HISTORY)
        assert src.read(0, 12) == b"child result"
        assert dst.parents.get(0) is not None      # original link intact
        assert src.read(PAGE, 1) == bytes([2])

    def test_self_copy_rejected_for_history(self, pvm, make):
        src = make("src", fill=1)
        with pytest.raises(InvalidOperation):
            src.copy(0, src, 2 * PAGE, PAGE, policy=CopyPolicy.HISTORY)

    def test_self_copy_auto_uses_eager(self, pvm, make):
        src = make("src", fill=1)
        src.copy(0, src, 2 * PAGE, PAGE, policy=CopyPolicy.AUTO)
        assert src.read(2 * PAGE, 1) == bytes([1])


class TestAlignmentRules:
    def test_unaligned_history_copy_rejected(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        with pytest.raises(InvalidOperation):
            src.copy(100, dst, 0, PAGE, policy=CopyPolicy.HISTORY)

    def test_auto_falls_back_to_eager_when_unaligned(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(100, dst, 52, 1000, policy=CopyPolicy.AUTO)
        assert dst.read(52, 5) == bytes([1] * 5)

    def test_zero_size_copy_rejected(self, pvm, make):
        src = make("src")
        dst = make("dst")
        with pytest.raises(InvalidOperation):
            src.copy(0, dst, 0, 0)


class TestCollapseGC:
    def test_collapse_merges_dead_parent(self, pvm, make):
        src = make("src", fill=1, pages=2)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.destroy()
        assert src.dead
        moved = pvm.collapse_history(dst)
        assert moved == 2
        assert src.destroyed
        assert dst.read(0, 1) == bytes([1])
        assert dst.read(PAGE, 1) == bytes([2])
        assert len(dst.parents) == 0

    def test_collapse_preserves_modified_pages(self, pvm, make):
        src = make("src", fill=1, pages=2)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        dst.write(0, b"mine")
        src.destroy()
        pvm.collapse_history(dst)
        assert dst.read(0, 4) == b"mine"
        assert dst.read(PAGE, 1) == bytes([2])

    def test_collapse_keeps_a_dead_parents_per_page_copy(self, pvm, make):
        """The dead parent holds a copy only as a per-page stub: the
        merge must carry that content down, not drop it."""
        origin = make("origin", fill=7, pages=1)
        middle = make("middle")
        origin.copy(0, middle, 0, PAGE, policy=CopyPolicy.PER_PAGE)
        dst = make("dst")
        middle.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        middle.destroy()
        assert pvm.collapse_history(dst) == 1
        assert middle.destroyed
        assert dst.read(0, 4) == bytes([7]) * 4
        origin.write(0, b"later")
        assert dst.read(0, 4) == bytes([7]) * 4

    def test_collapse_skips_live_parent(self, pvm, make):
        src = make("src", fill=1)
        dst = make("dst")
        src.copy(0, dst, 0, PAGE, policy=CopyPolicy.HISTORY)
        assert pvm.collapse_history(dst) == 0
        assert not src.destroyed

    def test_collapse_chain_of_dead_nodes(self, pvm, make):
        """fork/exit chains (the paper's exceptional case) fold flat."""
        caches = [make("gen0", fill=1, pages=1)]
        for generation in range(1, 4):
            child = make(f"gen{generation}")
            caches[-1].copy(0, child, 0, PAGE, policy=CopyPolicy.HISTORY)
            child.write(0, bytes([generation]) * 4)
            caches[-1].destroy()
            caches.append(child)
        survivor = caches[-1]
        pvm.collapse_history(survivor)
        assert all(cache.destroyed for cache in caches[:-1])
        assert survivor.read(0, 4) == bytes([3]) * 4

    def test_event_counter_for_merge(self, pvm, make):
        src = make("src", fill=1, pages=2)
        dst = make("dst")
        src.copy(0, dst, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        src.destroy()
        pvm.collapse_history(dst)
        assert pvm.clock.count(CostEvent.HISTORY_MERGE_PAGE) == 2
