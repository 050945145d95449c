"""Unit tests for both MMU ports (shared behaviour, parametrized)."""

import pytest

from repro.errors import InvalidOperation, PageFault, ProtectionViolation
from repro.hardware.inverted_mmu import InvertedMMU
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.segmented_mmu import SegmentedMMU
from repro.hardware.mmu import Prot
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture(params=[PagedMMU, InvertedMMU, SegmentedMMU],
                ids=["paged", "inverted", "segmented"])
def mmu(request):
    return request.param(page_size=PAGE)


class TestSpaces:
    def test_spaces_have_distinct_ids(self, mmu):
        a, b = mmu.create_space(), mmu.create_space()
        assert a != b

    def test_destroyed_space_rejected(self, mmu):
        space = mmu.create_space()
        mmu.destroy_space(space)
        with pytest.raises(InvalidOperation):
            mmu.map(space, 0, 0, Prot.READ)

    def test_unknown_space_rejected(self, mmu):
        with pytest.raises(InvalidOperation):
            mmu.translate(999, 0, write=False)

    def test_destroy_drops_translations(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 1, Prot.RW)
        mmu.destroy_space(space)
        space2 = mmu.create_space()
        with pytest.raises(PageFault):
            mmu.translate(space2, 0, write=False)


class TestTranslation:
    def test_unmapped_page_faults(self, mmu):
        space = mmu.create_space()
        with pytest.raises(PageFault) as exc:
            mmu.translate(space, 0x4000, write=False)
        assert exc.value.address == 0x4000

    def test_mapped_page_translates(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 3 * PAGE, 5, Prot.RW)
        paddr = mmu.translate(space, 3 * PAGE + 123, write=True)
        assert paddr == 5 * PAGE + 123

    def test_write_to_readonly_violates(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 2, Prot.READ)
        assert mmu.translate(space, 10, write=False) == 2 * PAGE + 10
        with pytest.raises(ProtectionViolation):
            mmu.translate(space, 10, write=True)

    def test_read_of_writeonly_mapping(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 2, Prot.WRITE)
        with pytest.raises(ProtectionViolation):
            mmu.translate(space, 0, write=False)

    def test_spaces_are_isolated(self, mmu):
        a, b = mmu.create_space(), mmu.create_space()
        mmu.map(a, 0, 1, Prot.RW)
        with pytest.raises(PageFault):
            mmu.translate(b, 0, write=False)


class TestMappingOps:
    def test_map_none_prot_rejected(self, mmu):
        space = mmu.create_space()
        with pytest.raises(InvalidOperation):
            mmu.map(space, 0, 0, Prot.NONE)

    def test_remap_replaces_frame(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 1, Prot.RW)
        mmu.map(space, 0, 7, Prot.RW)
        assert mmu.translate(space, 0, write=False) == 7 * PAGE

    def test_unmap(self, mmu):
        space = mmu.create_space()
        mmu.map(space, PAGE, 1, Prot.RW)
        assert mmu.unmap(space, PAGE) is True
        assert mmu.unmap(space, PAGE) is False
        with pytest.raises(PageFault):
            mmu.translate(space, PAGE, write=False)

    def test_unmap_range_counts(self, mmu):
        space = mmu.create_space()
        for i in range(4):
            mmu.map(space, i * PAGE, i, Prot.RW)
        count = mmu.unmap_range(space, 0, 3 * PAGE)
        assert count == 3
        assert mmu.lookup(space, 3 * PAGE) is not None

    def test_unmap_range_partial_pages(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 0, Prot.RW)
        mmu.map(space, PAGE, 1, Prot.RW)
        # A one-byte range ending inside page 1 still unmaps both pages.
        assert mmu.unmap_range(space, PAGE - 1, 2) == 2

    def test_protect_downgrades(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 1, Prot.RW)
        mmu.protect(space, 0, Prot.READ)
        with pytest.raises(ProtectionViolation):
            mmu.translate(space, 0, write=True)

    def test_protect_upgrade(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 1, Prot.READ)
        mmu.protect(space, 0, Prot.RW)
        assert mmu.translate(space, 0, write=True) == PAGE

    def test_protect_unmapped_rejected(self, mmu):
        space = mmu.create_space()
        with pytest.raises(InvalidOperation):
            mmu.protect(space, 0, Prot.READ)

    def test_mapped_pages_listing(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 9, Prot.READ)
        mmu.map(space, 5 * PAGE, 4, Prot.RW)
        pages = dict(mmu.mapped_pages(space))
        assert set(pages) == {0, 5}
        assert pages[5].frame == 4


class TestSparseAddressing:
    """Section 4.1: structures must not scale with address-space size."""

    def test_huge_sparse_space(self, mmu):
        space = mmu.create_space()
        # Map two pages a gigabyte apart (within every port's reach;
        # the segmented port tops out at its 4 GB descriptor limit).
        far = 1 << 30
        mmu.map(space, 0, 0, Prot.RW)
        mmu.map(space, far, 1, Prot.RW)
        assert mmu.translate(space, far + 5, write=False) == PAGE + 5
        assert len(mmu.mapped_pages(space)) == 2


class TestPortSpecifics:
    def test_paged_allocates_tables_on_demand(self):
        mmu = PagedMMU(page_size=PAGE)
        space = mmu.create_space()
        assert mmu.table_count(space) == 0
        mmu.map(space, 0, 0, Prot.RW)
        assert mmu.table_count(space) == 1
        mmu.unmap(space, 0)
        assert mmu.table_count(space) == 0

    def test_inverted_tracks_residency(self):
        mmu = InvertedMMU(page_size=PAGE)
        a, b = mmu.create_space(), mmu.create_space()
        mmu.map(a, 0, 0, Prot.RW)
        mmu.map(b, 0, 1, Prot.RW)
        assert mmu.resident_entries == 2
        mmu.destroy_space(a)
        assert mmu.resident_entries == 1

    def test_segmented_limit_check(self):
        mmu = SegmentedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.set_segment_limit(space, 4 * PAGE)
        mmu.map(space, 0, 0, Prot.RW)
        with pytest.raises(InvalidOperation):
            mmu.map(space, 4 * PAGE, 1, Prot.RW)
        with pytest.raises(PageFault):
            mmu.translate(space, 5 * PAGE, write=False)

    def test_segmented_spaces_have_distinct_linear_bases(self):
        """Virtual/linear confusion cannot hide: each space relocates."""
        mmu = SegmentedMMU(page_size=PAGE)
        a, b = mmu.create_space(), mmu.create_space()
        assert mmu.descriptor_of(a).base != mmu.descriptor_of(b).base
        mmu.map(a, 0, 3, Prot.RW)
        mmu.map(b, 0, 4, Prot.RW)
        assert mmu.translate(a, 1, write=False) == 3 * PAGE + 1
        assert mmu.translate(b, 1, write=False) == 4 * PAGE + 1

    def test_segmented_counts_descriptor_checks(self):
        mmu = SegmentedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.map(space, 0, 0, Prot.RW)
        mmu.translate(space, 0, write=False)
        assert mmu.stats.get("descriptor_check") > 0


class TestBatchOps:
    """Bulk primitives the hardware layer builds on: semantics must
    match the single-entry operations exactly, port by port."""

    def test_map_batch_matches_singles(self, mmu):
        batched = mmu.create_space()
        single = mmu.create_space()
        entries = [(index * PAGE, index + 1, Prot.RW) for index in range(6)]
        mmu.map_batch(batched, entries)
        for vaddr, frame, prot in entries:
            mmu.map(single, vaddr, frame, prot)
        for vaddr, frame, _ in entries:
            assert mmu.translate(batched, vaddr + 9, write=True) == \
                mmu.translate(single, vaddr + 9, write=True)

    def test_map_batch_rejects_none_protection(self, mmu):
        space = mmu.create_space()
        with pytest.raises(InvalidOperation):
            mmu.map_batch(space, [(0, 0, Prot.RW), (PAGE, 1, Prot.NONE)])

    def test_unmap_batch_counts_only_existing(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 0, Prot.RW)
        mmu.map(space, 2 * PAGE, 1, Prot.RW)
        dropped = mmu.unmap_batch(space, [0, PAGE, 2 * PAGE, 3 * PAGE])
        assert dropped == 2
        assert mmu.mapped_pages(space) == []

    def test_protect_batch_applies_to_every_entry(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 0, Prot.RW)
        mmu.map(space, PAGE, 1, Prot.RW)
        mmu.protect_batch(space, [(0, Prot.READ), (PAGE, Prot.READ)])
        for vaddr in (0, PAGE):
            with pytest.raises(ProtectionViolation):
                mmu.translate(space, vaddr, write=True)
            mmu.translate(space, vaddr, write=False)

    def test_protect_batch_missing_mapping_is_an_error(self, mmu):
        space = mmu.create_space()
        mmu.map(space, 0, 0, Prot.RW)
        with pytest.raises(InvalidOperation):
            mmu.protect_batch(space, [(0, Prot.READ), (PAGE, Prot.READ)])

    def test_batches_check_the_space(self, mmu):
        with pytest.raises(InvalidOperation):
            mmu.map_batch(999, [(0, 0, Prot.RW)])
        with pytest.raises(InvalidOperation):
            mmu.unmap_batch(999, [0])
        with pytest.raises(InvalidOperation):
            mmu.protect_batch(999, [(0, Prot.READ)])

    def test_space_size_hint_tracks_residency(self, mmu):
        space = mmu.create_space()
        assert mmu._space_size(space) == 0
        mmu.map_batch(space, [(index * PAGE, index, Prot.RW)
                              for index in range(4)])
        mmu.map(space, 0, 9, Prot.READ)          # a remap adds nothing
        assert mmu._space_size(space) == 4
        mmu.unmap_batch(space, [0, PAGE])
        assert mmu._space_size(space) == 2

    def test_rejected_batches_leave_the_tlb_coherent(self, mmu):
        """A call that stops at a bad entry keeps the entries before
        it, as per-entry calls would, and shoots their TLB entries down
        before raising: ``translate`` agrees with ``lookup`` after."""
        from repro.hardware.tlb import TLB
        mmu = type(mmu)(page_size=PAGE, tlb=TLB(8))
        space = mmu.create_space()
        pages = (0, PAGE)

        def warm():
            for vaddr in pages:
                mmu.translate(space, vaddr, write=True)

        def agree():
            for vaddr in pages:
                mapping = mmu.lookup(space, vaddr)
                for write in (False, True):
                    if mapping.prot.allows(write):
                        assert mmu.translate(space, vaddr, write) == \
                            mapping.frame * PAGE
                    else:
                        with pytest.raises(ProtectionViolation):
                            mmu.translate(space, vaddr, write)

        mmu.map_batch(space, [(0, 0, Prot.RW), (PAGE, 1, Prot.RW)])
        warm()
        with pytest.raises(InvalidOperation):
            mmu.protect_batch(space, [(0, Prot.READ), (2 * PAGE, Prot.READ)])
        assert mmu.lookup(space, 0).prot == Prot.READ
        agree()
        mmu.protect(space, 0, Prot.RW)
        warm()
        with pytest.raises(InvalidOperation):
            mmu.protect_range(space, 0, 3, Prot.READ)
        assert mmu.lookup(space, PAGE).prot == Prot.READ
        agree()
        mmu.protect_range(space, 0, 2, Prot.RW)
        warm()
        with pytest.raises(InvalidOperation):
            mmu.map_batch(space, [(0, 5, Prot.RW), (PAGE, 6, Prot.NONE)])
        assert mmu.lookup(space, 0).frame == 5
        assert mmu.lookup(space, PAGE).frame == 1
        agree()

    def test_unmap_range_on_huge_sparse_window(self, mmu):
        """A giant sparse invalidation walks the resident set, not the
        whole window, and still removes exactly the right pages."""
        space = mmu.create_space()
        far = 1 << 30
        mmu.map(space, 0, 0, Prot.RW)
        mmu.map(space, far, 1, Prot.RW)
        mmu.map(space, far + 3 * PAGE, 2, Prot.RW)
        dropped = mmu.unmap_range(space, 0, far + PAGE)
        assert dropped == 2
        assert [vpn for vpn, _ in mmu.mapped_pages(space)] == \
            [(far + 3 * PAGE) // PAGE]

    def test_batch_unmap_invalidates_the_tlb(self):
        from repro.hardware.tlb import TLB
        mmu = PagedMMU(page_size=PAGE, tlb=TLB(16))
        space = mmu.create_space()
        mmu.map(space, 0, 7, Prot.RW)
        mmu.translate(space, 0, write=False)      # prime the TLB
        mmu.unmap_batch(space, [0])
        with pytest.raises(PageFault):
            mmu.translate(space, 0, write=False)

    def test_segmented_map_batch_enforces_the_limit(self):
        mmu = SegmentedMMU(page_size=PAGE)
        space = mmu.create_space()
        mmu.set_segment_limit(space, 2 * PAGE)
        with pytest.raises(InvalidOperation):
            mmu.map_batch(space, [(0, 0, Prot.RW), (2 * PAGE, 1, Prot.RW)])
