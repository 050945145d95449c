"""Unit tests for the TLB model and its integration with the MMU."""

import pytest

from repro.errors import PageFault, ProtectionViolation
from repro.hardware.mmu import Mapping, Prot
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.tlb import TLB
from repro.units import KB

PAGE = 8 * KB


class TestTLBStandalone:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert tlb.probe(1, 0) is None
        tlb.fill(1, 0, Mapping(7, Prot.RW))
        hit = tlb.probe(1, 0)
        assert hit is not None and hit.frame == 7
        assert tlb.stats.get("hit") == 1
        assert tlb.stats.get("miss") == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.fill(1, 0, Mapping(0, Prot.READ))
        tlb.fill(1, 1, Mapping(1, Prot.READ))
        tlb.probe(1, 0)                      # page 0 now most recent
        tlb.fill(1, 2, Mapping(2, Prot.READ))  # evicts page 1
        assert tlb.probe(1, 1) is None
        assert tlb.probe(1, 0) is not None

    def test_invalidate(self):
        tlb = TLB(entries=4)
        tlb.fill(1, 0, Mapping(0, Prot.READ))
        tlb.invalidate(1, 0)
        assert tlb.probe(1, 0) is None

    def test_flush_space_is_selective(self):
        tlb = TLB(entries=8)
        tlb.fill(1, 0, Mapping(0, Prot.READ))
        tlb.fill(2, 0, Mapping(1, Prot.READ))
        tlb.flush_space(1)
        assert tlb.probe(1, 0) is None
        assert tlb.probe(2, 0) is not None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TLB(entries=0)

    def test_hit_rate(self):
        tlb = TLB(entries=4)
        tlb.probe(1, 0)
        tlb.fill(1, 0, Mapping(0, Prot.READ))
        tlb.probe(1, 0)
        assert tlb.hit_rate() == pytest.approx(0.5)


class TestRetireRun:
    """The bulk TLB leg of a hit run (tests/property/
    test_tlb_retire_run.py checks it against the scalar loop)."""

    def test_thrashing_run_walks_at_most_capacity_times(self):
        # Cycling over one page more than the TLB holds misses on
        # every access, yet only the final entries are walked.
        tlb = TLB(entries=64)
        walks = []

        def walk(vpn):
            walks.append(vpn)
            return Mapping(vpn, Prot.RW)

        run = [index % 65 for index in range(16_384)]
        assert tlb.retire_run(1, run, walk) == 16_384
        assert len(walks) <= 64
        assert tlb.stats.get("miss") == 16_384
        assert tlb.stats.get("evict") == 16_384 - 64
        assert tlb.occupancy == 64
        assert list(tlb._entries) == [(1, vpn) for vpn in run[-64:]]

    def test_hit_only_entries_keep_their_mapping(self):
        tlb = TLB(entries=2)
        old = Mapping(7, Prot.READ)
        tlb.fill(1, 0, old)
        assert tlb.retire_run(1, [0, 1, 0], lambda vpn: Mapping(9, Prot.RW)) \
            == 1
        assert tlb._entries[(1, 0)][0] is old
        assert tlb._entries[(1, 1)][0] == Mapping(9, Prot.RW)

    def test_eviction_sheds_the_stale_entries_ahead_of_it(self):
        # [stale, a, b] and one miss: the scalar loop pops the stale
        # entry on its way to evicting a, and keeps b.
        tlb = TLB(entries=2)
        tlb.fill(2, 0, Mapping(0, Prot.READ))
        tlb.flush_space(2)
        tlb.fill(1, 0, Mapping(1, Prot.READ))
        tlb.fill(1, 1, Mapping(2, Prot.READ))
        assert tlb.retire_run(1, [5], lambda vpn: Mapping(vpn, Prot.RW)) \
            == 1
        assert list(tlb._entries) == [(1, 1), (1, 5)]
        assert tlb.stats.get("evict") == 1


class TestTLBWithMMU:
    @pytest.fixture
    def rig(self):
        tlb = TLB(entries=4)
        mmu = PagedMMU(page_size=PAGE, tlb=tlb)
        space = mmu.create_space()
        return mmu, tlb, space

    def test_translate_fills_tlb(self, rig):
        mmu, tlb, space = rig
        mmu.map(space, 0, 3, Prot.RW)
        mmu.translate(space, 0, write=False)      # miss, fill
        mmu.translate(space, 10, write=False)     # hit
        assert tlb.stats.get("hit") == 1

    def test_protect_shoots_down_stale_entry(self, rig):
        """A stale TLB entry must never let a write bypass a downgrade."""
        mmu, tlb, space = rig
        mmu.map(space, 0, 3, Prot.RW)
        mmu.translate(space, 0, write=True)       # cached as RW
        mmu.protect(space, 0, Prot.READ)
        with pytest.raises(ProtectionViolation):
            mmu.translate(space, 0, write=True)

    def test_unmap_shoots_down(self, rig):
        mmu, tlb, space = rig
        mmu.map(space, 0, 3, Prot.RW)
        mmu.translate(space, 0, write=False)
        mmu.unmap(space, 0)
        with pytest.raises(PageFault):
            mmu.translate(space, 0, write=False)

    def test_destroy_space_flushes(self, rig):
        mmu, tlb, space = rig
        mmu.map(space, 0, 3, Prot.RW)
        mmu.translate(space, 0, write=False)
        mmu.destroy_space(space)
        assert tlb.occupancy == 0
