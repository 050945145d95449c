"""GMI value types: protections, access modes, status records."""

import pytest

from repro.gmi.types import AccessMode, CacheStatistics, Protection, \
    RegionStatus
from repro.cache.provider import SegmentProvider, ZeroFillProvider
from repro.hardware.mmu import Prot


class TestProtection:
    def test_hardware_projection(self):
        assert Protection.RW.to_hardware() == Prot.RW
        assert Protection.RX.to_hardware() == Prot.RX
        assert Protection.NONE.to_hardware() == Prot.NONE

    def test_system_bit_projected_to_pte(self):
        """The privilege level reaches the hardware PTE, so mapped
        pages trap user-mode access without a kernel check."""
        prot = Protection.READ | Protection.SYSTEM
        assert prot.to_hardware() == Prot.READ | Prot.SYSTEM

    def test_allows_write(self):
        assert Protection.RW.allows(write=True)
        assert not Protection.READ.allows(write=True)

    def test_allows_read_via_execute(self):
        """Execute implies fetch: an RX region is readable."""
        assert Protection.RX.allows(write=False)
        assert (Protection.EXECUTE).allows(write=False)

    def test_none_allows_nothing(self):
        assert not Protection.NONE.allows(write=False)
        assert not Protection.NONE.allows(write=True)

    def test_flag_composition(self):
        combined = Protection.READ | Protection.WRITE | Protection.SYSTEM
        assert combined & Protection.SYSTEM
        assert combined.to_hardware() == Prot.RW | Prot.SYSTEM


class TestAccessMode:
    def test_writable_property(self):
        assert AccessMode.WRITE.writable
        assert not AccessMode.READ.writable


class TestRegionStatus:
    def test_end_computed(self):
        status = RegionStatus(address=0x1000, size=0x2000,
                              protection=Protection.RW, cache=None,
                              offset=0, locked=False, resident_pages=0)
        assert status.end == 0x3000


class TestCacheStatistics:
    def test_defaults_zero(self):
        stats = CacheStatistics()
        assert stats.pull_ins == 0
        assert stats.push_outs == 0
        assert stats.copy_faults == 0


class TestProviderDefaults:
    def test_base_provider_abstract_methods(self):
        provider = SegmentProvider()
        with pytest.raises(NotImplementedError):
            provider.pull_in(None, 0, 0, AccessMode.READ)
        with pytest.raises(NotImplementedError):
            provider.push_out(None, 0, 0)
        # get_write_access defaults to a silent grant.
        provider.get_write_access(None, 0, 0)

    def test_zero_fill_provider_segment_ids_unique(self):
        provider = ZeroFillProvider()
        first = provider.segment_create(object())
        second = provider.segment_create(object())
        assert first != second
