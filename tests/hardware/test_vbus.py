"""Unit tests for the vectorized access path (repro.hardware.vbus).

The observational-equivalence property lives in
tests/property/test_vbus_parity.py; these tests pin the seams — input
validation, the numpy/python engine gate, space segmentation, the
classification-cache invalidation after a fault, supervisor
protection, and the dense-table bail-out to the fallback engine.
"""

import pytest

from repro.errors import InvalidOperation, ProtectionViolation
from repro.fastpath import numpy_available
from repro.hardware.bus import MemoryBus
from repro.hardware.mmu import MMU, Prot
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.physmem import PhysicalMemory
from repro.hardware.tlb import TLB
from repro.hardware.vbus import MAX_DENSE_PAGES, VectorBus
from repro.units import KB

PAGE = 8 * KB

ENGINES = [pytest.param(False, id="python")]
if numpy_available():
    ENGINES.insert(0, pytest.param(True, id="numpy"))


@pytest.fixture
def rig():
    mem = PhysicalMemory(size=256 * KB, page_size=PAGE)
    mmu = PagedMMU(page_size=PAGE, tlb=TLB(entries=4))
    bus = MemoryBus(mem, mmu)
    space = mmu.create_space()
    return mem, mmu, bus, space


def _map_pages(mem, mmu, space, count, prot=Prot.RW, base_vpn=0):
    frames = []
    for index in range(count):
        frame = mem.allocate_frame(zero=True)
        mmu.map(space, (base_vpn + index) * PAGE, frame, prot)
        frames.append(frame)
    return frames


class TestValidation:
    def test_column_length_mismatch_rejected(self, rig):
        _, _, bus, space = rig
        vbus = VectorBus(bus)
        with pytest.raises(InvalidOperation, match="length mismatch"):
            vbus.replay(space, [0, 1, 2], b"\x00\x01")
        with pytest.raises(InvalidOperation, match="length mismatch"):
            vbus.replay(space, [0, 1], b"\x00\x01", spaces=[space])

    def test_empty_trace_is_a_noop(self, rig):
        _, _, bus, space = rig
        vbus = VectorBus(bus)
        assert vbus.replay(space, [], b"") == 0
        assert vbus.stats.get("replays") == 1
        assert vbus.stats.get("fast") == 0

    def test_peekless_mmu_port_rejected(self, rig):
        mem, _, _, _ = rig

        class NoPeekMMU(PagedMMU):
            peek = MMU.peek

        bus = MemoryBus(mem, NoPeekMMU(page_size=PAGE))
        with pytest.raises(InvalidOperation, match="peek"):
            VectorBus(bus)

    def test_port_without_walk_stats_rejected(self, rig):
        mem, _, _, _ = rig

        class NoStatsMMU(PagedMMU):
            walk_stats_mapped = None

        bus = MemoryBus(mem, NoStatsMMU(page_size=PAGE))
        with pytest.raises(InvalidOperation, match="walk_stats_mapped"):
            VectorBus(bus)

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_negative_page_index_rejected(self, rig):
        _, mmu, bus, space = rig
        _map_pages(rig[0], mmu, space, 1)
        vbus = VectorBus(bus, use_numpy=True)
        with pytest.raises(InvalidOperation, match="negative"):
            vbus.replay(space, [0, -3], b"\x00\x00")


class TestEngineGate:
    def test_backend_reports_the_engine(self, rig):
        _, _, bus, _ = rig
        assert VectorBus(bus, use_numpy=False).backend == "python"
        if numpy_available():
            assert VectorBus(bus, use_numpy=True).backend == "numpy"

    def test_of_makes_one_vector_bus_per_engine(self, rig):
        _, _, bus, _ = rig
        python = VectorBus.of(bus, use_numpy=False)
        assert VectorBus.of(bus, use_numpy=False) is python
        assert python.backend == "python"
        if numpy_available():
            numpy = VectorBus.of(bus, use_numpy=True)
            assert numpy is not python and numpy.backend == "numpy"

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_sparse_trace_defers_to_the_fallback(self, rig):
        # A page span wider than the dense-table budget makes the
        # numpy engine bail (return None) and the shared _segment
        # driver finish the job on the dict-cached engine.
        mem, mmu, bus, space = rig
        _map_pages(mem, mmu, space, 1)
        far = MAX_DENSE_PAGES + 7
        _map_pages(mem, mmu, space, 1, base_vpn=far)
        vbus = VectorBus(bus, use_numpy=True)
        pages = [0, far, 0]
        assert vbus._segment_numpy(space, pages, b"\x00\x00\x00",
                                   0, 3, 0, False, b"\x01") is None
        assert vbus.replay(space, pages, b"\x00\x00\x00") == 3
        assert vbus.stats.get("fast") == 3
        assert vbus.stats.get("fallback") == 0


class TestRetirement:
    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_hits_retire_in_bulk(self, rig, use_numpy):
        mem, mmu, bus, space = rig
        frames = _map_pages(mem, mmu, space, 3)
        vbus = VectorBus(bus, use_numpy=use_numpy)
        done = vbus.replay(space, [0, 1, 2, 1, 0], b"\x01\x00\x01\x00\x00")
        assert done == 5
        assert vbus.stats.get("replays") == 1
        assert vbus.stats.get("fast") == 5
        assert vbus.stats.get("fallback") == 0
        assert bus.stats.get("reads") == 3
        assert bus.stats.get("writes") == 2
        assert mem.read_frame(frames[0])[0] == 1
        assert mem.read_frame(frames[2])[0] == 1
        assert mem.read_frame(frames[1])[0] == 0

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_faults_fall_through_in_trace_order(self, rig, use_numpy):
        mem, mmu, bus, space = rig
        faulted = []

        def handler(fault):
            faulted.append(fault.address // PAGE)
            frame = mem.allocate_frame(zero=True)
            mmu.map(space, fault.address - fault.address % PAGE,
                    frame, Prot.RW)

        bus.install_fault_handler(handler)
        vbus = VectorBus(bus, use_numpy=use_numpy)
        done = vbus.replay(space, [2, 0, 2, 1, 0], b"\x01" * 5)
        assert done == 5
        assert faulted == [2, 0, 1]
        assert vbus.stats.get("fallback") == 3
        assert vbus.stats.get("fast") == 2

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_classification_cache_dropped_after_fault(self, rig,
                                                      use_numpy):
        # Page 0 starts read-only; the handler upgrades it on the
        # protection fault.  The later write must see the *new*
        # protection, which only works if the fallback invalidated
        # the classification cache.
        mem, mmu, bus, space = rig
        frames = _map_pages(mem, mmu, space, 1, prot=Prot.READ)
        upgrades = []

        def handler(fault):
            upgrades.append(fault.protection_violation)
            mmu.protect(space, 0, Prot.RW)

        bus.install_fault_handler(handler)
        vbus = VectorBus(bus, use_numpy=use_numpy)
        done = vbus.replay(space, [0, 0, 0], b"\x00\x01\x01")
        assert done == 3
        assert upgrades == [True]
        assert vbus.stats.get("fallback") == 1
        assert vbus.stats.get("fast") == 2
        assert mem.read_frame(frames[0])[0] == 1

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_supervisor_pages_block_user_replay(self, rig, use_numpy):
        mem, mmu, bus, space = rig
        _map_pages(mem, mmu, space, 1, prot=Prot.RW | Prot.SYSTEM)
        vbus = VectorBus(bus, use_numpy=use_numpy)
        with pytest.raises(ProtectionViolation):
            vbus.replay(space, [0], b"\x00")
        assert vbus.replay(space, [0], b"\x01", supervisor=True) == 1
        assert vbus.stats.get("fast") == 1

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_spaces_column_segments_the_replay(self, rig, use_numpy):
        mem, mmu, bus, space_a = rig
        space_b = mmu.create_space()
        frames_a = _map_pages(mem, mmu, space_a, 1)
        frames_b = _map_pages(mem, mmu, space_b, 1)
        vbus = VectorBus(bus, use_numpy=use_numpy)
        done = vbus.replay(None, [0, 0, 0, 0], b"\x01\x01\x01\x00",
                           spaces=[space_a, space_a, space_b, space_b])
        assert done == 4
        assert mem.read_frame(frames_a[0])[0] == 1
        assert mem.read_frame(frames_b[0])[0] == 1
        assert vbus.stats.get("batches") == 2

    @pytest.mark.parametrize("use_numpy", ENGINES)
    def test_tlb_state_matches_scalar_access(self, rig, use_numpy):
        # After a replay of pure hits the TLB holds the same entries
        # in the same LRU order a scalar loop would have left.
        mem, mmu, bus, space = rig
        _map_pages(mem, mmu, space, 3)
        scalar_mmu = PagedMMU(page_size=PAGE, tlb=TLB(entries=4))
        scalar_bus = MemoryBus(PhysicalMemory(size=256 * KB,
                                              page_size=PAGE), scalar_mmu)
        scalar_space = scalar_mmu.create_space()
        _map_pages(scalar_bus.memory, scalar_mmu, scalar_space, 3)
        trace = [0, 1, 2, 0, 1, 0, 2]
        vbus = VectorBus(bus, use_numpy=use_numpy)
        vbus.replay(space, trace, bytes(len(trace)))
        for page in trace:
            scalar_bus.read(scalar_space, page * PAGE, 1)
        ours = [key[1] for key in mmu.tlb._entries]
        theirs = [key[1] for key in scalar_mmu.tlb._entries]
        assert ours == theirs
        assert mmu.tlb.stats.get("hit") == scalar_mmu.tlb.stats.get("hit")
        assert mmu.tlb.stats.get("miss") == scalar_mmu.tlb.stats.get("miss")
