"""Property tests for the simulated hardware: MMU ports against a
dictionary model, and the frame allocator's conservation laws."""

import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.errors import InvalidOperation, OutOfFrames, PageFault, \
    ProtectionViolation
from repro.hardware.inverted_mmu import InvertedMMU
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.mmu import Prot
from repro.hardware.physmem import PhysicalMemory
from tests.property import scaled_settings

PAGE = 8 * 1024
VPNS = 32
FRAMES = 16

prots = st.sampled_from([Prot.READ, Prot.RW, Prot.RX, Prot.RWX])
vpns = st.integers(0, VPNS - 1)
frames = st.integers(0, FRAMES - 1)
mmu_classes = st.sampled_from([PagedMMU, InvertedMMU])


class MmuMachine(RuleBasedStateMachine):
    """Both MMU ports vs a dict model, in lockstep."""

    @initialize(mmu_class=mmu_classes)
    def setup(self, mmu_class):
        self.mmu = mmu_class(PAGE)
        self.spaces = [self.mmu.create_space() for _ in range(2)]
        self.model = {space: {} for space in self.spaces}

    @rule(which=st.integers(0, 1), vpn=vpns, frame=frames, prot=prots)
    def map_page(self, which, vpn, frame, prot):
        space = self.spaces[which]
        self.mmu.map(space, vpn * PAGE, frame, prot)
        self.model[space][vpn] = (frame, prot)

    @rule(which=st.integers(0, 1), vpn=vpns)
    def unmap_page(self, which, vpn):
        space = self.spaces[which]
        existed = self.mmu.unmap(space, vpn * PAGE)
        assert existed == (vpn in self.model[space])
        self.model[space].pop(vpn, None)

    @rule(which=st.integers(0, 1), vpn=vpns, prot=prots)
    def protect_page(self, which, vpn, prot):
        space = self.spaces[which]
        if vpn in self.model[space]:
            self.mmu.protect(space, vpn * PAGE, prot)
            frame, _ = self.model[space][vpn]
            self.model[space][vpn] = (frame, prot)
        else:
            with pytest.raises(InvalidOperation):
                self.mmu.protect(space, vpn * PAGE, prot)

    @rule(which=st.integers(0, 1), vpn=vpns,
          offset=st.integers(0, PAGE - 1), write=st.booleans())
    def translate(self, which, vpn, offset, write):
        space = self.spaces[which]
        vaddr = vpn * PAGE + offset
        entry = self.model[space].get(vpn)
        if entry is None:
            with pytest.raises(PageFault):
                self.mmu.translate(space, vaddr, write)
        elif not entry[1].allows(write):
            with pytest.raises(ProtectionViolation):
                self.mmu.translate(space, vaddr, write)
        else:
            assert self.mmu.translate(space, vaddr, write) == \
                entry[0] * PAGE + offset

    @invariant()
    def listings_agree(self):
        if not hasattr(self, "mmu"):
            return
        for space in self.spaces:
            listed = {vpn: (m.frame, m.prot)
                      for vpn, m in self.mmu.mapped_pages(space)}
            assert listed == self.model[space]


TestMmuModel = MmuMachine.TestCase
TestMmuModel.settings = scaled_settings(50, 50)


class TestFrameAllocatorProperties:
    @given(st.lists(st.booleans(), max_size=100))
    @scaled_settings(200, 50)
    def test_conservation(self, script):
        """allocate/free in any order: counts always conserve, frames
        never double-allocated."""
        memory = PhysicalMemory(size=FRAMES * PAGE, page_size=PAGE)
        held = []
        for allocate in script:
            if allocate:
                try:
                    frame = memory.allocate_frame()
                except OutOfFrames:
                    assert len(held) == FRAMES
                    continue
                assert frame not in held
                held.append(frame)
            elif held:
                memory.free_frame(held.pop())
            assert memory.allocated_frames == len(held)
            assert memory.free_frames == FRAMES - len(held)

    @given(st.data())
    @scaled_settings(100, 50)
    def test_data_isolation_between_frames(self, data):
        """Writing one frame never disturbs another."""
        memory = PhysicalMemory(size=FRAMES * PAGE, page_size=PAGE)
        a = memory.allocate_frame(zero=True)
        b = memory.allocate_frame(zero=True)
        payload = data.draw(st.binary(min_size=1, max_size=64))
        offset = data.draw(st.integers(0, PAGE - len(payload)))
        memory.write(memory.frame_address(a) + offset, payload)
        assert memory.read_frame(b) == bytes(PAGE)
        assert memory.read_frame(a)[offset:offset + len(payload)] == payload
