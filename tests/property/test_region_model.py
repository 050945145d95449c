"""Model-based test of address-space management (Table 2).

Random region create / split / protect / destroy sequences against a
model of the address space as a set of disjoint intervals, with
mapped-access spot checks (reads must hit exactly the bytes the model
says a region exposes, and miss outside every region).
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.errors import AccessViolation, InvalidOperation, \
    SegmentationFault
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB
SLOTS = 12                 # address space modelled as SLOTS page slots
BASE = 0x100000

slot_indexes = st.integers(0, SLOTS - 1)
sizes_pages = st.integers(1, 4)
protections = st.sampled_from([Protection.RW, Protection.READ])


class RegionMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.vm = PagedVirtualMemory(memory_size=64 * PAGE)
        self.context = self.vm.context_create("regions")
        self.cache = self.vm.cache_create(ZeroFillProvider())
        for slot in range(SLOTS):
            self.cache.write(slot * PAGE, bytes([slot + 1]) * 8)
        #: model: slot -> (region object, protection) or None
        self.slots = [None] * SLOTS

    def _address(self, slot):
        return BASE + slot * PAGE

    @rule(slot=slot_indexes, pages=sizes_pages, prot=protections)
    def create_region(self, slot, pages, prot):
        pages = min(pages, SLOTS - slot)
        free = all(self.slots[s] is None for s in range(slot, slot + pages))
        if not free:
            with pytest.raises(InvalidOperation):
                self.context.region_create(self._address(slot), pages * PAGE,
                                           protection=prot, cache=self.cache,
                                           offset=slot * PAGE)
            return
        region = self.context.region_create(self._address(slot), pages * PAGE,
                                            protection=prot, cache=self.cache,
                                            offset=slot * PAGE)
        for s in range(slot, slot + pages):
            self.slots[s] = (region, prot)

    @rule(slot=slot_indexes)
    def destroy_region(self, slot):
        entry = self.slots[slot]
        if entry is None:
            return
        region, _ = entry
        region.destroy()
        self.slots = [
            None if e is not None and e[0] is region else e
            for e in self.slots
        ]

    @rule(slot=slot_indexes, at=st.integers(1, 3))
    def split_region(self, slot, at):
        entry = self.slots[slot]
        if entry is None:
            return
        region, prot = entry
        if at * PAGE >= region.size:
            return
        upper = region.split(at * PAGE)
        base_slot = (region.address - BASE) // PAGE
        for s in range(SLOTS):
            existing = self.slots[s]
            if existing is not None and existing[0] is region \
                    and s >= base_slot + at:
                self.slots[s] = (upper, prot)

    @rule(slot=slot_indexes, prot=protections)
    def set_protection(self, slot, prot):
        entry = self.slots[slot]
        if entry is None:
            return
        region, _ = entry
        region.set_protection(prot)
        self.slots = [
            (e[0], prot) if e is not None and e[0] is region else e
            for e in self.slots
        ]

    @rule(slot=slot_indexes)
    def probe_read(self, slot):
        entry = self.slots[slot]
        address = self._address(slot)
        if entry is None:
            with pytest.raises(SegmentationFault):
                self.vm.user_read(self.context, address, 1)
        else:
            # Each slot maps segment offset == slot * PAGE.
            assert self.vm.user_read(self.context, address, 1) == \
                bytes([slot + 1])

    @rule(slot=slot_indexes)
    def probe_write(self, slot):
        entry = self.slots[slot]
        address = self._address(slot)
        if entry is None:
            with pytest.raises(SegmentationFault):
                self.vm.user_write(self.context, address + 100, b"x")
        elif not entry[1] & Protection.WRITE:
            with pytest.raises(AccessViolation):
                self.vm.user_write(self.context, address + 100, b"x")
        else:
            self.vm.user_write(self.context, address + 100, b"x")

    @invariant()
    def region_list_matches_model(self):
        if not hasattr(self, "context"):
            return
        listed = self.context.get_region_list()
        # Sorted, non-overlapping.
        addresses = [region.address for region in listed]
        assert addresses == sorted(addresses)
        for left, right in zip(listed, listed[1:]):
            assert left.end <= right.address
        # Coverage agrees with the model slot-for-slot.
        covered = set()
        for region in listed:
            start = (region.address - BASE) // PAGE
            covered.update(range(start, start + region.size // PAGE))
        modelled = {s for s in range(SLOTS) if self.slots[s] is not None}
        assert covered == modelled


TestRegionModel = RegionMachine.TestCase
TestRegionModel.settings = settings(max_examples=50,
                                    stateful_step_count=40, deadline=None)
