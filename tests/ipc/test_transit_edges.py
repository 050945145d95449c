"""Transit-segment slot management edge cases."""

import pytest

from repro.errors import ResourceExhausted
from repro.cache.provider import ZeroFillProvider
from repro.ipc.transit import TransitSegment
from repro.pvm import PagedVirtualMemory
from repro.units import IPC_MESSAGE_LIMIT, KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=8 * MB)


class TestSlotAllocator:
    def test_slot_offsets_disjoint(self, vm):
        transit = TransitSegment(vm, slots=4)
        slots = [transit.allocate() for _ in range(4)]
        offsets = [transit.slot_offset(slot) for slot in slots]
        assert len(set(offsets)) == 4
        for offset in offsets:
            assert offset % TransitSegment.SLOT_SIZE == 0

    def test_exhaustion_and_reuse(self, vm):
        transit = TransitSegment(vm, slots=2)
        a = transit.allocate()
        b = transit.allocate()
        with pytest.raises(ResourceExhausted):
            transit.allocate()
        transit.release(a)
        assert transit.allocate() == a

    def test_high_water_mark(self, vm):
        transit = TransitSegment(vm, slots=4)
        a = transit.allocate()
        transit.release(a)
        transit.allocate()
        transit.allocate()
        assert transit.high_water == 2

    def test_release_drops_leftover_pages(self, vm):
        transit = TransitSegment(vm, slots=2)
        slot = transit.allocate()
        offset = transit.slot_offset(slot)
        transit.cache.write(offset, b"leftover payload")
        resident_before = vm.resident_page_count
        transit.release(slot)
        assert vm.resident_page_count < resident_before
        # A fresh use of the slot sees no stale bytes.
        again = transit.allocate()
        assert transit.cache.read(transit.slot_offset(again), 8) == bytes(8)

    def test_slot_size_is_the_ipc_limit(self, vm):
        assert TransitSegment.SLOT_SIZE == IPC_MESSAGE_LIMIT


class TestMessageValidation:
    def test_oversized_inline_rejected(self):
        from repro.errors import IpcError
        from repro.ipc.message import Message
        with pytest.raises(IpcError):
            Message(inline=bytes(IPC_MESSAGE_LIMIT + 1))

    def test_oversized_slot_payload_rejected(self):
        from repro.errors import IpcError
        from repro.ipc.message import Message
        with pytest.raises(IpcError):
            Message(slot=0, size=IPC_MESSAGE_LIMIT + 1)

    def test_inline_sets_size(self):
        from repro.ipc.message import Message
        message = Message(inline=b"12345")
        assert message.size == 5
        assert not message.in_transit_slot
