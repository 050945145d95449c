"""IPC: ports, the two data paths, and transit-slot recycling."""

import pytest

from repro.errors import IpcError, ResourceExhausted
from repro.cache.provider import ZeroFillProvider
from repro.ipc import IpcSubsystem, Message
from repro.kernel.clock import CostEvent
from repro.pvm import PagedVirtualMemory
from repro.units import IPC_MESSAGE_LIMIT, KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=8 * MB)


@pytest.fixture
def ipc(vm):
    return IpcSubsystem(vm, transit_slots=4)


def make_cache(vm, name=None):
    return vm.cache_create(ZeroFillProvider(), name=name)


class TestPorts:
    def test_create_and_lookup(self, ipc):
        port = ipc.create_port("p1")
        assert ipc.lookup_port("p1") is port

    def test_duplicate_name_rejected(self, ipc):
        ipc.create_port("p1")
        with pytest.raises(IpcError):
            ipc.create_port("p1")

    def test_dead_port_unreachable(self, ipc):
        ipc.create_port("p1")
        ipc.destroy_port("p1")
        with pytest.raises(IpcError):
            ipc.send("p1", data=b"x")

    def test_receive_on_empty_port(self, ipc):
        ipc.create_port("p1")
        with pytest.raises(IpcError):
            ipc.receive("p1")


class TestInlinePath:
    def test_small_message_roundtrip(self, ipc):
        ipc.create_port("p")
        ipc.send("p", header={"tag": 7}, data=b"small payload")
        message = ipc.receive("p")
        assert message.inline == b"small payload"
        assert message.header["tag"] == 7

    def test_message_size_limit(self, ipc):
        ipc.create_port("p")
        with pytest.raises(IpcError):
            ipc.send("p", data=bytes(IPC_MESSAGE_LIMIT + 1))

    def test_queue_preserves_order(self, ipc):
        ipc.create_port("p")
        for index in range(5):
            ipc.send("p", data=bytes([index]))
        received = [ipc.receive("p").inline[0] for _ in range(5)]
        assert received == [0, 1, 2, 3, 4]

    def test_inline_delivery_into_cache(self, vm, ipc):
        ipc.create_port("p")
        ipc.send("p", data=b"into the cache")
        dst = make_cache(vm, "dst")
        ipc.receive("p", dst_cache=dst, dst_offset=100)
        assert dst.read(100, 14) == b"into the cache"


class TestTransitPath:
    def test_aligned_send_uses_transit_slot(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(0, b"page payload")
        ipc.create_port("p")
        ipc.send("p", src_cache=src, src_offset=0, size=2 * PAGE)
        assert ipc.clock.count(CostEvent.TRANSIT_SLOT) == 1
        # The copy into the slot was deferred per-page.
        assert ipc.clock.count(CostEvent.COW_STUB_INSERT) == 2
        assert ipc.transit.free_slots == 3

    def test_receive_moves_into_destination(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(0, b"moved not copied")
        ipc.create_port("p")
        ipc.send("p", src_cache=src, src_offset=0, size=PAGE)
        dst = make_cache(vm, "dst")
        message = ipc.receive("p", dst_cache=dst, dst_offset=4 * PAGE)
        assert message.size == PAGE
        assert dst.read(4 * PAGE, 16) == b"moved not copied"
        assert ipc.transit.free_slots == 4          # slot recycled

    def test_sender_can_modify_after_send(self, vm, ipc):
        """The send snapshot is protected by per-page COW."""
        src = make_cache(vm, "src")
        src.write(0, b"original")
        ipc.create_port("p")
        ipc.send("p", src_cache=src, src_offset=0, size=PAGE)
        src.write(0, b"mutated!")
        dst = make_cache(vm, "dst")
        ipc.receive("p", dst_cache=dst, dst_offset=0)
        assert dst.read(0, 8) == b"original"

    def test_unaligned_cache_send_falls_back_to_bcopy(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(100, b"unaligned")
        ipc.create_port("p")
        ipc.send("p", src_cache=src, src_offset=100, size=9)
        message = ipc.receive("p")
        assert message.inline == b"unaligned"
        assert ipc.clock.count(CostEvent.TRANSIT_SLOT) == 0

    def test_slot_exhaustion(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(0, b"x")
        ipc.create_port("p")
        for _ in range(4):
            ipc.send("p", src_cache=src, src_offset=0, size=PAGE)
        with pytest.raises(ResourceExhausted):
            ipc.send("p", src_cache=src, src_offset=0, size=PAGE)
        # Draining a message frees a slot again.
        ipc.receive("p")
        ipc.send("p", src_cache=src, src_offset=0, size=PAGE)

    def test_receive_without_destination_returns_bytes(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(0, b"as bytes")
        ipc.create_port("p")
        ipc.send("p", src_cache=src, src_offset=0, size=PAGE)
        message = ipc.receive("p")
        assert message.inline[:8] == b"as bytes"


class TestServerPorts:
    def test_rpc_roundtrip(self, ipc):
        def handler(message):
            return Message(header={"echo": message.header["value"] * 2})

        ipc.create_port("server", handler=handler)
        reply = ipc.send("server", header={"value": 21})
        assert reply.header["echo"] == 42

    def test_cannot_receive_on_server_port(self, ipc):
        ipc.create_port("server", handler=lambda m: Message())
        with pytest.raises(IpcError):
            ipc.receive("server")

    def test_server_send_recycles_transit_slot(self, vm, ipc):
        src = make_cache(vm, "src")
        src.write(0, b"rpc body")
        seen = []

        def handler(message):
            seen.append(message.size)
            return Message()

        ipc.create_port("server", handler=handler)
        for _ in range(10):                         # > slot count
            ipc.send("server", src_cache=src, src_offset=0, size=PAGE)
        assert seen == [PAGE] * 10
        assert ipc.transit.free_slots == 4


class TestIpcDecoupling:
    def test_ipc_never_changes_regions(self, vm, ipc):
        """Section 5.1.6: IPC has no region side effects."""
        from repro.gmi.types import Protection
        ctx = vm.context_create()
        cache = make_cache(vm)
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        vm.user_write(ctx, 0x40000, b"region data")
        regions_before = [(r.address, r.size) for r in ctx.get_region_list()]
        ipc.create_port("p")
        ipc.send("p", src_cache=cache, src_offset=0, size=PAGE)
        ipc.receive("p", dst_cache=make_cache(vm), dst_offset=0)
        regions_after = [(r.address, r.size) for r in ctx.get_region_list()]
        assert regions_before == regions_after
