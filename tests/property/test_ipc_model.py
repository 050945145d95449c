"""Model-based IPC test: ports are lossless FIFO queues; payloads
arrive intact regardless of path (inline vs transit), interleaving, or
sender-side mutation after send."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.errors import IpcError, ResourceExhausted
from repro.cache.provider import ZeroFillProvider
from repro.ipc import IpcSubsystem
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB
PORTS = ("p0", "p1")

port_names = st.sampled_from(PORTS)
payload_sizes = st.sampled_from([5, 100, PAGE, 2 * PAGE])
byte_values = st.integers(1, 255)


class IpcMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.vm = PagedVirtualMemory(memory_size=4 * MB)
        self.ipc = IpcSubsystem(self.vm, transit_slots=4)
        for name in PORTS:
            self.ipc.create_port(name)
        self.src = self.vm.cache_create(ZeroFillProvider(), name="src")
        self.dst = self.vm.cache_create(ZeroFillProvider(), name="dst")
        self.model = {name: [] for name in PORTS}

    @rule(port=port_names, size=payload_sizes, value=byte_values)
    def send_inline(self, port, size, value):
        payload = bytes([value]) * size
        try:
            self.ipc.send(port, data=payload)
        except ResourceExhausted:
            return
        self.model[port].append(payload)

    @rule(port=port_names, size=payload_sizes, value=byte_values)
    def send_from_cache(self, port, size, value):
        payload = bytes([value]) * size
        self.vm.cache_write(self.src, 0, payload)
        try:
            self.ipc.send(port, src_cache=self.src, src_offset=0,
                          size=size)
        except ResourceExhausted:
            return
        self.model[port].append(payload)
        # Sender mutates immediately: the message must keep its snapshot.
        self.vm.cache_write(self.src, 0, b"\x00" * size)

    @rule(port=port_names, into_cache=st.booleans())
    def receive(self, port, into_cache):
        if not self.model[port]:
            with pytest.raises(IpcError):
                self.ipc.receive(port)
            return
        expected = self.model[port].pop(0)
        if into_cache:
            message = self.ipc.receive(port, dst_cache=self.dst,
                                       dst_offset=0)
            landed = self.vm.cache_read(self.dst, 0, len(expected))
            assert landed == expected
        else:
            message = self.ipc.receive(port)
            assert message.inline[:len(expected)] == expected
        assert message.size == len(expected)

    @invariant()
    def queue_depths_match(self):
        if not hasattr(self, "ipc"):
            return
        for name in PORTS:
            assert self.ipc.lookup_port(name).pending == \
                len(self.model[name])

    @invariant()
    def transit_slots_conserved(self):
        if not hasattr(self, "ipc"):
            return
        in_flight = sum(
            1 for name in PORTS
            for message in self.ipc.lookup_port(name).queue
            if message.slot is not None
        )
        assert self.ipc.transit.free_slots + in_flight == \
            self.ipc.transit.slots


TestIpcModel = IpcMachine.TestCase
TestIpcModel.settings = settings(max_examples=50, stateful_step_count=40,
                                 deadline=None)
