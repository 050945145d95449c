"""IPC message-size sweep (section 5.1.6's two data paths)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

_sweep_serial = itertools.count(1)

from repro.kernel.clock import ClockRegion, CostEvent


@dataclass
class IpcPoint:
    """One sweep point: message size, path taken, per-message cost."""
    size: int
    path: str                 # "bcopy" | "transit"
    virtual_ms_per_msg: float
    stubs_per_msg: float
    moves: int


def message_sweep(nucleus, sizes: List[int],
                  messages_per_size: int = 8) -> List[IpcPoint]:
    """Send/receive a burst at each size; report per-message cost."""
    vm = nucleus.vm
    ipc = nucleus.ipc
    page = vm.page_size
    src = vm.cache_create(vm.default_provider, name="ipc-src")
    dst = vm.cache_create(vm.default_provider, name="ipc-dst")
    port_name = f"sweep{next(_sweep_serial)}"
    ipc.create_port(port_name)
    results = []
    for size in sizes:
        vm.cache_write(src, 0, b"\xAB" * size)
        aligned = size % page == 0
        stubs_before = nucleus.clock.count(CostEvent.COW_STUB_INSERT)
        with ClockRegion(nucleus.clock) as timer:
            for _ in range(messages_per_size):
                if aligned:
                    ipc.send(port_name, src_cache=src, src_offset=0, size=size)
                    ipc.receive(port_name, dst_cache=dst, dst_offset=0)
                else:
                    payload = vm.cache_read(src, 0, size)
                    ipc.send(port_name, data=payload)
                    ipc.receive(port_name)
        stubs = nucleus.clock.count(CostEvent.COW_STUB_INSERT) - stubs_before
        results.append(IpcPoint(
            size=size,
            path="transit" if aligned else "bcopy",
            virtual_ms_per_msg=timer.elapsed / messages_per_size,
            stubs_per_msg=stubs / messages_per_size,
            moves=messages_per_size if aligned else 0,
        ))
    return results
