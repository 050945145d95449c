"""The Nucleus: one site's kernel, wired around a GMI implementation.

A :class:`Nucleus` owns the simulated hardware, a virtual clock, one
memory manager (PVM by default — any GMI implementation drops in, the
paper's "replaceable unit" claim), the IPC subsystem, the segment
manager and the actor table.  "The MM implementation is the only
difference between these Nucleus versions" (section 5.2) — the test
suite runs the same Nucleus scenarios over the PVM, the Mach-style
baseline and the eager baseline.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from repro.gmi.interface import MemoryManager
from repro.ipc.ipc import IpcSubsystem
from repro.ipc.message import Message
from repro.kernel.clock import CostModel, VirtualClock
from repro.kernel.sync import HostSync
from repro.nucleus.actor import Actor
from repro.nucleus.segment_manager import SegmentManager
from repro.nucleus.vm_ops import VmOpsMixin
from repro.pvm.pvm import PagedVirtualMemory
from repro.segments.mapper import Mapper
from repro.segments.swap_mapper import SwapMapper
from repro.units import DEFAULT_PAGE_SIZE, DEFAULT_PHYSICAL_MEMORY


class Nucleus(VmOpsMixin):
    """One Chorus site."""

    def __init__(self,
                 vm_class: Type[MemoryManager] = PagedVirtualMemory,
                 memory_size: int = DEFAULT_PHYSICAL_MEMORY,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 cost_model: Optional[CostModel] = None,
                 clock: Optional[VirtualClock] = None,
                 sync: Optional[HostSync] = None,
                 tlb_entries: Optional[int] = None,
                 transit_slots: int = 16,
                 max_cached_segments: int = 32,
                 default_mapper: Optional[Mapper] = None,
                 **vm_kwargs):
        self.clock = clock or VirtualClock(cost_model)
        self.vm = vm_class(memory_size=memory_size, page_size=page_size,
                           clock=self.clock, sync=sync,
                           tlb_entries=tlb_entries, **vm_kwargs)
        self.ipc = IpcSubsystem(self.vm, transit_slots=transit_slots)
        self.default_mapper = default_mapper or SwapMapper()
        self.segment_manager = SegmentManager(
            self.vm, self.ipc, self.default_mapper,
            max_cached=max_cached_segments)
        # Caches the MM creates unilaterally (history/working objects)
        # become temporary segments of the segment manager.
        self.vm.default_provider = self.segment_manager.temporary_provider
        self._cache_refs: Dict[int, list] = {}
        self.actors: Dict[str, Actor] = {}
        self._mappers: Dict[str, Mapper] = {}
        self.register_mapper(self.default_mapper)

    # -- actors ------------------------------------------------------------------

    def create_actor(self, name: Optional[str] = None) -> Actor:
        """Create an actor (address space + default port) on this site."""
        actor = Actor(self, name)
        self.actors[actor.name] = actor
        return actor

    def destroy_actor(self, actor: Actor) -> None:
        """Destroy an actor and remove it from the site table."""
        actor.destroy()
        self.actors.pop(actor.name, None)

    # -- mappers -------------------------------------------------------------------

    def register_mapper(self, mapper: Mapper) -> None:
        """Expose *mapper* behind a server port speaking the standard
        read/write protocol (section 5.1.1)."""
        self._mappers[mapper.port] = mapper

        def handler(message: Message) -> Message:
            header = message.header
            op = header["op"]
            key = mapper.check_capability(header["capability"])
            # Mapper ops route through the manager's I/O scheduler,
            # which runs them synchronously on this thread.
            io = getattr(self.vm, "io", None)
            if op == "read":
                if io is not None:
                    data = io.read_segment(mapper, key, header["offset"],
                                           header["size"])
                else:
                    data = mapper.read_segment(key, header["offset"],
                                               header["size"])
                return Message(header={"op": "read-reply"}, inline=data)
            if op == "write":
                if io is not None:
                    io.write_segment(mapper, key, header["offset"],
                                     message.inline)
                else:
                    mapper.write_segment(key, header["offset"],
                                         message.inline)
                return Message(header={"op": "write-reply"})
            if op == "size":
                return Message(header={"op": "size-reply",
                                       "size": mapper.segment_size(key)})
            raise ValueError(f"unknown mapper op {op!r}")

        self.ipc.create_port(mapper.port, owner=mapper, handler=handler)

    def mapper(self, port: str) -> Mapper:
        """The mapper registered behind *port*."""
        return self._mappers[port]

    def __repr__(self) -> str:
        return (
            f"Nucleus(vm={self.vm.name}, {len(self.actors)} actors, "
            f"t={self.clock.now():.2f}ms)"
        )
