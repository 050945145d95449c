"""CPU-level memory access with hardware fault dispatch.

The :class:`MemoryBus` plays the role of the processor's load/store
unit: every virtual access is translated page by page; a translation
miss or protection violation traps to the installed fault handler (the
memory manager's page-fault entry point), after which the access is
retried — exactly the trap/resolve/retry cycle of real demand paging.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import HardwareFault, PageFault, ProtectionViolation
from repro.hardware.mmu import MMU, FaultRecord
from repro.hardware.physmem import PhysicalMemory
from repro.kernel import Counter

#: A fault handler resolves the fault (returns) or raises a kernel
#: exception such as SegmentationFault / AccessViolation.
FaultHandler = Callable[[FaultRecord], None]

#: Retries per page before declaring the fault handler broken.
MAX_FAULT_RETRIES = 16


class MemoryBus:
    """Performs virtual reads/writes, dispatching faults to a handler."""

    def __init__(self, memory: PhysicalMemory, mmu: MMU,
                 fault_handler: Optional[FaultHandler] = None):
        if memory.page_size != mmu.page_size:
            raise ValueError("memory and MMU disagree on page size")
        self.memory = memory
        self.mmu = mmu
        self.fault_handler = fault_handler
        self.stats = Counter()
        #: Bulk front ends over this bus, one per engine, made on first
        #: use by :meth:`repro.hardware.vbus.VectorBus.of`.
        self.vector_buses: Dict[str, object] = {}

    def install_fault_handler(self, handler: FaultHandler) -> None:
        """Install the kernel's page-fault entry point."""
        self.fault_handler = handler

    # -- access ---------------------------------------------------------------

    def read(self, space: int, vaddr: int, size: int,
             supervisor: bool = False) -> bytes:
        """Read *size* bytes at virtual address *vaddr* in *space*."""
        chunks = list(self._chunks(vaddr, size))
        if len(chunks) > 1:
            paddrs = self._translate_span(space, chunks, write=False,
                                          supervisor=supervisor)
            memory = self.memory
            data = b"".join(
                memory.read(paddr, chunk[2])
                for paddr, chunk in zip(paddrs, chunks))
            self.stats.add("reads")
            return data
        for page_vaddr, chunk_off, chunk_len in chunks:
            paddr = self._translate(space, page_vaddr + chunk_off,
                                    write=False, supervisor=supervisor)
            data = self.memory.read(paddr, chunk_len)
            self.stats.add("reads")
            return data
        self.stats.add("reads")
        return b""

    def write(self, space: int, vaddr: int, data: bytes,
              supervisor: bool = False) -> None:
        """Write *data* at virtual address *vaddr* in *space*."""
        chunks = list(self._chunks(vaddr, len(data)))
        if len(chunks) > 1:
            paddrs = self._translate_span(space, chunks, write=True,
                                          supervisor=supervisor)
            memory = self.memory
            pos = 0
            for paddr, chunk in zip(paddrs, chunks):
                memory.write(paddr, data[pos:pos + chunk[2]])
                pos += chunk[2]
            self.stats.add("writes")
            return
        pos = 0
        for page_vaddr, chunk_off, chunk_len in chunks:
            paddr = self._translate(space, page_vaddr + chunk_off,
                                    write=True, supervisor=supervisor)
            self.memory.write(paddr, data[pos:pos + chunk_len])
            pos += chunk_len
        self.stats.add("writes")

    def touch(self, space: int, vaddr: int, write: bool = False) -> None:
        """Access one byte, faulting it in; used by benchmark loops."""
        if write:
            current = self.read(space, vaddr, 1)
            self.write(space, vaddr, current)
        else:
            self.read(space, vaddr, 1)

    # -- internals ------------------------------------------------------------------

    def _chunks(self, vaddr: int, size: int):
        """Split [vaddr, vaddr+size) into per-page (page_vaddr, off, len)."""
        page_size = self.mmu.page_size
        pos = vaddr
        end = vaddr + size
        while pos < end:
            page_vaddr = pos - (pos % page_size)
            chunk_off = pos - page_vaddr
            chunk_len = min(page_size - chunk_off, end - pos)
            yield page_vaddr, chunk_off, chunk_len
            pos += chunk_len

    def _translate_span(self, space: int, chunks, write: bool,
                        supervisor: bool = False):
        """Translate a multi-page span through ``translate_batch``.

        A fully-mapped span costs one batch call; a fault traps to the
        handler exactly like the per-page path (same trap count, same
        FAULT_DISPATCH charges — one per resolution) and the batch is
        retried from the start, where the already-resolved prefix is
        now a run of TLB hits.
        """
        addrs = [page_vaddr + chunk_off
                 for page_vaddr, chunk_off, _ in chunks]
        mmu = self.mmu
        for _ in range(MAX_FAULT_RETRIES * len(addrs)):
            try:
                return mmu.translate_batch(space, addrs, write,
                                           supervisor=supervisor)
            except (PageFault, ProtectionViolation) as fault:
                self.stats.add("faults")
                if self.fault_handler is None:
                    raise
                record = FaultRecord(
                    space=space,
                    address=fault.address,
                    write=write,
                    protection_violation=isinstance(
                        fault, ProtectionViolation),
                    supervisor=supervisor,
                )
                self.fault_handler(record)
        raise HardwareFault(
            f"span at {addrs[0]:#x} not resolved after "
            f"{MAX_FAULT_RETRIES * len(addrs)} retries"
        )

    def _translate(self, space: int, vaddr: int, write: bool,
                   supervisor: bool = False) -> int:
        """Translate with the trap/resolve/retry loop."""
        for _ in range(MAX_FAULT_RETRIES):
            try:
                return self.mmu.translate(space, vaddr, write,
                                          supervisor=supervisor)
            except (PageFault, ProtectionViolation) as fault:
                self.stats.add("faults")
                if self.fault_handler is None:
                    raise
                record = FaultRecord(
                    space=space,
                    address=fault.address,
                    write=write,
                    protection_violation=isinstance(fault, ProtectionViolation),
                    supervisor=supervisor,
                )
                self.fault_handler(record)
        raise HardwareFault(
            f"fault at {vaddr:#x} not resolved after {MAX_FAULT_RETRIES} retries"
        )
