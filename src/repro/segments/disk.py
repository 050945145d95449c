"""A simulated disk with a latency model.

Backing store for the :class:`~repro.segments.file_mapper.DiskMapper`.
Transfers advance the virtual clock by a seek+transfer cost, so
experiments that page against real (simulated) storage see realistic
relative costs without any real I/O.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import InvalidOperation
from repro.kernel.clock import CostEvent, VirtualClock


class SimulatedDisk:
    """Page-granular storage: block number -> page bytes.

    Parameters
    ----------
    page_size:
        Transfer unit (one VM page).
    clock:
        Virtual clock charged per transfer; None disables charging.
    seek_ms / transfer_ms:
        Latency model: a seek when the access is not sequential with
        the previous one, plus a per-page transfer time.  Defaults are
        in the ballpark of a late-80s SCSI disk (~20 ms seek, ~4 ms
        per 8 KB page at ~2 MB/s).
    """

    def __init__(self, page_size: int, clock: Optional[VirtualClock] = None,
                 seek_ms: float = 20.0, transfer_ms: float = 4.0):
        self.page_size = page_size
        self.clock = clock
        self.seek_ms = seek_ms
        self.transfer_ms = transfer_ms
        self._blocks: Dict[int, bytes] = {}
        self._last_block: Optional[int] = None
        self.reads = 0
        self.writes = 0

    def _charge(self, block: int, event: CostEvent) -> None:
        if self.clock is None:
            return
        self.clock.charge(event)
        if self._last_block is None or block != self._last_block + 1:
            self.clock.advance(self.seek_ms)
        self.clock.advance(self.transfer_ms)
        self._last_block = block

    # -- the charge half (latency model + counters) -----------------------------

    def charge_read(self, block: int) -> None:
        """Charge one block read (seek state advances; no bytes move)."""
        self._charge(block, CostEvent.DISK_READ_PAGE)
        self.reads += 1

    def charge_write(self, block: int) -> None:
        """Charge one block write (seek state advances; no bytes move)."""
        self._charge(block, CostEvent.DISK_WRITE_PAGE)
        self.writes += 1

    # -- the byte half (charge-free) -------------------------------------------

    def peek(self, block: int) -> bytes:
        """Raw block bytes (zeroes when never written); never charges
        and never moves the seek arm."""
        return self._blocks.get(block, bytes(self.page_size))

    def poke(self, block: int, data: bytes) -> None:
        """Raw block store (short data is zero-padded); charge-free."""
        if len(data) > self.page_size:
            raise InvalidOperation("block write larger than a page")
        self._blocks[block] = data + bytes(self.page_size - len(data))

    # -- the combined (synchronous) form ---------------------------------------

    def read_block(self, block: int) -> bytes:
        """Read one page-sized block (zeroes when never written)."""
        self.charge_read(block)
        return self.peek(block)

    def write_block(self, block: int, data: bytes) -> None:
        """Write one block (short data is zero-padded)."""
        if len(data) > self.page_size:
            raise InvalidOperation("block write larger than a page")
        self.charge_write(block)
        self.poke(block, data)

    @property
    def used_blocks(self) -> int:
        """Blocks ever written."""
        return len(self._blocks)
