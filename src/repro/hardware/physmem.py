"""Byte-accurate simulated physical memory with a frame allocator.

Real memory is a single ``bytearray`` divided into page frames.  Frame
numbers are plain integers; the PVM's real page descriptors carry them.
Data is held for real — copy-on-write correctness in the test suite is
asserted on actual byte contents, not on bookkeeping alone.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import BusError, InvalidOperation, OutOfFrames
from repro.units import DEFAULT_PAGE_SIZE, DEFAULT_PHYSICAL_MEMORY, is_power_of_two


class PhysicalMemory:
    """Simulated RAM: a frame allocator over one byte-addressable array.

    Parameters
    ----------
    size:
        Total bytes of simulated RAM; must be a multiple of *page_size*.
    page_size:
        Frame size in bytes; must be a power of two.
    """

    def __init__(self, size: int = DEFAULT_PHYSICAL_MEMORY,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if not is_power_of_two(page_size):
            raise InvalidOperation(f"page size {page_size} not a power of two")
        if size <= 0 or size % page_size != 0:
            raise InvalidOperation(
                f"memory size {size} not a positive multiple of page size"
            )
        self.page_size = page_size
        self.size = size
        self.total_frames = size // page_size
        self._ram = bytearray(size)
        self._free: List[int] = list(range(self.total_frames - 1, -1, -1))
        self._allocated: Set[int] = set()

    # -- frame allocation ------------------------------------------------------

    @property
    def free_frames(self) -> int:
        """Number of frames currently unallocated."""
        return len(self._free)

    @property
    def allocated_frames(self) -> int:
        """Number of frames currently allocated."""
        return len(self._allocated)

    def allocate_frame(self, zero: bool = False) -> int:
        """Allocate one frame; optionally zero-fill it.

        Raises :class:`OutOfFrames` when RAM is exhausted — the caller
        (the pageout daemon) is responsible for reclaiming frames first.
        """
        if not self._free:
            raise OutOfFrames(
                f"all {self.total_frames} frames allocated"
            )
        frame = self._free.pop()
        self._allocated.add(frame)
        if zero:
            self.zero_frame(frame)
        return frame

    def free_frame(self, frame: int) -> None:
        """Return *frame* to the free list."""
        if frame not in self._allocated:
            raise InvalidOperation(f"frame {frame} is not allocated")
        self._allocated.remove(frame)
        self._free.append(frame)

    def is_allocated(self, frame: int) -> bool:
        """True when *frame* is currently allocated."""
        return frame in self._allocated

    # -- physical access -------------------------------------------------------

    def _check_range(self, paddr: int, size: int) -> None:
        if paddr < 0 or size < 0 or paddr + size > self.size:
            raise BusError(
                f"physical access [{paddr:#x}, {paddr + size:#x}) outside RAM"
            )

    def read(self, paddr: int, size: int) -> bytes:
        """Read *size* bytes at physical address *paddr*."""
        self._check_range(paddr, size)
        return bytes(self._ram[paddr:paddr + size])

    def write(self, paddr: int, data: bytes) -> None:
        """Write *data* at physical address *paddr*."""
        self._check_range(paddr, len(data))
        self._ram[paddr:paddr + len(data)] = data

    # -- frame-granular helpers --------------------------------------------------

    def frame_address(self, frame: int) -> int:
        """Physical base address of *frame*."""
        if not 0 <= frame < self.total_frames:
            raise BusError(f"frame {frame} out of range")
        return frame * self.page_size

    def read_frame(self, frame: int) -> bytes:
        """Contents of an entire frame."""
        return self.read(self.frame_address(frame), self.page_size)

    def frame_view(self, frame: int) -> memoryview:
        """Zero-copy view of an entire frame.

        The view aliases live RAM — a reallocated frame's bytes can
        change under it — so callers must materialize (``bytes`` /
        ``join``) before releasing the manager lock."""
        base = self.frame_address(frame)
        return memoryview(self._ram)[base:base + self.page_size]

    def write_frame(self, frame: int, data: bytes) -> None:
        """Overwrite an entire frame (``data`` shorter than a page is
        zero-padded, matching partial-page fill semantics)."""
        if len(data) > self.page_size:
            raise InvalidOperation("data larger than a frame")
        base = self.frame_address(frame)
        self.write(base, data)
        if len(data) < self.page_size:
            self.write(base + len(data), bytes(self.page_size - len(data)))

    def zero_frame(self, frame: int) -> None:
        """Fill one frame with zeroes (the paper's ``bzero``)."""
        base = self.frame_address(frame)
        self._ram[base:base + self.page_size] = bytes(self.page_size)

    def copy_frame(self, src: int, dst: int) -> None:
        """Copy one frame onto another (the paper's ``bcopy``)."""
        sbase = self.frame_address(src)
        dbase = self.frame_address(dst)
        self._ram[dbase:dbase + self.page_size] = (
            self._ram[sbase:sbase + self.page_size]
        )

    def __repr__(self) -> str:
        return (
            f"PhysicalMemory({self.size // 1024}KB, "
            f"{self.free_frames}/{self.total_frames} frames free)"
        )
