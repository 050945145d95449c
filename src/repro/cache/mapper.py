"""BaseMapper: the one store primitive every mapper implements.

"A mapper exports a standard read/write interface, invoked using the
IPC mechanisms" (section 5.1.1).  Concrete mappers used to each
re-implement the request counting, past-EOF zero-fill and partial-page
read-modify-write around that interface; :class:`BaseMapper` owns the
protocol layer (``read_segment`` / ``write_segment``), and subclasses
supply a single byte-range *store* primitive each way:

* :meth:`read_range` — produce the stored bytes of a range (holes and
  past-EOF bytes as zeroes);
* :meth:`write_range` — persist bytes at a range, growing the segment.

Both take arbitrary byte ranges: a ranged pushOut of 32 pages is one
``write_range`` call, which is what makes batched mapper I/O a
per-mapper no-op.

The protocol is split into a charging half and a byte half:
:meth:`~BaseMapper.prepare_write` (counting + read-modify-write +
:meth:`~BaseMapper.charge_write`) and :meth:`~BaseMapper.charge_read`
carry every virtual-clock charge, while ``read_range`` /
``write_range`` are charge-free store access.  Virtual time is float
accumulation, so charge *order* is what keeps runs bit-identical.

Layer contract (rule 4): mappers depend only on ``repro.cache``
interfaces — this module imports no backend and no ``repro.segments``
machinery; capabilities are duck-typed (``.port`` / ``.key``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CapabilityError


class BaseMapper:
    """Base mapper: serves segment reads and writes by key."""

    def __init__(self, port: str, page_size: Optional[int] = None):
        #: Port name under which the mapper is registered.
        self.port = port
        #: When set, write_segment performs read-modify-write for
        #: ranges not aligned to this granularity (block stores).
        self.page_size = page_size
        self.read_requests = 0
        self.write_requests = 0

    # -- the standard read/write interface ------------------------------------

    def read_segment(self, key: int, offset: int, size: int) -> bytes:
        """Return ``size`` bytes of segment *key* at *offset*."""
        self.read_requests += 1
        self.charge_read(key, offset, size)
        return self.read_range(key, offset, size)

    def write_segment(self, key: int, offset: int, data: bytes) -> None:
        """Store *data* into segment *key* at *offset*.

        Block stores (``page_size`` set) get read-modify-write for
        ranges not aligned to the block granularity."""
        offset, data = self.prepare_write(key, offset, data)
        self.write_range(key, offset, data)

    def prepare_write(self, key: int, offset: int,
                      data: bytes) -> "tuple[int, bytes]":
        """The charging half of :meth:`write_segment`: request
        accounting, the partial-page read-modify-write and the cost
        charges, returning the aligned ``(offset, data)`` that
        :meth:`write_range` then stores."""
        self.write_requests += 1
        data = bytes(data)
        page = self.page_size
        if page and (offset % page or len(data) % page):
            aligned = offset - (offset % page)
            span = offset + len(data) - aligned
            span = (span + page - 1) // page * page
            merged = bytearray(self.read_segment(key, aligned, span))
            merged[offset - aligned:offset - aligned + len(data)] = data
            offset, data = aligned, bytes(merged)
        self.charge_write(key, offset, len(data))
        return offset, data

    def segment_size(self, key: int) -> int:
        """Current size of segment *key* in bytes."""
        raise NotImplementedError

    # -- the cost hooks -----------------------------------------------------------

    def charge_read(self, key: int, offset: int, size: int) -> None:
        """Charge the virtual cost of reading the range (latency
        models).  Runs before :meth:`read_range`; the default store
        is free."""

    def charge_write(self, key: int, offset: int, size: int) -> None:
        """Charge the virtual cost of writing the range, and fix any
        store placement the charges depend on (block allocation).
        The default store is free."""

    # -- the store primitive ----------------------------------------------------

    def read_range(self, key: int, offset: int, size: int) -> bytes:
        """Produce the bytes of ``[offset, offset+size)`` from the
        store; unwritten and past-EOF bytes read as zeroes.  Charge-
        free (costs live in :meth:`charge_read`)."""
        raise NotImplementedError

    def write_range(self, key: int, offset: int, data: bytes) -> None:
        """Persist *data* at *offset*, growing the segment as needed.
        Charge-free (costs live in :meth:`charge_write`)."""
        raise NotImplementedError

    # -- default-mapper extension ---------------------------------------------------

    def create_temporary(self):
        """Allocate a temporary (swap) segment; default mappers only."""
        raise CapabilityError(f"mapper {self.port} is not a default mapper")

    def destroy_segment(self, key: int) -> None:
        """Release a segment's storage (temporary segments)."""

    # -- helpers -----------------------------------------------------------------------

    def check_capability(self, capability) -> int:
        """Validate that *capability* designates one of our segments."""
        if capability.port != self.port:
            raise CapabilityError(
                f"capability for port {capability.port} sent to {self.port}"
            )
        return capability.key
