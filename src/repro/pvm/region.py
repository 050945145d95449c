"""PVM region descriptors (Figure 2).

Each region descriptor holds the region start address, size and access
rights, a pointer to the cache descriptor for the segment the region
maps, and its start offset in that segment.  Two different regions may
refer to the same cache descriptor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidOperation, StaleObject
from repro.gmi.interface import Region
from repro.gmi.types import Protection, RegionStatus
from repro.units import page_range

if TYPE_CHECKING:  # pragma: no cover
    from repro.pvm.cache import PvmCache
    from repro.pvm.context import PvmContext


class PvmRegion(Region):
    """A mapped window of a segment in one context."""

    def __init__(self, context: "PvmContext", address: int, size: int,
                 protection: Protection, cache: "PvmCache", offset: int):
        self.context = context
        self.address = address
        self.size = size
        self.protection = protection
        self.cache = cache
        self.offset = offset
        self.locked = False
        self.destroyed = False
        #: set once the first fault lands in the region (Mach's profile
        #: prices the first touch: memory-object initialisation).
        self.touched = False

    # -- helpers -----------------------------------------------------------------

    def _check_live(self) -> None:
        if self.destroyed:
            raise StaleObject("region was destroyed")
        if self.context.destroyed:
            raise StaleObject("region's context was destroyed")

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """True when *address* falls inside the region."""
        return self.address <= address < self.end

    def segment_offset(self, address: int) -> int:
        """Offset in the segment of virtual *address* (section 4.1.2)."""
        if not self.contains(address):
            raise InvalidOperation(f"{address:#x} outside region")
        return self.offset + (address - self.address)

    def page_addresses(self):
        """Page-aligned virtual addresses covering the region."""
        return page_range(self.address, self.size, self.context.pvm.page_size)

    # -- Table 2 --------------------------------------------------------------------

    def split(self, offset: int) -> "PvmRegion":
        self._check_live()
        return self.context.pvm.region_split(self, offset)

    def set_protection(self, protection: Protection) -> None:
        self._check_live()
        self.context.pvm.region_set_protection(self, protection)

    def lock_in_memory(self) -> None:
        self._check_live()
        self.context.pvm.region_lock(self, lock=True)

    def unlock(self) -> None:
        """Undo lockInMemory (faults may occur again)."""
        self._check_live()
        self.context.pvm.region_lock(self, lock=False)

    def status(self) -> RegionStatus:
        """Table 2 status(): address/size/protection/cache/offset/residency."""
        self._check_live()
        # O(resident): one range query on the per-space index instead
        # of probing the MMU once per page of the region.
        resident = self.context.pvm.hw.resident_count(
            self.context.space, self.address, self.size)
        return RegionStatus(
            address=self.address,
            size=self.size,
            protection=self.protection,
            cache=self.cache,
            offset=self.offset,
            locked=self.locked,
            resident_pages=resident,
        )

    def destroy(self) -> None:
        self._check_live()
        self.context.pvm.region_destroy(self)

    def __repr__(self) -> str:
        return (
            f"PvmRegion([{self.address:#x}, {self.end:#x}) -> "
            f"{self.cache.name}+{self.offset:#x}, {self.protection!r})"
        )
