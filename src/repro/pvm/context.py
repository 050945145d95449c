"""PVM context descriptors (Figure 2).

A context descriptor refers to the regions it contains, held in an
interval map keyed by [address, end) (section 4.1.1's sorted region
list, in extent form): point and range queries are binary searches over
disjoint extents, and membership never requires scanning the region
list.  There is a global list of all context descriptors on the host
(held by the PVM), indexed by hardware address-space id for fault
dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import StaleObject
from repro.extents import IntervalMap
from repro.gmi.interface import Context
from repro.gmi.types import Protection

if TYPE_CHECKING:  # pragma: no cover
    from repro.pvm.cache import PvmCache
    from repro.pvm.pvm import PagedVirtualMemory
    from repro.pvm.region import PvmRegion


class PvmContext(Context):
    """A protected address space managed by the PVM."""

    def __init__(self, pvm: "PagedVirtualMemory", space: int,
                 name: Optional[str] = None):
        self.pvm = pvm
        self.space = space
        self.name = name or f"ctx{space}"
        #: regions as an interval map [address, end) -> PvmRegion
        #: (section 4.1.1).
        self._map: IntervalMap = IntervalMap()
        self.destroyed = False

    def _check_live(self) -> None:
        if self.destroyed:
            raise StaleObject(f"context {self.name} was destroyed")

    # -- region map maintenance ---------------------------------------------------

    @property
    def regions(self) -> List["PvmRegion"]:
        """The context's regions, sorted by start address (a snapshot;
        the backing store is the interval map)."""
        return list(self._map.values())

    def _insert_region(self, region: "PvmRegion") -> None:
        self._map.add(region.address, region.end, region)

    def _remove_region(self, region: "PvmRegion") -> None:
        self._map.remove(region.address)

    def _resize_region(self, region: "PvmRegion") -> None:
        """Re-key a region whose ``size`` changed (region_split shrinks
        the lower half in place)."""
        self._map.set_end(region.address, region.end)

    def _region_at(self, address: int) -> Optional["PvmRegion"]:
        """Region containing *address*, or None (internal point query
        — no staleness check)."""
        return self._map.get(address)

    # -- Table 2 -----------------------------------------------------------------------

    def region_create(self, address: int, size: int, *,
                      protection: Protection, cache: "PvmCache",
                      offset: int = 0,
                      advice: Optional[str] = None) -> "PvmRegion":
        """Map *cache* at [address, address+size); the option arguments
        are keyword-only (docs/API.md)."""
        self._check_live()
        return self.pvm.region_create(self, address, size, protection,
                                      cache, offset, advice=advice)

    def get_region_list(self) -> List["PvmRegion"]:
        self._check_live()
        return list(self._map.values())

    def regions_overlapping(self, address: int,
                            size: int) -> List["PvmRegion"]:
        """Regions overlapping [address, address+size), sorted by start
        address — the canonical range query (docs/API.md)."""
        self._check_live()
        return [region for _, _, region
                in self._map.overlapping(address, address + size)]

    def allocate_address(self, size: int, start_hint: int = 0) -> int:
        """First page-aligned gap of *size* bytes at or after *start_hint*.

        A convenience for upper layers (the Nucleus's rgnAllocate lets
        the system choose the address).
        """
        self._check_live()
        page = self.pvm.page_size
        candidate = max(start_hint, page)        # keep page 0 unmapped
        candidate = (candidate + page - 1) & ~(page - 1)
        for start, end, _ in self._map.items():
            if candidate + size <= start:
                break
            if end > candidate:
                candidate = (end + page - 1) & ~(page - 1)
        return candidate

    def switch(self) -> None:
        self._check_live()
        self.pvm.context_switch(self)

    def destroy(self) -> None:
        self._check_live()
        self.pvm.context_destroy(self)

    def __repr__(self) -> str:
        return f"PvmContext({self.name}, {len(self._map)} regions)"
