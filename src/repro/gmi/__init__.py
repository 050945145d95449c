"""The Generic Memory management Interface (GMI).

This package defines, as abstract Python classes, the interface of
section 3.3 of the paper:

* Table 1 — segment access through local caches (copy / move /
  regionCreate / destroy);
* Table 2 — address-space management (contexts and regions);
* Table 3 — upcalls from the memory manager to segment managers
  (pullIn / getWriteAccess / pushOut / segmentCreate);
* Table 4 — cache management downcalls (fillUp / copyBack / moveBack /
  flush / sync / invalidate / setProtection / lockInMemory).

Everything **below** the GMI (contexts, regions, local caches) is
implemented by a memory manager — :mod:`repro.pvm` (history objects),
:mod:`repro.mach` (shadow objects, the comparison baseline) — while
segments live **above** it, provided by the host kernel's segment
manager (:mod:`repro.nucleus.segment_manager`).
"""

from repro.gmi.types import AccessMode, CacheStatistics, Protection, RegionStatus
from repro.gmi.interface import (
    Cache,
    Context,
    MemoryManager,
    Region,
)
from repro.cache.provider import SegmentProvider, ZeroFillProvider

__all__ = [
    "AccessMode",
    "CacheStatistics",
    "Protection",
    "RegionStatus",
    "Cache",
    "Context",
    "MemoryManager",
    "Region",
    "SegmentProvider",
    "ZeroFillProvider",
]
