"""Abstract GMI operations (Tables 1, 2 and 4 of the paper).

These classes define the *contract* between the kernel layers above
the GMI and a memory manager below it.  Two complete memory managers
implement this interface in the repository:

* :class:`repro.pvm.pvm.PagedVirtualMemory` — the paper's PVM, using
  history objects and per-virtual-page stubs for deferred copy;
* :class:`repro.mach.mach_vm.MachVirtualMemory` — the Mach-style
  baseline using shadow objects (section 4.2.5's comparison);
* :class:`repro.mach.eager.EagerVirtualMemory` — a no-deferred-copy
  strawman.

Because the interface is generic, the Nucleus, the Chorus/MIX Unix
layer, the IPC path and every experiment run unchanged on any of the
three — which is precisely the paper's "replaceable unit" claim.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from repro.gmi.types import CacheStatistics, Protection, RegionStatus
from repro.cache.provider import SegmentProvider
from repro.hardware.mmu import FaultRecord


class CopyPolicy(enum.Enum):
    """How a deferred copy between caches is implemented.

    ``AUTO`` follows the paper's rule of thumb: history objects for
    large data (e.g. a Unix data segment), the per-virtual-page
    technique for relatively small amounts (e.g. an IPC message).
    """

    AUTO = "auto"
    HISTORY = "history"        # section 4.2
    PER_PAGE = "per_page"      # section 4.3
    EAGER = "eager"            # immediate physical copy


class Cache:
    """A *local cache*: the real memory in use for one segment.

    Created by :meth:`MemoryManager.cache_create`; accessed both by
    mapping (``Context.region_create``) and by explicit copy/move —
    the single, consistent cache that solves the dual-caching problem
    (section 3.2).
    """

    # -- Table 1: segment access ------------------------------------------------

    def copy(self, src_offset: int, dst: "Cache", dst_offset: int,
             size: int, *, policy: CopyPolicy = CopyPolicy.AUTO,
             on_reference: bool = False) -> None:
        """Copy data from this cache (segment) into *dst*.

        With a deferring *policy* the data movement is delayed until a
        write (copy-on-write) or until any access (*on_reference*).
        The operation may cause faults (pull-ins) and block.

        The option arguments are keyword-only (canonical signature,
        docs/API.md).
        """
        raise NotImplementedError

    def move(self, src_offset: int, dst: "Cache", dst_offset: int, size: int) -> None:
        """Like :meth:`copy` but the source contents become undefined,
        allowing page re-assignment instead of copying when alignment
        permits."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Discard the cache and its real memory."""
        raise NotImplementedError

    # -- explicit data access (unified read/write on the same cache) --------------

    def read(self, offset: int, size: int) -> bytes:
        """Read bytes through the cache (faulting data in as needed)."""
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        """Write bytes through the cache."""
        raise NotImplementedError

    # -- Table 4: cache management, called by segment managers ---------------------

    def fill_up(self, offset: int, data: bytes) -> None:
        """Provide data requested by a ``pullIn`` upcall.

        Unlike :meth:`write`, this *resolves* a fault: it replaces the
        synchronization page stub and wakes sleepers; it never faults
        itself.
        """
        raise NotImplementedError

    def copy_back(self, offset: int, size: int) -> bytes:
        """Collect data requested by a ``pushOut`` upcall."""
        raise NotImplementedError

    def move_back(self, offset: int, size: int) -> bytes:
        """Like :meth:`copy_back` but the cached copy is surrendered."""
        raise NotImplementedError

    def flush(self, offset: int, size: int) -> None:
        """Push dirty data out and drop it from the cache."""
        raise NotImplementedError

    def sync(self, offset: int, size: int) -> None:
        """Push dirty data out; keep it cached."""
        raise NotImplementedError

    def invalidate(self, offset: int, size: int) -> None:
        """Drop cached data without saving it."""
        raise NotImplementedError

    def set_protection(self, offset: int, size: int, protection: Protection) -> None:
        """Cap the access rights of cached data (coherence protocols)."""
        raise NotImplementedError

    def lock_in_memory(self, offset: int, size: int) -> None:
        """Pin cached data (may cause pull-ins)."""
        raise NotImplementedError

    def unlock(self, offset: int, size: int) -> None:
        """Undo :meth:`lock_in_memory`."""
        raise NotImplementedError

    # -- introspection ---------------------------------------------------------------

    @property
    def statistics(self) -> CacheStatistics:
        """Occupancy and traffic counters of this cache."""
        raise NotImplementedError

    def resident_extents(self) -> Sequence[tuple]:
        """Resident data as sorted, disjoint ``(offset, length)`` byte
        runs — the canonical residency introspection (docs/API.md)."""
        raise NotImplementedError


class Region:
    """A contiguous portion of a context's virtual address space,
    mapped to a segment through a local cache (Table 2)."""

    def split(self, offset: int) -> "Region":
        """Cut the region in two at *offset* (relative to the region
        start); return the new upper region.  Splitting never happens
        spontaneously, so upper layers can track regions reliably."""
        raise NotImplementedError

    def set_protection(self, protection: Protection) -> None:
        """Change the hardware protection of the whole region."""
        raise NotImplementedError

    def lock_in_memory(self) -> None:
        """Pin the region: subsequent access never faults and MMU maps
        stay fixed (the real-time guarantee)."""
        raise NotImplementedError

    def unlock(self) -> None:
        """Undo :meth:`lock_in_memory`."""
        raise NotImplementedError

    def status(self) -> RegionStatus:
        """Address, size, protection, cache, offset, residency."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Unmap the cache from the context."""
        raise NotImplementedError


class Context:
    """A protected virtual address space (Table 2)."""

    def region_create(self, address: int, size: int, *,
                      protection: Protection, cache: Cache,
                      offset: int = 0,
                      advice: Optional[str] = None) -> Region:
        """Map *cache* (a window of its segment starting at *offset*)
        at [address, address+size).

        The option arguments are keyword-only (canonical signature,
        docs/API.md): *protection* and *cache* are required, *offset*
        defaults to the segment start, and *advice* is an optional
        residency hint (``"willneed"`` pulls the window in at once).
        """
        raise NotImplementedError

    def get_region_list(self) -> List[Region]:
        """Regions of the context, sorted by start address."""
        raise NotImplementedError

    def regions_overlapping(self, address: int, size: int) -> List[Region]:
        """Regions overlapping [address, address+size), sorted by
        start address — the canonical range query (docs/API.md)."""
        raise NotImplementedError

    def switch(self) -> None:
        """Make this the current user context."""
        raise NotImplementedError

    def destroy(self) -> None:
        """Destroy the address space (and unmap all its regions)."""
        raise NotImplementedError


class MemoryManager:
    """A complete GMI implementation (the unit below the interface)."""

    #: Human-readable implementation name ("pvm", "mach-shadow", "eager").
    name = "abstract"

    def cache_create(self, provider: SegmentProvider, *,
                     segment=None) -> Cache:
        """Bind a segment (represented by its *provider*) to a new,
        empty local cache (Table 1's cacheCreate).

        Option arguments are keyword-only (canonical signature,
        docs/API.md)."""
        raise NotImplementedError

    def metrics_snapshot(self) -> dict:
        """One coherent document of every metric the manager keeps:
        ``{"meta", "counters", "gauges", "histograms"}`` (see
        docs/OBSERVABILITY.md and docs/obs_snapshot.schema.json)."""
        raise NotImplementedError

    def context_create(self) -> Context:
        """Create an empty context (address space)."""
        raise NotImplementedError

    def handle_fault(self, fault: FaultRecord) -> None:
        """Page-fault entry point (installed into the memory bus)."""
        raise NotImplementedError

    @property
    def page_size(self) -> int:
        """Page size of the underlying hardware, in bytes."""
        raise NotImplementedError
