"""The Paged Virtual Memory manager: a complete GMI implementation.

``PagedVirtualMemory`` assembles the mixins of this package around the
data structures of section 4.1.1: the global context list, per-context
sorted region lists, cache descriptors, real page descriptors, and the
single global map.  A key property asserted by the test suite: the
size of these structures depends only on the amount of physical memory
in use, never on the size of segments or address spaces.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from repro.cache.engine import CacheEngine
from repro.cache.eviction import EvictionPolicy
from repro.engine import (
    AdmissionGate, FaultPipeline, InFlightTable, IoScheduler,
)
from repro.pressure import FrameArbiter
from repro.errors import InvalidOperation, StaleObject
from repro.gmi.interface import MemoryManager
from repro.gmi.types import Protection
from repro.cache.provider import SegmentProvider, ZeroFillProvider
from repro.kernel.clock import CostEvent, VirtualClock
from repro.kernel.sync import HostSync, NullSync
from repro.obs import PressureBoard, Probe
from repro.pvm.cache import PvmCache
from repro.pvm.cacheops import CacheOpsMixin
from repro.pvm.context import PvmContext
from repro.pvm.fault import FaultMixin
from repro.pvm.global_map import GlobalMap
from repro.pvm.history import HistoryMixin
from repro.pvm.hw_interface import (
    MMU, HardwareLayer, PhysicalMemory, build_bus, build_mmu,
    build_physical_memory,
)
from repro.pvm.pageout import PageoutMixin
from repro.pvm.pervpage import PerPageMixin
from repro.pvm.region import PvmRegion
from repro.units import DEFAULT_PAGE_SIZE, DEFAULT_PHYSICAL_MEMORY, KB


class PagedVirtualMemory(HistoryMixin, PerPageMixin, CacheOpsMixin,
                         FaultMixin, PageoutMixin, MemoryManager):
    """The PVM (section 4): demand paging, history objects, per-page COW.

    Parameters
    ----------
    memory, mmu:
        Simulated hardware; created with defaults when omitted.
    clock:
        Virtual clock; a free-running (zero-cost) one by default.
    sync:
        Host synchronization interface (section 2).  The default
        :class:`NullSync` suits single-threaded deterministic runs;
        pass :class:`~repro.kernel.sync.ThreadedSync` when mappers
        respond asynchronously.
    per_page_threshold:
        Copies of at most this many bytes use the per-virtual-page
        technique under ``CopyPolicy.AUTO``; larger ones build history
        trees (section 4's "relatively small amounts" rule of thumb).
    default_provider:
        Segment provider adopted by caches the PVM creates unilaterally
        (working/history objects) via the segmentCreate upcall.
    """

    name = "pvm"

    #: Events charged per tree hop / merged page.  The Mach-style
    #: baseline re-uses the same machinery but prices its chain hops
    #: as shadow lookups (see :mod:`repro.mach`).
    LOOKUP_EVENT = CostEvent.HISTORY_LOOKUP
    MERGE_EVENT = CostEvent.HISTORY_MERGE_PAGE

    def __init__(self,
                 memory: Optional[PhysicalMemory] = None,
                 mmu: Optional[MMU] = None,
                 clock: Optional[VirtualClock] = None,
                 sync: Optional[HostSync] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 memory_size: int = DEFAULT_PHYSICAL_MEMORY,
                 tlb_entries: Optional[int] = None,
                 per_page_threshold: int = 64 * KB,
                 default_provider: Optional[SegmentProvider] = None,
                 reclaim_batch: int = 8,
                 replacement_policy=None,
                 probe: Optional[Probe] = None,
                 arbiter: Optional[FrameArbiter] = None):
        self.memory = memory or build_physical_memory(memory_size, page_size)
        self.clock = clock or VirtualClock()
        if mmu is None:
            mmu = build_mmu(self.memory.page_size, tlb_entries,
                            registry=self.clock.registry)
        else:
            # An externally-built MMU brings its own walk (and TLB)
            # statistics: adopt them into the shared registry.
            mmu.bind_registry(self.clock.registry)
        if mmu.page_size != self.memory.page_size:
            raise InvalidOperation("MMU and memory disagree on page size")
        self.mmu = mmu
        self.probe = probe or Probe(registry=self.clock.registry)
        self.probe.bind_clock(self.clock)
        #: the pressure observatory: per-space ledgers plus PSI-style
        #: stall windows.  Reads the clock, never charges it.
        self.pressure = PressureBoard(self.probe.registry, self.clock.now,
                                      page_size=self.memory.page_size)
        self.sync_factory = sync or NullSync()
        self.lock = self.sync_factory.lock()
        self.hw = HardwareLayer(self.mmu, self.clock)
        self.bus = build_bus(self.memory, self.mmu, self.handle_fault)
        #: the shared staged fault-resolution pipeline (repro.engine);
        #: all three backends resolve faults through it.
        self.engine = FaultPipeline(self)
        #: the mapper I/O router (repro.engine): every mapper-backed
        #: read/write routes through it, synchronously on the caller.
        self.io = IoScheduler()
        #: the in-flight table: one entry per extent being pulled;
        #: concurrent faulters on its pages coalesce onto the entry's
        #: shared condition instead of re-pulling.
        self.inflight = InFlightTable(self.sync_factory, self.lock,
                                      page_size=self.memory.page_size,
                                      probe=self.probe)
        self.global_map = GlobalMap(self.memory.page_size)
        self.default_provider = default_provider or ZeroFillProvider()
        self.per_page_threshold = per_page_threshold
        self.reclaim_batch = reclaim_batch

        #: the global list of context descriptors (section 4.1.1),
        #: indexed by hardware address-space id for fault dispatch.
        self._space_contexts: Dict[int, PvmContext] = {}
        self._caches: Dict[int, PvmCache] = {}
        self._next_cache_id = 1
        #: the unified cache subsystem (repro.cache): shared residency
        #: index, pluggable eviction policy (second-chance clock by
        #: default) and the ranged pullIn/pushOut drivers.
        self.cache_engine = CacheEngine(self, policy=replacement_policy,
                                        arbiter=arbiter)
        self.residency = self.cache_engine.residency
        #: the frame arbiter (repro.pressure): global residency budget
        #: and per-space grants.  Inert unless constructed with a
        #: budget — the default keeps every legacy path bit-identical.
        self.arbiter = self.cache_engine.arbiter
        #: the fault admission gate: present only when the arbiter
        #: carries an admission controller; checked per fault dispatch.
        qos = self.arbiter.qos
        self.admission = None if qos is None else AdmissionGate(
            qos, self.clock, board=self.pressure, probe=self.probe)
        self.current_context: Optional[PvmContext] = None

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Page size in bytes (matches the simulated hardware)."""
        return self.memory.page_size

    @property
    def policy(self) -> EvictionPolicy:
        """The eviction policy (a live view of the cache engine's)."""
        return self.cache_engine.policy

    @policy.setter
    def policy(self, policy: EvictionPolicy) -> None:
        self.cache_engine.set_policy(policy)

    @property
    def registry(self):
        """The shared metrics registry (clock, TLB, probe, tools)."""
        return self.clock.registry

    def metrics_snapshot(self) -> Dict[str, object]:
        """One uniform, JSON-serializable observability document.

        Refreshes the point-in-time gauges (residency, free frames, TLB
        hit ratio) and returns the registry snapshot wrapped with run
        metadata — the same shape for every backend, pinned by
        ``repro.obs.schema.SNAPSHOT_SCHEMA``.
        """
        probe = self.probe
        probe.gauge("mem.resident_pages", self.resident_page_count)
        probe.gauge("mem.free_frames", self.memory.free_frames)
        probe.gauge("vm.contexts", len(self._space_contexts))
        probe.gauge("vm.caches", len(self._caches))
        tlb = getattr(self.mmu, "tlb", None)
        if tlb is not None:
            probe.gauge("tlb.hit_ratio", tlb.hit_rate())
            probe.gauge("tlb.occupancy", tlb.occupancy)
        probe.gauge("engine.inflight.depth", self.inflight.depth)
        self._publish_pressure()
        snapshot = probe.registry.snapshot()
        return {
            "meta": {
                "manager": self.name,
                "virtual_ms": self.clock.now(),
                "generation": snapshot.pop("generation"),
                "page_size": self.page_size,
            },
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
        }

    def _publish_pressure(self) -> None:
        """Refresh the pressure observatory's snapshot-time gauges:
        per-space residency (resident cache pages under the space's
        regions, plus live hardware translations) and the ``psi.*``
        stall windows."""
        board = self.pressure
        if not board.registry.enabled:
            return
        offsets_of: Dict[int, List[int]] = {}
        for context in self._space_contexts.values():
            space = context.space
            resident = 0
            mapped = 0
            for region in context.regions:
                cache_id = region.cache.cache_id
                offsets = offsets_of.get(cache_id)
                if offsets is None:
                    offsets = offsets_of[cache_id] = \
                        sorted(self.residency.pages_of(cache_id))
                resident += (
                    bisect_left(offsets, region.offset + region.size)
                    - bisect_left(offsets, region.offset))
                mapped += self.hw.resident_count(space, region.address,
                                                 region.size)
            board.set_residency(space, resident, mapped)
        board.publish()
        self.arbiter.publish(board.registry)

    def contexts(self):
        """Live contexts, in creation order."""
        return list(self._space_contexts.values())

    def caches(self):
        """Live caches (including dead-but-referenced history nodes)."""
        return list(self._caches.values())

    # ------------------------------------------------------------------
    # Contexts (Table 2)
    # ------------------------------------------------------------------

    def context_create(self, name: Optional[str] = None) -> PvmContext:
        """Table 2 contextCreate: a fresh protected address space."""
        with self.lock:
            self.clock.charge(CostEvent.CONTEXT_CREATE)
            space = self.hw.create_space()
            context = PvmContext(self, space, name)
            self._space_contexts[space] = context
            if self.current_context is None:
                self.current_context = context
            return context

    def context_switch(self, context: PvmContext) -> None:
        """Table 2 switch: set the current user context."""
        with self.lock:
            self.clock.charge(CostEvent.CONTEXT_SWITCH)
            self.current_context = context

    def context_destroy(self, context: PvmContext) -> None:
        """Destroy a context and every region in it."""
        with self.lock:
            for region in list(context.regions):
                self.region_destroy(region)
            self.hw.destroy_space(context.space)
            del self._space_contexts[context.space]
            self.pressure.drop_space(context.space)
            self.arbiter.drop_space(context.space)
            context.destroyed = True
            if self.current_context is context:
                self.current_context = None

    # ------------------------------------------------------------------
    # Regions (Table 2)
    # ------------------------------------------------------------------

    def region_create(self, context: PvmContext, address: int, size: int,
                      protection: Protection, cache: PvmCache,
                      offset: int, advice: Optional[str] = None) -> PvmRegion:
        """Table 2 regionCreate: map a cache window into a context.

        *advice* is an optional residency hint: ``"willneed"`` pulls the
        window's pages resident immediately (the paging equivalent of
        madvise) through the ranged pullIn upcall.
        """
        if advice not in (None, "willneed"):
            raise InvalidOperation(f"unknown region advice {advice!r}")
        with self.lock:
            page = self.page_size
            if address % page or offset % page:
                raise InvalidOperation(
                    "region address and segment offset must be page-aligned"
                )
            if size <= 0 or size % page:
                raise InvalidOperation(
                    "region size must be a positive multiple of the page size"
                )
            if cache.destroyed:
                raise StaleObject("cannot map a destroyed cache")
            end = address + size
            overlapping = context.regions_overlapping(address, size)
            if overlapping:
                raise InvalidOperation(
                    f"region [{address:#x}, {end:#x}) overlaps "
                    f"{overlapping[0]!r}"
                )
            self.clock.charge(CostEvent.REGION_CREATE)
            region = PvmRegion(context, address, size, protection, cache,
                               offset)
            context._insert_region(region)
            if advice == "willneed":
                self._prefetch_range(cache, offset, size)
            return region

    def region_destroy(self, region: PvmRegion) -> None:
        """Unmap the region (invalidation work scales with its size)."""
        with self.lock:
            self.clock.charge(CostEvent.REGION_DESTROY)
            # Invalidate the whole virtual range: work proportional to
            # the region size (the paper's measured scaling).
            self.hw.unmap_range(region.context.space, region.address,
                                region.size)
            region.context._remove_region(region)
            region.destroyed = True

    def region_split(self, region: PvmRegion, offset: int) -> PvmRegion:
        """Cut a region in two at *offset*; never spontaneous."""
        with self.lock:
            if offset % self.page_size or not 0 < offset < region.size:
                raise InvalidOperation(
                    "split offset must be page-aligned and inside the region"
                )
            self.clock.charge(CostEvent.REGION_CREATE)
            upper = PvmRegion(
                region.context,
                region.address + offset,
                region.size - offset,
                region.protection,
                region.cache,
                region.offset + offset,
            )
            upper.touched = region.touched
            upper.locked = region.locked
            region.size = offset
            region.context._resize_region(region)
            region.context._insert_region(upper)
            return upper

    def region_set_protection(self, region: PvmRegion,
                              protection: Protection) -> None:
        """Change a whole region's protection, fixing live mappings."""
        with self.lock:
            region.protection = protection
            space = region.context.space
            # Only resident translations need fixing: the per-space
            # index hands them over in ascending order, so the charge
            # stream matches the old whole-range walk while the cost is
            # O(resident), not O(region pages).
            for vaddr in self.hw.resident_addresses(space, region.address,
                                                    region.size):
                page = self.hw.mapping_of(space, vaddr)
                offset = region.segment_offset(vaddr)
                prot = protection.to_hardware()
                prot &= self._prot_cap_at(region.cache, offset).to_hardware()
                if page.cache is not region.cache \
                        or self._needs_guard_resolution(region.cache, offset) \
                        or page.cow_stubs or not page.write_granted:
                    prot &= ~Protection.WRITE.to_hardware()
                if not prot:
                    self.hw.unmap_page(space, vaddr)
                else:
                    self.hw.protect_mapping(space, vaddr, prot)
                    self.clock.charge(CostEvent.PAGE_PROTECT)

    def region_lock(self, region: PvmRegion, lock: bool) -> None:
        """Pin (or unpin) a region: the lockInMemory guarantee."""
        with self.lock:
            context = region.context
            for vaddr in region.page_addresses():
                offset = region.segment_offset(vaddr)
                if lock:
                    if region.protection & Protection.WRITE:
                        # A locked writable region must never fault, so
                        # resolve deferred copies now.
                        page = self._get_writable_page(region.cache, offset)
                    else:
                        page = self._page_for_explicit_read(region.cache,
                                                            offset)
                    page.pin_count += 1
                    self._resolve_mapped(context, region, region.cache,
                                         offset, vaddr,
                                         bool(region.protection
                                              & Protection.WRITE))
                else:
                    page = self.hw.mapping_of(context.space, vaddr)
                    if page is not None and page.pin_count > 0:
                        page.pin_count -= 1
            region.locked = lock

    # ------------------------------------------------------------------
    # Caches (Table 1)
    # ------------------------------------------------------------------

    def cache_create(self, provider: SegmentProvider, *, segment=None,
                     name: Optional[str] = None,
                     is_history: bool = False) -> PvmCache:
        with self.lock:
            self.clock.charge(CostEvent.CACHE_CREATE)
            cache = PvmCache(self, self._next_cache_id, provider,
                             segment=segment, name=name,
                             is_history=is_history)
            self._caches[cache.cache_id] = cache
            self._next_cache_id += 1
            return cache

    def cache_destroy(self, cache: PvmCache) -> None:
        """Destroy a cache.

        If copies still depend on it (it has children in the history
        tree), the descriptor is kept as a *dead* node holding the
        remaining original data — "remaining unmodified source data
        must be kept until the copy is deleted" (section 4.2.2) — and
        is reaped when the last child goes away.
        """
        with self.lock:
            if cache.children:
                cache.dead = True
                for page in list(cache.pages.values()):
                    self.hw.shootdown(page)
                return
            self._release_cache(cache)

    def _release_cache(self, cache: PvmCache) -> None:
        """Final destruction: free pages, unlink from the tree."""
        # Per-page stubs that reference this cache's data must get
        # their private copies before the data goes away.
        for stub in list(cache.incoming_stubs):
            self._resolve_cow_stub_write(stub)
        for page in list(cache.pages.values()):
            self._drop_page(page, save=False)
        # Our own stubs go too, before a reaped source could
        # materialize them into this dead cache.
        for stub in list(cache.own_stubs):
            stub.unthread()
            self.global_map.discard(cache, stub.offset)

        parents = {link.cache for link in cache.parents.values()}
        cache.parents.clear()
        cache.owned.clear()
        for parent in parents:
            parent.children.discard(cache)
            # A source whose history object dies no longer needs to
            # preserve pre-images for it.
            parent.guards.retain(lambda link: link.cache is not cache)
            self._reap_if_dead(parent)
        cache.guards.clear()
        cache.destroyed = True
        self._caches.pop(cache.cache_id, None)
        self.residency.release(cache.cache_id)
        self.inflight.release(cache.cache_id)

    def _reap_if_dead(self, cache: PvmCache) -> None:
        """Cascade-release nodes whose last child disappeared.

        Dead nodes (destroyed sources kept for their copies) and
        childless working objects both go: a history object's
        pre-images exist *for* the copies, so with no descendant left
        it serves nobody and its source's guards dissolve with it.
        """
        if cache.destroyed or cache.children:
            return
        if cache.dead or cache.is_history:
            self._release_cache(cache)

    # ------------------------------------------------------------------
    # User-level access convenience (drives the bus / fault path)
    # ------------------------------------------------------------------

    def user_read(self, context: PvmContext, vaddr: int, size: int,
                  supervisor: bool = False) -> bytes:
        """Read from a context's address space as its program would.

        Pass ``supervisor=True`` for kernel-mode accesses: those may
        touch SYSTEM-protected regions that trap for user mode.
        """
        return self.bus.read(context.space, vaddr, size,
                             supervisor=supervisor)

    def user_write(self, context: PvmContext, vaddr: int, data: bytes,
                   supervisor: bool = False) -> None:
        """Write into a context's address space as its program would."""
        self.bus.write(context.space, vaddr, data, supervisor=supervisor)

    def __repr__(self) -> str:
        return (
            f"PagedVirtualMemory({len(self._space_contexts)} contexts, "
            f"{len(self._caches)} caches, "
            f"{self.resident_page_count} resident pages)"
        )
