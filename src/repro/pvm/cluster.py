"""Read-ahead prefaulting: the PVM side of fault clustering.

The policy and the index live in :mod:`repro.engine.cluster`; this
mixin owns the mechanism.  After a fault resolves, the policy may open
a read-ahead window; the pages in it are pulled with **one** ranged
provider upcall whose cost events are *captured* — diverted off the
virtual clock — and then parked as invisible
:class:`~repro.engine.cluster.PrefaultEntry` records.  Nothing else in
the manager can observe them: they are absent from the global map,
from the cache's resident set and from the residency index, so every
copy/flush/eviction/ pageout decision is bit-identical to the
unclustered run.  The page still traps on first touch; the fault path
then *adopts* the entry — replaying the captured per-page charges and
installing the page exactly as a fresh one-page pull would — so the
virtual clock and all mechanism counts stay golden while the provider
saw one upcall instead of N.

Two escape hatches protect the accounting:

* a provider whose ranged upcall is not a per-page-uniform charge
  stream (one IPC send for the whole range, say) fails the
  even-split check; the cluster is abandoned — frames freed with no
  cost event, since the unclustered run never allocated them — and
  the cache is remembered as non-uniform so it is never retried;
* prefaulting never allocates into the reclaim reserve, so it cannot
  trigger an eviction the unclustered run would not have performed.
"""

from __future__ import annotations

from repro.engine.cluster import (
    ClusterIndex, NoCluster, PrefaultEntry, make_policy, split_uniform,
)
from repro.gmi.types import AccessMode, Protection
from repro.kernel.clock import CostEvent
from repro.pvm.hw_interface import Prot
from repro.pvm.page import RealPageDescriptor


class ClusterMixin:
    """Prefault execution, adoption and cancellation for the PVM."""

    #: Free frames the prefaulter must leave untouched, so speculative
    #: pulls never push the manager into a reclaim the unclustered
    #: execution would not have done.
    CLUSTER_FRAME_RESERVE = 8

    # Class-level defaults so FaultMixin/CacheOps hooks are safe even
    # on managers built without _cluster_init having run.
    _cluster_on = False
    _cluster_fill = None

    def _cluster_init(self, policy_spec) -> None:
        self.cluster_policy = make_policy(policy_spec)
        self._cluster_index = ClusterIndex()
        #: active fill redirection: (cache, lo, hi, frames, zeros)
        self._cluster_fill = None
        self._cluster_on = not isinstance(self.cluster_policy, NoCluster)

    # -- prefault (runs after a resolved fault) -------------------------

    def _cluster_after_fault(self, region, cache, offset: int,
                             write: bool) -> None:
        """Consult the policy and, if a window opens, prefault it."""
        if region is None or cache is None or offset is None:
            return
        window = self.cluster_policy.window(region, offset,
                                            self.page_size)
        if window <= 0:
            return
        provider = cache.provider
        if provider is None or not getattr(provider, "batched", False):
            return
        if cache.is_history or getattr(cache, "_cluster_nonuniform",
                                       False):
            return
        self._cluster_prefault(cache, region, offset, window, write)

    def _cluster_prefault(self, cache, region, fault_offset: int,
                          window: int, write: bool) -> None:
        page_size = self.page_size
        global_map = self.global_map
        index = self._cluster_index
        region_end = region.offset + region.size
        # The leading contiguous pullable run after the faulting page;
        # same predicate as the fault path's own pull decision, so an
        # adopted entry resolves exactly like the pull it replaces.
        offsets = []
        offset = fault_offset + page_size
        while len(offsets) < window and offset + page_size <= region_end:
            if global_map.lookup(cache, offset) is not None \
                    or index.lookup(cache, offset) is not None \
                    or (offset not in cache.owned
                        and cache.parents.find(offset) is not None):
                break
            offsets.append(offset)
            offset += page_size
        if not offsets:
            return
        headroom = self.memory.free_frames - self.CLUSTER_FRAME_RESERVE
        if headroom < len(offsets):
            if headroom <= 0:
                return
            del offsets[headroom:]
        pages = len(offsets)
        start = offsets[0]
        size = pages * page_size
        mode = AccessMode.WRITE if write else AccessMode.READ
        frames: dict = {}
        zeros: dict = {}
        capture = self.clock.capture()
        self._cluster_fill = (cache, start, start + size, frames, zeros)
        try:
            with capture:
                # The per-page upcall overhead first, exactly as the
                # cache engine charges it for every one-page pull.
                for _ in range(pages):
                    self.clock.charge(CostEvent.PULL_IN)
                cache.provider.pull_in(cache, start, size, mode)
        except BaseException:
            # Speculation must never turn into a fault-path error.
            self._cluster_drop_frames(frames)
            return
        finally:
            self._cluster_fill = None
        per_page = split_uniform(capture.charges, pages)
        if per_page is None or len(frames) != pages:
            # Non-uniform provider (or partial fill): abandon silently
            # and never try this cache again.
            self._cluster_drop_frames(frames)
            cache._cluster_nonuniform = True
            return
        for page_offset in offsets:
            index.insert(cache, page_offset, PrefaultEntry(
                frames[page_offset], per_page,
                zeros.get(page_offset, False)))
        self.probe.count("engine.cluster.window", pages,
                         policy=self.cluster_policy.name)

    def _cluster_redirect_fill(self, cache, offset: int, data: bytes,
                               zero: bool) -> bool:
        """Intercept a provider fill aimed at the active prefault
        window; True when the fill was absorbed."""
        fill = self._cluster_fill
        if fill is None:
            return False
        fill_cache, lo, hi, frames, zeros = fill
        if cache is not fill_cache or not lo <= offset < hi:
            return False
        frame = frames.get(offset)
        if frame is None:
            # Raw allocation on purpose: inside a capture the reclaim
            # path must be unreachable (its charges would be diverted),
            # so OutOfFrames aborts the speculation instead.
            frame = self.memory.allocate_frame()
            self.clock.charge(CostEvent.FRAME_ALLOC)
            frames[offset] = frame
        if zero:
            self.memory.zero_frame(frame)
            self.clock.charge(CostEvent.BZERO_PAGE)
        else:
            self.memory.write_frame(frame, data)
            self.clock.charge(CostEvent.BCOPY_PAGE)
        zeros[offset] = zero
        return True

    # -- the clustered-fault fast path ----------------------------------

    def _cluster_fast_fault(self, fault) -> bool:
        """Resolve a fault whose page is parked in the prefault index
        without building a task or walking the staged pipeline.

        Returns True when the fault was fully handled.  The path is
        taken only for the plain first-touch shape — real fault, no
        protection violation, no guard link, no parent chain, write
        capability already granted — and emits *exactly* the clock
        charges and counter increments the staged pipeline would for
        that shape, so virtual time and metrics stay golden.  Anything
        unusual falls back to the pipeline before any state changes.
        """
        index = self._cluster_index
        if not index or fault.protection_violation:
            return False
        context = self._space_contexts.get(fault.space)
        if context is None:
            return False
        region = context._region_at(fault.address)
        if region is None:
            return False
        cache = region.cache
        vaddr = fault.address - (fault.address % self.page_size)
        offset = region.segment_offset(vaddr)
        if index.lookup(cache, offset) is None:
            return False
        write = fault.write
        protection = region.protection
        if protection & Protection.SYSTEM and not fault.supervisor:
            return False
        if not protection.allows(write):
            return False
        if self.global_map.lookup(cache, offset) is not None \
                or cache.guards.find(offset) is not None \
                or (offset not in cache.owned
                    and cache.parents.find(offset) is not None):
            return False
        cap = self._prot_cap_at(cache, offset)
        if write and not cap & Protection.WRITE:
            return False
        region_hw = protection.to_hardware()
        effective = (region_hw & cap.to_hardware()) \
            | (region_hw & Prot.SYSTEM)
        # A read adopt may have to drop WRITE from the translation; if
        # nothing would remain, let the pipeline raise its usual error.
        if not (effective if write else effective & ~Prot.WRITE):
            return False
        # Committed: replay the pipeline's accounting for this shape.
        probe = self.probe
        for series in self.engine.stage_series:
            probe.count(series)
        if not region.touched:
            region.touched = True
            self.clock.charge(CostEvent.FIRST_TOUCH)
        probe.count(self._fault_series[bool(write)])
        if write:
            cache.stats.write_faults += 1
            page = self._cluster_adopt(cache, offset, AccessMode.WRITE)
            if page.cow_stubs:
                self._break_stubs(page)
            page.dirty = True
            prot = effective
        else:
            cache.stats.read_faults += 1
            page = self._cluster_adopt(cache, offset, AccessMode.READ)
            prot = effective
            if page.cow_stubs or not page.write_granted:
                prot &= ~Prot.WRITE
        page.referenced = True
        self.hw.map_page(context.space, vaddr, page, prot,
                         consumer=(cache.cache_id, offset))
        self._cluster_after_fault(region, cache, offset, write)
        return True

    # -- adoption (the fault that the prefault was waiting for) ---------

    def _cluster_adopt(self, cache, offset: int, mode):
        """Turn a prefault entry into the resident page a one-page
        pull would have produced; None when no entry is parked.

        *mode* is the access mode of the adopting fault: it, not the
        mode of the fault that opened the window, decides the metric
        label and the write grant — the pull being replaced would have
        carried it.
        """
        index = self._cluster_index
        if not index:
            return None
        entry = index.pop(cache, offset)
        if entry is None:
            return None
        clock = self.clock
        for event, count in entry.charges:
            clock.charge(event, count)
        # Replicate the cache engine's per-pull bookkeeping.
        cache.stats.pull_ins += 1
        probe = self.probe
        probe.count("cache.pull_in", 1, segment=cache.name,
                    mode=mode.name.lower())
        probe.count("cache.miss", 1, segment=cache.name)
        # Prefetch bypassed CacheEngine.pull, so the per-space ledger
        # hook there never fired — replay it here so `space.pull_bytes`
        # is identical with and without clustering (parity test).
        self.pressure.pulled(1)
        granted = entry.zero or mode is AccessMode.WRITE
        page = RealPageDescriptor(cache, offset, entry.frame,
                                  write_granted=granted)
        self.global_map.insert(cache, offset, page)
        cache.owned.add(offset)
        self.hw.shootdown_served(cache, offset)
        # Detached per-page stubs re-thread onto the now-resident
        # descriptor, mirroring the ordinary fill path.
        for stub in list(cache.incoming_stubs):
            if stub.src_page is None and stub.src_cache is cache \
                    and stub.src_offset == offset:
                stub.src_page = page
                page.cow_stubs.add(stub)
        self.cache_engine.insert(page)
        probe.count("engine.cluster.faults_saved", 1, backend=self.name)
        return page

    # -- cancellation ---------------------------------------------------

    def _cluster_cancel_cache(self, cache) -> None:
        """Drop every prefault of *cache* (cache destruction)."""
        index = self._cluster_index
        if not index:
            return
        entries = index.pop_cache(cache)
        if entries:
            self._cluster_waste(entries)

    def _cluster_cancel_range(self, cache, offset: int,
                              size: int) -> None:
        """Drop the prefaults of *cache* in [offset, offset+size) —
        the content there is being replaced or invalidated."""
        index = self._cluster_index
        if not index:
            return
        entries = index.pop_range(cache, offset, size)
        if entries:
            self._cluster_waste(entries)

    def _cluster_waste(self, entries) -> None:
        memory = self.memory
        for entry in entries:
            memory.free_frame(entry.frame)
        self.probe.count("engine.cluster.wasted_prefault", len(entries))

    def _cluster_drop_frames(self, frames: dict) -> None:
        """Free aborted speculative frames with no cost event — the
        unclustered execution never allocated them."""
        memory = self.memory
        for frame in frames.values():
            memory.free_frame(frame)
        frames.clear()
