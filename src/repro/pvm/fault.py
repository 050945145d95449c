"""Page fault handling (section 4.1.2), as pipeline stages.

The hardware fault descriptor gives the faulting virtual address; the
PVM resolves it through the shared :class:`~repro.engine.FaultPipeline`
in five explicit stages:

* ``locate``      — find the region in the currently active context
  and compute the fault offset in the segment;
* ``authorize``   — region protection (real faults only) and cache
  capability checks, producing the effective hardware protection;
* ``resolve``     — classify the page source through the global map:
  resident / in-transit / deferred copy / per-page stub;
* ``materialize`` — produce the backing real page, recovering
  immediately when it is resident, sleeping on a synchronization stub
  when it is in transit, resolving deferred copies, or upcalling
  pullIn;
* ``install``     — apply COW/guard downgrades and enter the
  translation through the hardware layer.

The stage methods below are the PVM's implementation of the
:class:`~repro.engine.VmBackend` protocol; the Mach-style and minimal
backends inherit them, overriding only the cost events and primitives
underneath.
"""

from __future__ import annotations

from repro.engine import RESOLUTION_STAGES, FaultTask
from repro.errors import AccessViolation, SegmentationFault
from repro.obs.metrics import series_name
from repro.gmi.types import Protection
from repro.kernel.clock import CostEvent
from repro.pvm.cache import PvmCache
from repro.pvm.context import PvmContext
from repro.pvm.hw_interface import FaultRecord, Prot
from repro.pvm.page import CowStub
from repro.pvm.region import PvmRegion


class FaultMixin:
    """Fault dispatch and the five pipeline stages, grafted onto the PVM."""

    @property
    def _fault_series(self):
        """Cached ``(read, write)`` labeled counter keys for this
        backend — `fault.read{backend=pvm}` etc.; the registry rolls
        them up into the plain `fault.read` / `fault.write` counters."""
        series = getattr(self, "_fault_series_cache", None)
        if series is None:
            label = {"backend": self.name}
            series = self._fault_series_cache = (
                series_name("fault.read", label),
                series_name("fault.write", label),
            )
        return series

    def handle_fault(self, fault: FaultRecord) -> None:
        """Resolve one hardware fault (the bus retries the access)."""
        probe = self.probe
        pressure = self.pressure
        if probe.enabled:
            with self.lock, probe.span("fault.resolve") as span:
                span.set(space=fault.space, address=fault.address,
                         write=fault.write)
                self.clock.charge(CostEvent.FAULT_DISPATCH)
                pressure.begin_task(fault.space)
                try:
                    if self.admission is not None:
                        self.admission.admit(fault.space)
                    task = FaultTask(
                        space=fault.space,
                        address=fault.address,
                        write=fault.write,
                        supervisor=fault.supervisor,
                        protection_violation=fault.protection_violation,
                        fault=fault,
                    )
                    self.engine.run(task)
                    pressure.fault(fault.space, fault.write)
                    span.set(cache=task.cache.name, offset=task.offset)
                finally:
                    pressure.end_task()
            return
        # Tracing off — the overwhelmingly common case: no span
        # machinery at all on the per-fault hot path.
        with self.lock:
            self.clock.charge(CostEvent.FAULT_DISPATCH)
            pressure.begin_task(fault.space)
            try:
                if self.admission is not None:
                    self.admission.admit(fault.space)
                task = FaultTask(
                    space=fault.space,
                    address=fault.address,
                    write=fault.write,
                    supervisor=fault.supervisor,
                    protection_violation=fault.protection_violation,
                    fault=fault,
                )
                self.engine.run(task)
                pressure.fault(fault.space, fault.write)
            finally:
                pressure.end_task()

    def _resolve_mapped(self, context: PvmContext, region: PvmRegion,
                        cache: PvmCache, offset: int, vaddr: int,
                        write: bool) -> FaultTask:
        """Bring (cache, offset) to memory and map it at *vaddr*.

        Used by pre-located mapping requests (``region_lock`` pinning a
        page): the task enters the pipeline past ``locate``, and with
        no originating fault descriptor the region-level checks and
        fault statistics do not apply.
        """
        task = FaultTask(
            space=context.space, address=vaddr, write=write,
            context=context, region=region, cache=cache,
            vaddr=vaddr, offset=offset,
        )
        return self.engine.run(task, RESOLUTION_STAGES)

    # ------------------------------------------------------------------
    # Pipeline stages (the VmBackend protocol)
    # ------------------------------------------------------------------

    def stage_locate(self, task: FaultTask) -> None:
        """Find the context and region of the faulting address."""
        context = self._space_contexts.get(task.space)
        if context is None:
            raise SegmentationFault(task.address, space=task.space)
        region = context._region_at(task.address)
        if region is None:
            raise SegmentationFault(task.address, context.name,
                                    space=task.space)
        task.context = context
        task.region = region
        task.cache = region.cache
        task.vaddr = task.address - (task.address % self.page_size)
        task.offset = region.segment_offset(task.vaddr)

    def stage_authorize(self, task: FaultTask) -> None:
        """Region checks (real faults), then the capability cap."""
        region = task.region
        cache = task.cache
        if task.fault is not None:
            if region.protection & Protection.SYSTEM \
                    and not task.supervisor:
                raise AccessViolation(
                    f"user-mode access at {task.address:#x} to a "
                    "system region",
                    space=task.space, address=task.address,
                )
            if not region.protection.allows(task.write):
                raise AccessViolation(
                    f"{'write' if task.write else 'read'} at "
                    f"{task.address:#x} violates region protection "
                    f"{region.protection!r}",
                    space=task.space, address=task.address,
                    write=task.write,
                )
            if not region.touched:
                region.touched = True
                self.clock.charge(CostEvent.FIRST_TOUCH)
            if task.protection_violation and task.write:
                self.clock.charge(CostEvent.PROT_FAULT_RESOLVE)
            self.probe.count(self._fault_series[bool(task.write)])
            if task.write:
                cache.stats.write_faults += 1
            else:
                cache.stats.read_faults += 1

        cap = self._prot_cap_at(cache, task.offset)
        region_hw = region.protection.to_hardware()
        effective = region_hw & cap.to_hardware()
        # Caps constrain access rights; the privilege level is the
        # region's alone.
        effective |= region_hw & Prot.SYSTEM
        if task.write and not cap & Protection.WRITE:
            # The segment manager capped writes (coherence): give it
            # a chance to grant access, then re-check.
            cache.provider.get_write_access(cache, task.offset,
                                            self.page_size)
            cap = self._prot_cap_at(cache, task.offset)
            if not cap & Protection.WRITE:
                raise AccessViolation(
                    f"write to {task.vaddr:#x} denied by cache protection",
                    space=task.space, address=task.vaddr,
                    cache_id=cache.cache_id, offset=task.offset,
                )
            effective = region_hw & cap.to_hardware()
            effective |= region_hw & Prot.SYSTEM
        task.effective = effective

    def stage_resolve(self, task: FaultTask) -> None:
        """Classify how the page will be found."""
        if task.write:
            task.strategy = "write"
            return
        cache = task.cache
        link = cache.parents.get(task.offset)
        if (link is not None and link.mode == "cor"
                and task.offset not in cache.owned
                and task.offset not in cache.pages):
            # Copy-on-reference: any access materializes a private copy.
            task.strategy = "private"
            return
        entry = self.global_map.lookup(cache, task.offset)
        if isinstance(entry, CowStub):
            task.strategy = "stub"
            task.entry = entry
        else:
            task.strategy = "read"

    def stage_materialize(self, task: FaultTask) -> None:
        """Produce the real page backing the translation."""
        cache = task.cache
        if task.strategy == "write":
            task.page = self._get_writable_page(cache, task.offset)
        elif task.strategy == "private":
            task.page = self._materialize_private(cache, task.offset)
        elif task.strategy == "stub":
            task.page = self._stub_source_page(task.entry)
        else:
            task.page = self._get_page_for_read(cache, task.offset)

    def stage_install(self, task: FaultTask) -> None:
        """Apply COW/guard downgrades and enter the translation."""
        cache = task.cache
        page = task.page
        prot = task.effective
        if task.strategy != "write":
            if page.cache is not cache:
                # Sharing an ancestor's (or stub source's) frame:
                # read-only, so a later write faults and materializes a
                # private copy.
                prot &= ~Prot.WRITE
            else:
                if self._needs_guard_resolution(cache, task.offset):
                    prot &= ~Prot.WRITE
                if page.cow_stubs:
                    prot &= ~Prot.WRITE
                if not page.write_granted:
                    prot &= ~Prot.WRITE
            if not prot:
                raise AccessViolation(
                    f"no access possible at {task.vaddr:#x}",
                    space=task.space, address=task.vaddr,
                    cache_id=cache.cache_id, offset=task.offset,
                )
        self.hw.map_page(task.context.space, task.vaddr, page, prot,
                         consumer=(cache.cache_id, task.offset))
        task.prot = prot
        task.installed = True

    def _needs_guard_resolution(self, cache: PvmCache, offset: int) -> bool:
        """True while a write to (cache, offset) must still preserve the
        original value into the history object."""
        hit = cache.guards.interval_at(offset)
        if hit is None:
            return False
        start, _, link = hit
        history_offset = link.offset + (offset - start)
        history = link.cache
        if history_offset in history.pages or history_offset in history.owned:
            return False
        return True
