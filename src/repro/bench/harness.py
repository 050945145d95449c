"""Bench flight recorder: named workloads, recorded runs, regression gate.

``run_suite`` executes a suite of named workloads (the Table 6/7 cells
plus the fork, pageout and DSM shapes used by the ablations) over the
three memory managers, capturing for each (workload, backend) cell:

* **wall_ms** — best-of-N host wall time of the workload body (the
  only machine-dependent number; N fresh systems are built so runs
  never share caches);
* **virtual_ms** — the deterministic virtual-clock cost of the same
  body (bit-identical from run to run, and unaffected by tracing);
* **metrics** — the full ``metrics_snapshot()`` document, labeled
  series included.

``record`` writes the suite result as JSON (``BENCH_<n>.json`` at the
repo root by convention), validated against
:data:`BENCH_RESULT_SCHEMA`.  ``compare`` diffs two recorded documents
and flags any cell whose wall time grew by more than a configurable
factor — the CI regression gate (``python -m repro bench --compare``).

Workloads are split into ``setup`` (build the system, pre-populate
data — untimed) and ``body`` (the measured mechanism), so ``obs-dump
--workload`` can attach a span sink between the two and trace exactly
the measured part.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.costmodel import (
    CHORUS_SUN360, MACH_SUN360, SUN360_MEMORY, SUN360_PAGE,
)
from repro.kernel.clock import ClockRegion
from repro.obs.schema import SNAPSHOT_SCHEMA, validate
from repro.units import KB

__all__ = [
    "BACKENDS", "BENCH_RESULT_SCHEMA", "RESULT_VERSION", "WORKLOADS",
    "Workload", "build_nucleus", "compare", "format_compare", "load",
    "record", "run_suite", "run_workload",
]

#: Memory managers the suite covers, in recording order.
BACKENDS = ("pvm", "mach", "minimal")

RESULT_VERSION = 1

REGION_BASE = 0x0100_0000
SRC_BASE = 0x0200_0000


#: TLB entries modelled on the benchmark hardware (the SUN-3/60's
#: 68030-style translation cache).  Translation is free on the virtual
#: clock, so the TLB affects wall time and hit-rate gauges only.
BENCH_TLB_ENTRIES = 64


def build_nucleus(backend: str, cluster=None, arbiter=None):
    """A fresh Nucleus on SUN-3/60-calibrated hardware for *backend*
    (``pvm``, ``mach`` or ``minimal``).

    *cluster* is a fault-clustering policy spec (``off`` / ``fixed`` /
    ``adaptive`` / None); read-ahead is charge-replayed, so it changes
    wall time and upcall counts but never virtual time.  *arbiter* is
    a :class:`repro.pressure.FrameArbiter` for the manager's cache
    engine (None = a fresh inert arbiter, the legacy behaviour).
    """
    from repro.mach.mach_vm import MachVirtualMemory
    from repro.minimal.minimal_vm import RealTimeVirtualMemory
    from repro.nucleus.nucleus import Nucleus
    from repro.pvm.pvm import PagedVirtualMemory

    vm_class, cost_model = {
        "pvm": (PagedVirtualMemory, CHORUS_SUN360),
        "mach": (MachVirtualMemory, MACH_SUN360),
        "minimal": (RealTimeVirtualMemory, CHORUS_SUN360),
    }[backend]
    return Nucleus(vm_class=vm_class, cost_model=cost_model,
                   memory_size=SUN360_MEMORY, page_size=SUN360_PAGE,
                   tlb_entries=BENCH_TLB_ENTRIES, cluster_policy=cluster,
                   arbiter=arbiter)


@dataclass(frozen=True)
class Workload:
    """One named benchmark: untimed *setup*, measured *body*.

    ``setup(backend, cluster)`` returns a state dict that
    must carry ``clock`` (the virtual clock the body charges) and
    ``vm`` (the manager whose metrics are snapshotted); ``body(state)``
    runs the measured mechanism.
    """

    name: str
    description: str
    backends: Sequence[str]
    setup: Callable[..., dict]
    body: Callable[[dict], None]


# -- workload definitions -------------------------------------------------------

def _nucleus_state(backend: str, cluster=None, arbiter=None,
                   **extra) -> dict:
    nucleus = build_nucleus(backend, cluster=cluster, arbiter=arbiter)
    state = {"nucleus": nucleus, "vm": nucleus.vm, "clock": nucleus.clock}
    state.update(extra)
    return state


def _zero_fill_setup(backend: str, cluster=None) -> dict:
    state = _nucleus_state(backend, cluster)
    state["actor"] = state["nucleus"].create_actor("bench")
    return state


def _zero_fill_body(state: dict) -> None:
    # The (1024 KB, 32 touched pages) Table 6 cell.
    nucleus, actor = state["nucleus"], state["actor"]
    page_size = nucleus.vm.page_size
    region = nucleus.rgn_allocate(actor, 1024 * KB, address=REGION_BASE)
    for index in range(32):
        actor.write(REGION_BASE + index * page_size, b"\x01")
    nucleus.rgn_free(actor, region)


def _seq_stream_setup(backend: str, cluster=None) -> dict:
    state = _nucleus_state(backend, cluster)
    nucleus = state["nucleus"]
    state["actor"] = nucleus.create_actor("bench")
    state["region"] = nucleus.rgn_allocate(state["actor"], 512 * KB,
                                           address=REGION_BASE)
    return state


def _seq_stream_body(state: dict) -> None:
    # Stream sequentially through a 64-page anonymous region, 4 pages
    # per read, twice: pass one is a pure fault train (read-ahead
    # clusters it), pass two re-reads warm translations (multi-page
    # reads exercise the batched translation path and the TLB).
    actor = state["actor"]
    page_size = state["vm"].page_size
    span = 4 * page_size
    for _ in range(2):
        for position in range(0, 512 * KB, span):
            actor.read(REGION_BASE + position, span)


def _random_touch_setup(backend: str, cluster=None) -> dict:
    state = _seq_stream_setup(backend, cluster)
    state["region"].advice = "random"
    return state


def _random_touch_body(state: dict) -> None:
    # Touch the same 64 pages in a deterministic non-sequential order,
    # three passes: read-ahead must stay shut (the region advises
    # random access), so this cell is the clustering control group.
    actor = state["actor"]
    page_size = state["vm"].page_size
    pages = 512 * KB // page_size
    for _ in range(3):
        for index in range(pages):
            # 37 is coprime with 64: a full-cycle stride permutation.
            actor.write(REGION_BASE + ((index * 37) % pages) * page_size,
                        b"\x01")


def _cow_setup(backend: str, cluster=None) -> dict:
    # "The source region is created and allocated before starting the
    # measurement" — a 256 KB source, fully written.
    state = _nucleus_state(backend, cluster)
    nucleus = state["nucleus"]
    actor = nucleus.create_actor("bench")
    page_size = nucleus.vm.page_size
    nucleus.rgn_allocate(actor, 256 * KB, address=SRC_BASE)
    for index in range(256 * KB // page_size):
        actor.write(SRC_BASE + index * page_size,
                    bytes([index % 251 + 1]))
    state["actor"] = actor
    return state


def _cow_body(state: dict) -> None:
    from repro.gmi.types import Protection

    nucleus, actor = state["nucleus"], state["actor"]
    page_size = nucleus.vm.page_size
    copy_region = nucleus.rgn_init_from_actor(
        actor, actor, SRC_BASE, address=REGION_BASE,
        protection=Protection.RW)
    for index in range(8):
        actor.write(SRC_BASE + index * page_size, b"\xFF")
    nucleus.rgn_free(actor, copy_region)


def _shell_body(state: dict) -> None:
    from repro.workloads.fork_workload import shell_pipeline

    shell_pipeline(state["nucleus"], generations=8)


def _cow_chain_body(state: dict) -> None:
    from repro.workloads.fork_workload import fork_exit_chain

    fork_exit_chain(state["nucleus"], generations=6, collapse=True)


def _pageout_setup(backend: str, cluster=None) -> dict:
    state = _nucleus_state(backend, cluster)
    nucleus = state["nucleus"]
    vm = nucleus.vm
    cache = nucleus.segment_manager.create_temporary("pageout-data")
    for index in range(64):
        vm.cache_write(cache, index * vm.page_size, bytes([index + 1]) * 32)
    state["cache"] = cache
    return state


def _pageout_body(state: dict) -> None:
    # Evict half the resident set: dirty pages are pushed out through
    # the provider, translations shot down, frames freed.
    state["vm"].reclaim_frames(32)


def _dsm_setup(backend: str, cluster=None) -> dict:
    # DSM sites build their own nuclei; coherence traffic is strictly
    # page-at-a-time and in-process (no mapper I/O), so clustering
    # does not apply here.
    from repro.dsm.site import make_dsm_cluster

    manager, sites = make_dsm_cluster(["a", "b"], segment_pages=4,
                                      cost_model=CHORUS_SUN360)
    site_a = sites["a"]
    return {"vm": site_a.nucleus.vm, "clock": site_a.nucleus.clock,
            "manager": manager, "sites": sites}


def _dsm_body(state: dict) -> None:
    # Write invalidations ping-pong one page between the two sites.
    site_a, site_b = state["sites"]["a"], state["sites"]["b"]
    for round_no in range(8):
        site_a.write(0, bytes([round_no + 1]))
        site_b.read(0, 1)
        site_b.write(0, bytes([round_no + 101]))
        site_a.read(0, 1)


def _segment_scan_setup(backend: str, cluster=None) -> dict:
    from repro.segments.mem_mapper import MemoryMapper

    state = _nucleus_state(backend, cluster)
    nucleus = state["nucleus"]
    page_size = nucleus.vm.page_size
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    data = b"".join(bytes([index % 251 + 1]) * page_size
                    for index in range(64))
    state["capability"] = mapper.register(data)
    state["cache"] = nucleus.segment_manager.bind(state["capability"])
    return state


def _segment_scan_body(state: dict) -> None:
    # Sequential scan of a 64-page mapped segment, 8 pages per read:
    # the batched MapperProvider turns each read into a single IPC
    # round-trip to the mapper instead of one per page.
    cache = state["cache"]
    page_size = state["vm"].page_size
    for index in range(0, 64, 8):
        cache.read(index * page_size, 8 * page_size)


def _writeback_storm_setup(backend: str, cluster=None) -> dict:
    from repro.cache.writeback import WritebackDaemon

    state = _nucleus_state(backend, cluster)
    nucleus = state["nucleus"]
    vm = nucleus.vm
    cache = nucleus.segment_manager.create_temporary("storm-data")
    for index in range(96):
        vm.cache_write(cache, index * vm.page_size,
                       bytes([index % 250 + 1]) * 64)
    state["cache"] = cache
    state["daemon"] = WritebackDaemon(vm, age_threshold=2, batch_limit=16)
    return state


def _writeback_storm_body(state: dict) -> None:
    # Age and clean a 96-page dirty set in batches, re-dirtying a
    # stripe midway — the write-back daemon's steady-state pattern;
    # contiguous dirty pages coalesce into ranged pushOut calls.
    vm, cache, daemon = state["vm"], state["cache"], state["daemon"]
    page_size = vm.page_size
    for _ in range(4):
        daemon.tick()
    for index in range(0, 96, 4):
        vm.cache_write(cache, index * page_size, b"\xAA" * 16)
    for _ in range(8):
        daemon.tick()


#: Pages in the ``huge_map`` sparse region: large enough that any
#: per-page representation or O(pages) walk in the map path would blow
#: the wall-time budget, small enough that the O(extents) path is
#: instant.
HUGE_MAP_PAGES = 1_000_000

HUGE_MAP_TOUCHES = 64


def _huge_map_setup(backend: str, cluster=None) -> dict:
    state = _nucleus_state(backend, cluster)
    state["actor"] = state["nucleus"].create_actor("bench")
    return state


def _huge_map_body(state: dict) -> None:
    # PR-6 extent cell: map, sparsely touch, then unmap a million-page
    # region.  The region map and the run-length page table keep this
    # O(extents): creation is one interval insert, the 64 touches are
    # ordinary faults, and teardown invalidates the range with one
    # batched unmap (the per-page invalidation *charges* remain — the
    # paper's measured scaling — but no per-page structure is walked).
    # The "minimal" backend maps regions eagerly, so it sits this one
    # out by design.
    nucleus, actor = state["nucleus"], state["actor"]
    page_size = nucleus.vm.page_size
    region = nucleus.rgn_allocate(actor, HUGE_MAP_PAGES * page_size,
                                  address=REGION_BASE)
    stride = (HUGE_MAP_PAGES // HUGE_MAP_TOUCHES) * page_size
    for index in range(HUGE_MAP_TOUCHES):
        actor.write(REGION_BASE + index * stride, b"\x01")
    nucleus.rgn_free(actor, region)


#: ``tenant_storm`` shape: 23 well-behaved tenants plus one thrasher
#: overcommit the SUN-3/60's 1024 frames (23×32 + 400 = 1136 pages),
#: and the arbitrated variant caps aggregate residency below physical
#: RAM so every eviction is a *policy* decision, not an allocation
#: failure.
STORM_TENANTS = 24
STORM_WS_PAGES = 32
STORM_THRASHER_PAGES = 400
STORM_ROUNDS = 3
STORM_BUDGET = 960
STORM_FLOOR = 8


def _tenant_storm_setup(backend: str, cluster=None,
                        arbitrated: bool = True) -> dict:
    from repro.pressure import (
        AdmissionController, BalancerDaemon, FrameArbiter,
        WorkingSetEstimator,
    )

    arbiter = None
    if arbitrated:
        arbiter = FrameArbiter(
            global_budget=STORM_BUDGET, floor_pages=STORM_FLOOR,
            ws=WorkingSetEstimator(),
            qos=AdmissionController(window_ms=10.0, fault_limit=64),
        )
    state = _nucleus_state(backend, cluster, arbiter=arbiter)
    nucleus, vm = state["nucleus"], state["vm"]
    page_size = vm.page_size
    tenants = []
    for index in range(STORM_TENANTS):
        actor = nucleus.create_actor(f"tenant-{index}")
        pages = STORM_THRASHER_PAGES if index == 0 else STORM_WS_PAGES
        nucleus.rgn_allocate(actor, pages * page_size, address=REGION_BASE)
        tenants.append((actor, pages))
    state["tenants"] = tenants
    state["daemon"] = BalancerDaemon(vm) if arbitrated else None
    state["resident_peak"] = 0
    return state


def _tenant_storm_body(state: dict) -> None:
    # Multi-tenant overcommit: each round, every tenant re-touches its
    # whole working set (tenant 0 streams a set far beyond any fair
    # share) and the balancer daemon re-splits the frame budget by
    # measured WSS, reclaiming over-grant spaces and throttling the
    # thrasher.  Unarbitrated, the same storm falls back to
    # allocation-failure reclaim against physical RAM.
    vm = state["vm"]
    page_size = vm.page_size
    daemon = state["daemon"]
    peak = 0
    for round_no in range(STORM_ROUNDS):
        for actor, pages in state["tenants"]:
            for page_no in range(pages):
                actor.write(REGION_BASE + page_no * page_size,
                            bytes([round_no + 1]))
            peak = max(peak, len(vm.residency))
        if daemon is not None:
            daemon.tick()
    state["resident_peak"] = peak


#: ``trace_replay`` shape: a million recorded accesses over a 512-page
#: working set, replayed through the vectorized access path
#: (:class:`repro.hardware.vbus.VectorBus`).  The region is prewarmed
#: in setup so the body measures steady-state replay throughput — TLB
#: churn and bulk-hit retirement, not first-touch faulting.  The cells
#: run on ``pvm`` only: hits never reach the manager, so the other
#: backends would re-measure the same hardware path.
TRACE_REPLAY_ACCESSES = 1_000_000
TRACE_REPLAY_PAGES = 512

#: Compiled bench traces, by kind.  Compilation is pure input
#: preparation (shared by every repeat and backend), so it happens
#: once per process, outside any timed window.
_TRACE_CACHE: Dict[str, object] = {}


def _compiled_trace(kind: str):
    trace = _TRACE_CACHE.get(kind)
    if trace is None:
        from repro.workloads import tracecomp

        generator = {
            "zipf": lambda: tracecomp.zipf_columns(
                TRACE_REPLAY_PAGES, TRACE_REPLAY_ACCESSES, seed=11),
            "scan": lambda: tracecomp.loop_columns(
                TRACE_REPLAY_PAGES, TRACE_REPLAY_ACCESSES,
                write_ratio=0.1, seed=11),
            "phase": lambda: tracecomp.phase_columns(
                TRACE_REPLAY_PAGES, TRACE_REPLAY_ACCESSES, phases=8,
                locality=96, seed=11),
        }[kind]
        trace = _TRACE_CACHE[kind] = generator()
    return trace


def _trace_replay_setup(kind: str):
    def setup(backend: str, cluster=None) -> dict:
        from repro.hardware.vbus import VectorBus

        state = _nucleus_state(backend, cluster)
        nucleus, vm = state["nucleus"], state["vm"]
        page_size = vm.page_size
        actor = nucleus.create_actor("bench")
        nucleus.rgn_allocate(actor, TRACE_REPLAY_PAGES * page_size,
                             address=REGION_BASE)
        for index in range(TRACE_REPLAY_PAGES):
            actor.write(REGION_BASE + index * page_size, b"\x01")
        state["actor"] = actor
        state["trace"] = _compiled_trace(kind)
        state["vbus"] = VectorBus(vm.bus, registry=vm.probe.registry)
        return state
    return setup


def _trace_replay_body(state: dict) -> None:
    # Bulk-replay the compiled columns: resident pages retire in
    # aggregate, capacity misses fall into the scalar fault engine.
    # The access count lands in the ``trace.accesses`` gauge so the
    # compare table can derive accesses per second from wall time.
    vm, trace = state["vm"], state["trace"]
    count = state["vbus"].replay(
        state["actor"].context.space, trace.pages, trace.writes,
        base_vpn=REGION_BASE // vm.page_size)
    vm.probe.registry.set_gauge("trace.accesses", float(count))


#: The named suite, in recording order.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("zero_fill",
                 "Table 6 cell: 1024 KB region, 32 pages touched",
                 BACKENDS, _zero_fill_setup, _zero_fill_body),
        Workload("seq_stream",
                 "two sequential passes over a 64-page anonymous "
                 "region, 4 pages per read",
                 BACKENDS, _seq_stream_setup, _seq_stream_body),
        Workload("random_touch",
                 "three strided passes over 64 pages, advice=random "
                 "(read-ahead control group)",
                 BACKENDS, _random_touch_setup, _random_touch_body),
        Workload("cow_copy",
                 "Table 7 cell: copy a 256 KB region, dirty 8 pages",
                 BACKENDS, _cow_setup, _cow_body),
        Workload("shell_pipeline",
                 "long-lived parent forks 8 short-lived children",
                 BACKENDS, _nucleus_state, _shell_body),
        Workload("cow_chain",
                 "fork/exit chain, 6 generations, collapse GC on",
                 ("pvm", "mach"), _nucleus_state, _cow_chain_body),
        Workload("pageout",
                 "evict 32 of 64 dirty resident pages",
                 ("pvm", "mach"), _pageout_setup, _pageout_body),
        Workload("dsm_ping_pong",
                 "two sites ping-pong writes on one coherent page",
                 ("pvm",), _dsm_setup, _dsm_body),
        Workload("segment_scan",
                 "sequential read of a 64-page mapped segment, "
                 "8 pages per batched pullIn",
                 BACKENDS, _segment_scan_setup, _segment_scan_body),
        Workload("writeback_storm",
                 "write-back daemon cleans a 96-page dirty set "
                 "with mid-storm re-dirtying",
                 ("pvm", "mach"), _writeback_storm_setup,
                 _writeback_storm_body),
        Workload("huge_map",
                 "map, sparsely touch and unmap a million-page "
                 "region (extent-representation stress)",
                 ("pvm", "mach"), _huge_map_setup, _huge_map_body),
        Workload("tenant_storm",
                 "24 overcommitted tenants (one thrasher) under the "
                 "working-set balancer and frame arbiter",
                 ("pvm", "mach"), _tenant_storm_setup,
                 _tenant_storm_body),
        Workload("trace_replay_zipf",
                 "vectorized replay of a million-access zipf trace "
                 "over 512 prewarmed pages",
                 ("pvm",), _trace_replay_setup("zipf"),
                 _trace_replay_body),
        Workload("trace_replay_scan",
                 "vectorized replay of a million-access sequential "
                 "scan over 512 prewarmed pages",
                 ("pvm",), _trace_replay_setup("scan"),
                 _trace_replay_body),
        Workload("trace_replay_phase",
                 "vectorized replay of a million-access phase-change "
                 "trace over 512 prewarmed pages",
                 ("pvm",), _trace_replay_setup("phase"),
                 _trace_replay_body),
    )
}


# -- recording -----------------------------------------------------------------

def run_workload(workload: Workload, backend: str, repeats: int = 3,
                 cluster=None) -> dict:
    """One (workload, backend) cell: best-of-*repeats* wall time, the
    deterministic virtual time, and a full metrics snapshot."""
    if backend not in workload.backends:
        raise ValueError(
            f"workload {workload.name!r} does not run on {backend!r}")
    wall_ms_all: List[float] = []
    # Timed repeats run with the metrics registry paused — the obs
    # idle fast path — so wall time measures the mechanisms, not the
    # bookkeeping.  Virtual time is deterministic either way.
    for _ in range(repeats):
        state = workload.setup(backend, cluster)
        registry = state["vm"].probe.registry
        registry.enabled = False
        # Sweep the previous repeat's garbage before the timer starts
        # and keep the collector out of the timed body: a gen-2 pass
        # landing mid-repeat would be charged to whichever workload
        # happened to trip it, not the one that produced the garbage.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            workload.body(state)
            wall_ms_all.append((time.perf_counter() - start) * 1000.0)
        finally:
            if gc_was_enabled:
                gc.enable()
            registry.enabled = True
    # One untimed instrumented pass supplies the golden virtual time
    # and the full metrics snapshot.
    state = workload.setup(backend, cluster)
    with ClockRegion(state["clock"]) as timer:
        workload.body(state)
    virtual_ms = timer.elapsed
    metrics = state["vm"].metrics_snapshot()
    return {
        "workload": workload.name,
        "backend": backend,
        "repeats": repeats,
        "wall_ms": min(wall_ms_all),
        "wall_ms_all": wall_ms_all,
        "virtual_ms": virtual_ms,
        "metrics": metrics,
    }


def run_suite(workloads: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              repeats: int = 3,
              label: Optional[str] = None,
              cluster: Optional[str] = "adaptive") -> dict:
    """Run the named suite; returns the recordable result document.

    *cluster* selects the fault-clustering policy the managers run
    with (``"adaptive"`` by default — the shipping configuration;
    pass ``"off"``/None for the one-page-per-fault baseline).
    Virtual times are identical either way; wall time and upcall
    counts are what the knob moves.
    """
    names = list(workloads) if workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workloads: {', '.join(unknown)} "
                         f"(known: {', '.join(WORKLOADS)})")
    selected_backends = tuple(backends) if backends else BACKENDS
    unknown = [name for name in selected_backends if name not in BACKENDS]
    if unknown:
        raise ValueError(f"unknown backends: {', '.join(unknown)}")
    if cluster == "off":
        cluster = None
    results = []
    for name in names:
        workload = WORKLOADS[name]
        for backend in selected_backends:
            if backend not in workload.backends:
                continue
            results.append(run_workload(workload, backend, repeats=repeats,
                                        cluster=cluster))
    document = {
        "meta": {"version": RESULT_VERSION, "repeats": repeats,
                 "cluster": cluster or "off"},
        "results": results,
    }
    if label:
        document["meta"]["label"] = label
    return document


def record(path, workloads: Optional[Sequence[str]] = None,
           backends: Optional[Sequence[str]] = None,
           repeats: int = 3, label: Optional[str] = None,
           cluster: Optional[str] = "adaptive") -> dict:
    """Run the suite, validate the document, write it to *path*."""
    document = run_suite(workloads=workloads, backends=backends,
                         repeats=repeats, label=label, cluster=cluster)
    errors = validate(document, BENCH_RESULT_SCHEMA)
    if errors:
        raise ValueError("recorded document violates BENCH_RESULT_SCHEMA: "
                         + "; ".join(errors))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load(path) -> dict:
    """Read a recorded result document back."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the regression gate --------------------------------------------------------

def compare(baseline: dict, current: dict, threshold: float = 1.5) -> dict:
    """Diff two recorded documents cell by cell.

    A cell *regresses* when its wall time grew by more than
    *threshold*× over the baseline.  Virtual-time drift is reported
    too (it should be exactly 0.0 — the virtual clock is
    deterministic — so any drift means the mechanisms changed), but
    only wall time gates.  Each row also carries the cell's TLB hit
    rate and memory-stall share (``psi.memory.some.total_ms`` over the
    cell's virtual time) on both sides, and — for trace-replay cells,
    which record a ``trace.accesses`` gauge — replayed accesses per
    second of wall time on both sides.
    """
    baseline_cells = {(cell["workload"], cell["backend"]): cell
                      for cell in baseline["results"]}
    current_cells = {(cell["workload"], cell["backend"]): cell
                     for cell in current["results"]}
    rows = []
    regressions = []
    for key, cell in current_cells.items():
        base = baseline_cells.get(key)
        if base is None:
            rows.append({"workload": key[0], "backend": key[1],
                         "status": "new",
                         "wall_ms": cell["wall_ms"],
                         "baseline_wall_ms": None, "wall_ratio": None,
                         "virtual_drift_ms": None,
                         "baseline_tlb_hit_rate": None,
                         "tlb_hit_rate": _tlb_hit_rate(cell),
                         "baseline_stall_fraction": None,
                         "stall_fraction": _stall_fraction(cell),
                         "baseline_accesses_per_s": None,
                         "accesses_per_s": _access_rate(cell)})
            continue
        if base["wall_ms"] > 0:
            ratio = cell["wall_ms"] / base["wall_ms"]
        else:
            ratio = float("inf") if cell["wall_ms"] > 0 else 1.0
        regressed = ratio > threshold
        base_virtual = base.get("virtual_ms")
        cell_virtual = cell.get("virtual_ms")
        row = {"workload": key[0], "backend": key[1],
               "status": "regressed" if regressed else "ok",
               "wall_ms": cell["wall_ms"],
               "baseline_wall_ms": base["wall_ms"],
               "wall_ratio": ratio,
               "virtual_drift_ms":
                   None if base_virtual is None or cell_virtual is None
                   else cell_virtual - base_virtual,
               "baseline_tlb_hit_rate": _tlb_hit_rate(base),
               "tlb_hit_rate": _tlb_hit_rate(cell),
               "baseline_stall_fraction": _stall_fraction(base),
               "stall_fraction": _stall_fraction(cell),
               "baseline_accesses_per_s": _access_rate(base),
               "accesses_per_s": _access_rate(cell)}
        rows.append(row)
        if regressed:
            regressions.append(row)
    for key in baseline_cells:
        if key not in current_cells:
            rows.append({"workload": key[0], "backend": key[1],
                         "status": "missing",
                         "wall_ms": None,
                         "baseline_wall_ms": baseline_cells[key]["wall_ms"],
                         "wall_ratio": None, "virtual_drift_ms": None,
                         "baseline_tlb_hit_rate":
                             _tlb_hit_rate(baseline_cells[key]),
                         "tlb_hit_rate": None,
                         "baseline_stall_fraction":
                             _stall_fraction(baseline_cells[key]),
                         "stall_fraction": None,
                         "baseline_accesses_per_s":
                             _access_rate(baseline_cells[key]),
                         "accesses_per_s": None})
    rows.sort(key=lambda row: (row["workload"], row["backend"]))
    return {"threshold": threshold, "rows": rows,
            "regressions": regressions}


def _tlb_hit_rate(cell: dict) -> Optional[float]:
    """The cell's recorded ``tlb.hit_ratio`` gauge, if any."""
    return cell.get("metrics", {}).get("gauges", {}).get("tlb.hit_ratio")


def _gauge(cell: dict, name: str) -> Optional[float]:
    """A recorded gauge of *cell*, if that recording carries it."""
    return cell.get("metrics", {}).get("gauges", {}).get(name)


def _stall_fraction(cell: dict) -> Optional[float]:
    """The cell's memory-stall share: ``psi.memory.some.total_ms``
    over the snapshot's virtual time (None when the recording predates
    the pressure board)."""
    total = _gauge(cell, "psi.memory.some.total_ms")
    if total is None:
        return None
    virtual = cell.get("metrics", {}).get("meta", {}).get("virtual_ms")
    if not virtual:
        return 0.0 if total == 0.0 else None
    return total / virtual


def _access_rate(cell: dict) -> Optional[float]:
    """Replayed accesses per second of wall time: the cell's
    ``trace.accesses`` gauge over its best wall time (None for cells
    that replay no trace)."""
    accesses = _gauge(cell, "trace.accesses")
    wall_ms = cell.get("wall_ms")
    if not accesses or not wall_ms:
        return None
    return accesses * 1000.0 / wall_ms


def _format_hit_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.1f}%"


def _format_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    return f"{value / 1e3:.0f}k"


def format_compare(report: dict) -> str:
    """Render a compare report as the per-workload delta table."""
    headers = ("workload", "backend", "base ms", "now ms", "ratio",
               "vdrift ms", "tlb base", "tlb now", "stall base",
               "stall now", "acc/s base", "acc/s now", "status")
    table = [headers]
    for row in report["rows"]:
        table.append((
            row["workload"],
            row["backend"],
            "-" if row["baseline_wall_ms"] is None
            else f"{row['baseline_wall_ms']:.2f}",
            "-" if row["wall_ms"] is None else f"{row['wall_ms']:.2f}",
            "-" if row["wall_ratio"] is None
            else f"{row['wall_ratio']:.2f}x",
            "-" if row["virtual_drift_ms"] is None
            else f"{row['virtual_drift_ms']:+.3f}",
            _format_hit_rate(row.get("baseline_tlb_hit_rate")),
            _format_hit_rate(row.get("tlb_hit_rate")),
            _format_hit_rate(row.get("baseline_stall_fraction")),
            _format_hit_rate(row.get("stall_fraction")),
            _format_rate(row.get("baseline_accesses_per_s")),
            _format_rate(row.get("accesses_per_s")),
            row["status"],
        ))
    widths = [max(len(line[col]) for line in table)
              for col in range(len(headers))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(
            cell.ljust(width) if col < 2 else cell.rjust(width)
            for col, (cell, width) in enumerate(zip(line, widths))))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    gate = (f"REGRESSION: {len(report['regressions'])} cell(s) exceeded "
            f"{report['threshold']:.2f}x wall time"
            if report["regressions"]
            else f"ok: no cell exceeded {report['threshold']:.2f}x wall time")
    return "\n".join(lines) + "\n\n" + gate


# -- result-document schema -----------------------------------------------------

#: Shape of one recorded ``BENCH_<n>.json`` document; each cell embeds
#: a full metrics snapshot (see :data:`repro.obs.schema.SNAPSHOT_SCHEMA`).
BENCH_RESULT_SCHEMA = {
    "type": "object",
    "required": ["meta", "results"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["version", "repeats"],
            "properties": {
                "version": {"type": "integer", "minimum": 1},
                "repeats": {"type": "integer", "minimum": 1},
                "label": {"type": "string"},
                "cluster": {"type": "string"},
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["workload", "backend", "repeats", "wall_ms",
                             "wall_ms_all", "virtual_ms", "metrics"],
                "properties": {
                    "workload": {"type": "string"},
                    "backend": {"type": "string"},
                    "repeats": {"type": "integer", "minimum": 1},
                    "wall_ms": {"type": "number", "minimum": 0},
                    "wall_ms_all": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                    },
                    "virtual_ms": {"type": "number", "minimum": 0},
                    "metrics": SNAPSHOT_SCHEMA,
                },
            },
        },
    },
}
