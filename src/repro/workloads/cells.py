"""The bench cells: named scenarios gated on exact virtual time.

Each :class:`Workload` is a setup/body pair — the Table 6/7 cells plus
the fork, pageout, DSM, write-back, extent, multi-tenant and
trace-replay shapes the ablations use — that runs over one or more of
the three memory managers.  ``setup`` builds the system and
pre-populates data; ``body`` is the measured mechanism, so ``obs-dump
--workload`` can attach a span sink between the two and trace exactly
that part.

A *cell* is one (workload, backend, cluster) triple.  :func:`measure`
runs one and returns the body's virtual time and its plain fault and
upcall counts; ``tests/goldens/cell_virtual_time.json`` holds the
expected values of every cell, compared with ``==`` by the tier-1
tests and by ``python -m repro verify`` through :func:`golden_diff`.
Wall time is not measured here: ``perf/`` is the wall-time benchmark.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.costmodel import (
    CHORUS_SUN360, SUN360_TLB_ENTRIES, chorus_nucleus, mach_nucleus,
)
from repro.kernel.clock import ClockRegion
from repro.minimal.minimal_vm import RealTimeVirtualMemory
from repro.units import KB

__all__ = [
    "BACKENDS", "CLUSTERS", "GOLDEN_COUNTERS", "WORKLOADS", "Workload",
    "cell_ids", "golden_diff", "measure",
]

#: Nucleus factory per memory manager; the minimal manager is priced
#: with the Chorus profile.
FACTORIES: Dict[str, Callable] = {
    "pvm": chorus_nucleus,
    "mach": mach_nucleus,
    "minimal": functools.partial(chorus_nucleus,
                                 vm_class=RealTimeVirtualMemory),
}

#: Memory managers the cells cover, in suite order.
BACKENDS = tuple(FACTORIES)

REGION_BASE = 0x0100_0000
SRC_BASE = 0x0200_0000


@dataclass(frozen=True)
class Workload:
    """One named scenario: unmeasured *setup*, measured *body*.

    ``setup(backend, cluster)`` returns a state dict that
    must carry ``clock`` (the virtual clock the body charges) and
    ``vm`` (the manager whose counters :func:`measure` reads);
    ``body(state)`` runs the measured mechanism.
    """

    name: str
    description: str
    backends: Sequence[str]
    setup: Callable[..., dict]
    body: Callable[[dict], None]


# -- workload definitions -------------------------------------------------------

def _nucleus_state(backend: str, cluster=None, arbiter=None,
                   **extra) -> dict:
    nucleus = FACTORIES[backend](tlb_entries=SUN360_TLB_ENTRIES,
                                 cluster_policy=cluster, arbiter=arbiter)
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
#: per-page representation or O(pages) walk in the map path would take
#: seconds, small enough that the O(extents) path is instant.
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

#: Compiled cell traces, by kind.  Compilation is pure input
#: preparation (shared by every cluster setting), so it happens once
#: per process, in setup.
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
    trace = state["trace"]
    state["vbus"].replay(
        state["actor"].context.space, trace.pages, trace.writes,
        base_vpn=REGION_BASE // state["vm"].page_size)


#: The named cells, in suite order.
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


# -- the virtual-time golden --------------------------------------------------

#: Cluster settings every cell is gated at: read-ahead replays the
#: charges a one-page pull would make, so it must not move a cell.
CLUSTERS = ("off", "adaptive")

#: The plain counters a cell records, as increments over the body.
GOLDEN_COUNTERS = ("fault.read", "fault.write", "pull_in", "push_out")

Cell = Dict[str, float]


def cell_ids() -> List[str]:
    """Every ``workload/backend/cluster`` cell, in suite order."""
    return [f"{name}/{backend}/{cluster}"
            for name, workload in WORKLOADS.items()
            for backend in workload.backends
            for cluster in CLUSTERS]


def measure(workload: str, backend: str, cluster: str) -> Cell:
    """Run one cell: the body's exact virtual ms, and how many read
    and write faults, pullIns and pushOuts the body caused."""
    spec = WORKLOADS[workload]
    if backend not in spec.backends:
        raise ValueError(
            f"workload {workload!r} does not run on {backend!r}")
    state = spec.setup(backend, cluster)
    registry = state["vm"].probe.registry
    before = [registry.counter_value(name) for name in GOLDEN_COUNTERS]
    with ClockRegion(state["clock"]) as timer:
        spec.body(state)
    cell: Cell = {"virtual_ms": timer.elapsed}
    for name, start in zip(GOLDEN_COUNTERS, before):
        cell[name] = registry.counter_value(name) - start
    return cell


def golden_diff(expected: Dict[str, Cell], measured: Dict[str, Cell]
                ) -> Dict[str, Tuple[Optional[Cell], Optional[Cell]]]:
    """``{cell: (expected, measured)}`` for every cell that is not
    exactly equal (``==``, no tolerance) or that only one side has."""
    return {cell: (expected.get(cell), measured.get(cell))
            for cell in sorted(set(expected) | set(measured))
            if expected.get(cell) != measured.get(cell)}
