"""Experiment runners for Tables 6 and 7 and the derived metrics.

Both benchmark programs follow section 5.3.1 exactly, expressed over
the Nucleus operations of 5.1.4 (which is how the original benchmarks
called the system):

* **zero-fill** (Table 6): create a region (rgnAllocate), access some
  of the data to demand-allocate zero-filled memory, deallocate and
  destroy the region;
* **copy-on-write** (Table 7): with a source region created and fully
  allocated beforehand, create a copy region (rgnInitFromActor),
  modify some of the source data to force real copies, then deallocate
  and destroy the copy region.

Timing is the virtual clock: calibrated unit costs priced onto the
event stream the mechanisms actually generate.  Runs are deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bench import costmodel
from repro.bench.tables import REGION_SIZES_KB, TOUCH_COUNTS, cell_valid
from repro.gmi.types import Protection
from repro.kernel.clock import ClockRegion
from repro.units import KB

Grid = Dict[Tuple[int, int], float]

NUCLEUS_FACTORIES: Dict[str, Callable] = {
    "chorus": costmodel.chorus_nucleus,
    "mach": costmodel.mach_nucleus,
}

REGION_BASE = 0x0100_0000
SRC_BASE = 0x0200_0000


def run_zero_fill_cell(system: str, region_kb: int, pages: int) -> float:
    """One Table 6 cell: virtual ms for create/touch-N/destroy."""
    nucleus = NUCLEUS_FACTORIES[system]()
    actor = nucleus.create_actor("bench")
    page_size = nucleus.vm.page_size
    with ClockRegion(nucleus.clock) as timer:
        region = nucleus.rgn_allocate(actor, region_kb * KB,
                                      address=REGION_BASE)
        for index in range(pages):
            actor.write(REGION_BASE + index * page_size, b"\x01")
        nucleus.rgn_free(actor, region)
    return timer.elapsed


def run_cow_cell(system: str, region_kb: int, dirty_pages: int) -> float:
    """One Table 7 cell: deferred copy + N forced real copies."""
    nucleus = NUCLEUS_FACTORIES[system]()
    actor = nucleus.create_actor("bench")
    page_size = nucleus.vm.page_size
    total_pages = region_kb * KB // page_size
    # "The source region is created and allocated before starting the
    # measurement."
    nucleus.rgn_allocate(actor, region_kb * KB, address=SRC_BASE)
    for index in range(total_pages):
        actor.write(SRC_BASE + index * page_size, bytes([index % 251 + 1]))
    with ClockRegion(nucleus.clock) as timer:
        copy_region = nucleus.rgn_init_from_actor(
            actor, actor, SRC_BASE, address=REGION_BASE,
            protection=Protection.RW)
        for index in range(dirty_pages):
            # Modify the *source* to force a real copy (pre-image push).
            actor.write(SRC_BASE + index * page_size, b"\xFF")
        nucleus.rgn_free(actor, copy_region)
    return timer.elapsed


def zero_fill_table(system: str) -> Grid:
    """The full Table 6 grid for one system."""
    grid: Grid = {}
    for region_kb in REGION_SIZES_KB:
        for pages in TOUCH_COUNTS:
            if cell_valid(region_kb, pages):
                grid[(region_kb, pages)] = run_zero_fill_cell(
                    system, region_kb, pages)
    return grid


def cow_table(system: str) -> Grid:
    """The full Table 7 grid for one system."""
    grid: Grid = {}
    for region_kb in REGION_SIZES_KB:
        for pages in TOUCH_COUNTS:
            if cell_valid(region_kb, pages):
                grid[(region_kb, pages)] = run_cow_cell(
                    system, region_kb, pages)
    return grid


def derived_metrics(zero_fill: Grid, cow: Grid) -> Dict[str, float]:
    """Section 5.3.2's quantities, via the paper's own formulas."""
    bcopy, bzero = costmodel.BCOPY_PAGE_MS, costmodel.BZERO_PAGE_MS
    # "the cost of a creation/copy of 128 pages region, minus the cost
    # of a creation/copy of a one page region, divided by the number of
    # additional pages"
    protect_per_page = (cow[(1024, 0)] - cow[(8, 0)]) / 127
    # "the cost of a 1-page region creation/copy, minus the cost of
    # creating and allocating 0 pages in a 1-page region, minus the
    # per-page overhead"
    tree_setup = cow[(8, 0)] - zero_fill[(8, 0)] - protect_per_page
    # "(221.9 - 2.4)/128 - 1.4"
    cow_overhead = (cow[(1024, 128)] - cow[(1024, 0)]) / 128 - bcopy
    # "(145.9 - 0.39)/128 - 0.87"
    zero_fill_overhead = ((zero_fill[(1024, 128)] - zero_fill[(1024, 0)])
                          / 128 - bzero)
    # "the difference between creating a 1-page region and a 128-page
    # region is only 10%"
    size_dependence = (zero_fill[(1024, 0)] - zero_fill[(8, 0)]) \
        / zero_fill[(8, 0)]
    return {
        "protect_per_page_ms": protect_per_page,
        "history_tree_setup_ms": tree_setup,
        "cow_overhead_per_page_ms": cow_overhead,
        "zero_fill_overhead_per_page_ms": zero_fill_overhead,
        "create_destroy_size_dependence": size_dependence,
        "history_vs_zero_fill_ratio": cow_overhead / zero_fill_overhead,
    }


def tenant_storm_ablation(backend: str = "pvm") -> Dict[str, Dict[str, float]]:
    """The PR-9 pressure-arbiter ablation: the ``tenant_storm``
    overcommit storm with the frame arbiter on and off.

    Arbitrated, the balancer daemon re-splits a 960-frame budget by
    measured working-set size each round, so aggregate residency never
    reaches physical RAM and the thrasher's refaults are charged to the
    thrasher; unarbitrated, the same storm runs until frame allocation
    fails and global reclaim punishes every tenant alike.  Returns one
    metrics row per variant (``arbitrated`` / ``unarbitrated``).
    """
    from repro.workloads.cells import (
        STORM_BUDGET, STORM_FLOOR, _tenant_storm_body, _tenant_storm_setup,
    )

    rows: Dict[str, Dict[str, float]] = {}
    for arbitrated in (False, True):
        state = _tenant_storm_setup(backend, arbitrated=arbitrated)
        with ClockRegion(state["clock"]) as timer:
            _tenant_storm_body(state)
        snapshot = state["vm"].metrics_snapshot()
        gauges = snapshot["gauges"]
        counters = snapshot["counters"]
        grants = [value for key, value in gauges.items()
                  if key.startswith("balancer.grant{")]
        rows["arbitrated" if arbitrated else "unarbitrated"] = {
            "virtual_ms": timer.elapsed,
            "psi_full_avg10": gauges.get("psi.memory.full.avg10", 0.0),
            "psi_full_avg300": gauges.get("psi.memory.full.avg300", 0.0),
            "psi_full_total_ms": gauges.get("psi.memory.full.total_ms", 0.0),
            "resident_peak_pages": float(state["resident_peak"]),
            "resident_final_pages": float(len(state["vm"].residency)),
            "refaults": float(gauges.get("ws.refaults", 0.0)),
            "budget_pages": float(STORM_BUDGET) if arbitrated else 0.0,
            "floor_pages": float(STORM_FLOOR) if arbitrated else 0.0,
            "min_grant_pages": min(grants) if grants else 0.0,
            "suspensions": float(counters.get("balancer.suspend", 0)),
        }
    return rows


def trace_replay_ablation(system: str = "chorus",
                          accesses: int = 1_000_000,
                          pages: int = 512,
                          tlb_entries: int = 64,
                          ) -> Dict[str, Dict[str, float]]:
    """The PR-10 vectorized-access-path ablation (EXPERIMENTS.md A13).

    The same zipf trace replays three ways over a prewarmed *pages*-
    page region: one access at a time through the scalar bus, and in
    bulk through :class:`~repro.hardware.vbus.VectorBus` on each
    available engine (``vectorized_numpy`` only when the ``fast``
    extra is installed).  Wall time is measured with the metrics
    registry paused and the garbage collector off, and each row
    carries the virtual time and fault count so the equality the
    parity property proves is visible right in the table: the
    vectorized rows may only be *faster*, never different.
    """
    import gc
    import time

    from repro.fastpath import numpy_available
    from repro.hardware.vbus import VectorBus
    from repro.workloads.tracecomp import zipf_columns
    from repro.workloads.traces import zipf_trace

    factory = NUCLEUS_FACTORIES[system]
    scalar_trace = zipf_trace(pages, accesses, seed=11)
    columns = {"vectorized_python": zipf_columns(pages, accesses,
                                                 seed=11,
                                                 use_numpy=False)}
    variants = ["scalar", "vectorized_python"]
    if numpy_available():
        columns["vectorized_numpy"] = zipf_columns(pages, accesses,
                                                   seed=11,
                                                   use_numpy=True)
        variants.append("vectorized_numpy")

    rows: Dict[str, Dict[str, float]] = {}
    for variant in variants:
        nucleus = factory(tlb_entries=tlb_entries)
        vm = nucleus.vm
        page_size = vm.page_size
        actor = nucleus.create_actor("ablation")
        nucleus.rgn_allocate(actor, pages * page_size,
                             address=REGION_BASE)
        for index in range(pages):
            actor.write(REGION_BASE + index * page_size, b"\x01")
        clock_before = nucleus.clock.now()
        faults_before = vm.bus.stats.get("faults")
        registry = vm.probe.registry
        registry.enabled = False
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            if variant == "scalar":
                write = actor.write
                read = actor.read
                for page, is_write in scalar_trace:
                    address = REGION_BASE + page * page_size
                    if is_write:
                        write(address, b"\x01")
                    else:
                        read(address, 1)
            else:
                trace = columns[variant]
                vbus = VectorBus(
                    vm.bus,
                    use_numpy=variant == "vectorized_numpy")
                vbus.replay(actor.context.space, trace.pages,
                            trace.writes,
                            base_vpn=REGION_BASE // page_size)
            wall_ms = (time.perf_counter() - start) * 1000.0
        finally:
            if gc_was_enabled:
                gc.enable()
            registry.enabled = True
        rows[variant] = {
            "wall_ms": wall_ms,
            "accesses_per_s": accesses * 1000.0 / wall_ms,
            "virtual_ms": nucleus.clock.now() - clock_before,
            "faults": float(vm.bus.stats.get("faults") - faults_before),
        }
    scalar_wall = rows["scalar"]["wall_ms"]
    for variant in variants:
        rows[variant]["speedup"] = scalar_wall / rows[variant]["wall_ms"]
    return rows
