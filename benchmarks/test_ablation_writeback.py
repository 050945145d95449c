"""Ablation A9: write-back daemon vs sync-on-eviction.

Measures the latency shape the daemon buys: with background cleaning,
eviction-time pushOuts (paid inside someone's fault path) shrink, at
the cost of some extra total write-back traffic.
"""

import pytest

from repro.bench import costmodel
from repro.bench.tables import format_series
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import ClockRegion, CostEvent
from repro.cache.writeback import WritebackDaemon
from repro.units import KB

PAGE = 8 * KB
RAM_PAGES = 16


def run(daemon_every: int):
    """A dirty working set cycled under pressure; returns metrics.

    ``daemon_every`` = 0 disables the daemon (pushOuts happen only at
    eviction); N > 0 ticks it every N write bursts.
    """
    nucleus = costmodel.chorus_nucleus(memory_size=RAM_PAGES * PAGE)
    vm = nucleus.vm
    daemon = WritebackDaemon(vm, age_threshold=1, batch_limit=64)
    cache = vm.cache_create(ZeroFillProvider())
    worst_fault_ms = 0.0
    eviction_pushes = 0
    for burst in range(12):
        # Dirty a sliding window of 8 pages (wraps past RAM).
        for index in range(8):
            page = (burst * 4 + index) % (2 * RAM_PAGES)
            pushes_before = vm.clock.count(CostEvent.PUSH_OUT)
            with ClockRegion(vm.clock) as timer:
                vm.cache_write(cache, page * PAGE, bytes([burst + 1]))
            if vm.clock.count(CostEvent.PUSH_OUT) > pushes_before:
                eviction_pushes += (vm.clock.count(CostEvent.PUSH_OUT)
                                    - pushes_before)
                worst_fault_ms = max(worst_fault_ms, timer.elapsed)
        if daemon_every and burst % daemon_every == 0:
            daemon.tick()
    total_pushes = vm.clock.count(CostEvent.PUSH_OUT)
    return {
        "worst_write_ms": worst_fault_ms,
        "eviction_pushes": eviction_pushes,
        "total_pushes": total_pushes,
        "daemon_cleaned": daemon.pages_cleaned,
    }


def test_writeback_flattens_eviction_latency(benchmark, report):
    without = run(daemon_every=0)
    with_daemon = run(daemon_every=1)
    benchmark(run, 1)
    report(format_series(
        "A9: write-back daemon vs sync-on-eviction "
        f"(RAM={RAM_PAGES}p, sliding dirty window)",
        ("config", "worst write ms", "eviction pushOuts",
         "total pushOuts", "daemon-cleaned"),
        [
            ("sync-on-eviction", round(without["worst_write_ms"], 2),
             without["eviction_pushes"], without["total_pushes"], 0),
            ("daemon every burst", round(with_daemon["worst_write_ms"], 2),
             with_daemon["eviction_pushes"], with_daemon["total_pushes"],
             with_daemon["daemon_cleaned"]),
        ]))
    # The daemon moves write-back out of the eviction path...
    assert with_daemon["eviction_pushes"] < without["eviction_pushes"]
    # ...without data loss (total write-back may grow: that's the trade).
    assert with_daemon["daemon_cleaned"] > 0
