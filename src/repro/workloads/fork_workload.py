"""Fork-pattern workloads (the shapes discussed in section 4.2.5).

Two patterns matter for the history-vs-shadow comparison:

* the **shell pattern** — one long-lived parent forks short-lived
  children repeatedly, modifying its own data between forks.  Shadow
  chains grow under the parent (unless merged); history trees keep the
  parent's lookups flat by construction.
* the **fork-exit chain** — parent forks, exits, the child continues,
  forks, exits, ...  This is the one shape where the *history* side
  accumulates inactive nodes ("exceptional in Unix applications"),
  handled by the collapse GC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gmi.interface import CopyPolicy
from repro.kernel.clock import ClockRegion


@dataclass
class ForkMetrics:
    """What a fork workload produces for the ablation tables."""

    generations: int
    final_chain_depth: int
    internal_objects: int
    lookup_hops: int
    merge_pages: int
    virtual_ms: float
    source_write_ms_last_gen: float


def _chain_depth(vm, cache) -> int:
    return len(cache.ancestry(0))


def shell_pipeline(nucleus, generations: int, pages: int = 8) -> ForkMetrics:
    """Long-lived parent forks short-lived children repeatedly.

    Uses raw GMI caches (one "data segment") so the measured structure
    is exactly the deferred-copy machinery.
    """
    vm = nucleus.vm
    clock = nucleus.clock
    page = vm.page_size
    parent = nucleus.segment_manager.create_temporary("shell-data")
    for index in range(pages):
        vm.cache_write(parent, index * page, bytes([index + 1]) * 64)

    lookup_event = vm.LOOKUP_EVENT
    merge_event = vm.MERGE_EVENT
    hops_before = clock.count(lookup_event)
    merges_before = clock.count(merge_event)
    last_write_ms = 0.0
    with ClockRegion(clock) as timer:
        for generation in range(generations):
            child = nucleus.segment_manager.create_temporary("child-data")
            vm.cache_copy(parent, 0, child, 0, pages * page,
                          policy=CopyPolicy.HISTORY)
            # Child touches a page, then exits.
            vm.cache_read(child, 0, 64)
            child.destroy()
            # Parent keeps working: modify one page between forks.
            with ClockRegion(clock) as write_timer:
                vm.cache_write(parent, 0, bytes([generation + 100]) * 64)
            last_write_ms = write_timer.elapsed
    internal = sum(1 for cache in vm.caches() if cache.is_history)
    return ForkMetrics(
        generations=generations,
        final_chain_depth=_chain_depth(vm, parent),
        internal_objects=internal,
        lookup_hops=clock.count(lookup_event) - hops_before,
        merge_pages=clock.count(merge_event) - merges_before,
        virtual_ms=timer.elapsed,
        source_write_ms_last_gen=last_write_ms,
    )


def fork_exit_chain(nucleus, generations: int, pages: int = 8,
                    collapse: bool = False) -> ForkMetrics:
    """Parent forks, exits; child continues, forks, exits, ...

    The paper's exceptional case: here the *surviving copy* accumulates
    a chain of dead ancestors; ``collapse`` runs the GC each
    generation.
    """
    vm = nucleus.vm
    clock = nucleus.clock
    page = vm.page_size
    current = nucleus.segment_manager.create_temporary("gen0")
    for index in range(pages):
        vm.cache_write(current, index * page, bytes([index + 1]) * 64)

    lookup_event = vm.LOOKUP_EVENT
    merge_event = vm.MERGE_EVENT
    hops_before = clock.count(lookup_event)
    merges_before = clock.count(merge_event)
    with ClockRegion(clock) as timer:
        for generation in range(generations):
            child = nucleus.segment_manager.create_temporary(
                f"gen{generation + 1}")
            vm.cache_copy(current, 0, child, 0, pages * page,
                          policy=CopyPolicy.HISTORY)
            # The new generation modifies one page; the old one exits.
            vm.cache_write(child, 0, bytes([generation + 50]) * 64)
            current.destroy()
            current = child
            if collapse:
                vm.collapse_history(current)
    with ClockRegion(clock) as read_timer:
        vm.cache_read(current, (pages - 1) * page, 64)   # deepest page
    internal = sum(
        1 for cache in vm.caches() if cache.dead or cache.is_history)
    return ForkMetrics(
        generations=generations,
        final_chain_depth=_chain_depth(vm, current),
        internal_objects=internal,
        lookup_hops=clock.count(lookup_event) - hops_before,
        merge_pages=clock.count(merge_event) - merges_before,
        virtual_ms=timer.elapsed,
        source_write_ms_last_gen=read_timer.elapsed,
    )
