"""Trace-driven memory workloads.

A *trace* is a sequence of (page_index, is_write) accesses.  This
module generates classic synthetic traces — uniform, zipf-skewed,
looping, scanning, and phase-change mixtures — and replays them
against a memory manager, reporting fault statistics.  Replays are
deterministic: generators take an explicit seed.

Used by the replacement-policy benchmarks and available as a library
facility for studying paging behaviour (the kind of tool a VM team
keeps around).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import InvalidOperation
from repro.gmi.types import Protection
from repro.kernel.clock import ClockRegion

Access = Tuple[int, bool]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def uniform_trace(pages: int, length: int, write_ratio: float = 0.3,
                  seed: int = 1) -> List[Access]:
    """Uniformly random page accesses."""
    rng = random.Random(seed)
    return [(rng.randrange(pages), rng.random() < write_ratio)
            for _ in range(length)]


def zipf_trace(pages: int, length: int, skew: float = 1.2,
               write_ratio: float = 0.3, seed: int = 1) -> List[Access]:
    """Zipf-skewed accesses: a few pages get most of the traffic."""
    rng = random.Random(seed)
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(pages)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)

    # bisect_left is the C-speed twin of the hand-rolled binary search
    # this generator used to carry: both return the first rank whose
    # cumulative weight reaches the needle (clamped to the last page
    # for the float-rounding case where no rank does), so the access
    # sequence per seed is unchanged.
    last = pages - 1
    return [(min(bisect_left(cumulative, rng.random()), last),
             rng.random() < write_ratio) for _ in range(length)]


def loop_trace(pages: int, length: int, write_ratio: float = 0.0,
               seed: int = 1) -> List[Access]:
    """Strictly sequential looping over the page set."""
    rng = random.Random(seed)
    return [(index % pages, rng.random() < write_ratio)
            for index in range(length)]


def phase_trace(pages: int, length: int, phases: int = 4,
                locality: int = 8, write_ratio: float = 0.3,
                seed: int = 1) -> List[Access]:
    """Phase-change behaviour: a small hot window that jumps around.

    Exactly *length* accesses: the first ``length % phases`` phases
    take one access more than the others.
    """
    rng = random.Random(seed)
    trace: List[Access] = []
    per_phase, longer = divmod(length, phases)
    for phase in range(phases):
        base = rng.randrange(max(1, pages - locality))
        for _ in range(per_phase + (phase < longer)):
            page = base + rng.randrange(locality)
            trace.append((min(page, pages - 1),
                          rng.random() < write_ratio))
    return trace


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Fault statistics of one trace replay."""
    accesses: int
    faults: int
    pull_ins: int
    push_outs: int
    virtual_ms: float

    @property
    def fault_rate(self) -> float:
        """Faults per access."""
        return self.faults / self.accesses if self.accesses else 0.0


def replay(nucleus, trace: Iterable[Access], pages: int,
           base: int = 0x100000, prewarm: bool = False,
           vectorized: bool = False,
           use_numpy: Optional[bool] = None) -> ReplayResult:
    """Drive *trace* through a mapped region on *nucleus*.

    With ``prewarm`` every page is touched once first, so the measured
    run isolates steady-state (capacity) faulting from cold-start.

    With ``vectorized`` the trace is compiled to columns (unless it
    already is a :class:`~repro.workloads.tracecomp.CompiledTrace`)
    and replayed through :class:`~repro.hardware.vbus.VectorBus`:
    hits retire in bulk, faults run through the unchanged scalar
    engine, and every observable — fault sequence, counters, virtual
    time, memory bytes — matches the scalar loop bit for bit.
    ``use_numpy`` overrides the :mod:`repro.fastpath` gate.
    """
    vm = nucleus.vm
    page_size = vm.page_size
    actor = nucleus.create_actor("replay")
    nucleus.rgn_allocate(actor, pages * page_size, address=base,
                         protection=Protection.RW)
    if prewarm:
        for index in range(pages):
            actor.write(base + index * page_size, bytes([index % 251 + 1]))

    registry = getattr(getattr(vm, "probe", None), "registry", None)
    faults_before = vm.bus.stats.get("faults")
    counters = vm.clock.snapshot()
    count = 0
    if vectorized:
        from repro.hardware.vbus import VectorBus
        from repro.workloads.tracecomp import CompiledTrace, compile_trace
        if base % page_size:
            raise InvalidOperation(
                f"vectorized replay needs a page-aligned base, "
                f"got {base:#x}")
        compiled = trace if isinstance(trace, CompiledTrace) \
            else compile_trace(trace, use_numpy=use_numpy)
        vbus = VectorBus.of(vm.bus, registry, use_numpy=use_numpy)
        with ClockRegion(vm.clock) as timer:
            count = vbus.replay(actor.context.space, compiled.pages,
                                compiled.writes,
                                base_vpn=base // page_size)
    else:
        with ClockRegion(vm.clock) as timer:
            for page, is_write in trace:
                address = base + page * page_size
                if is_write:
                    actor.write(address, b"\x01")
                else:
                    actor.read(address, 1)
                count += 1
    after = vm.clock.snapshot()
    if registry is not None:
        registry.set_gauge("trace.accesses", float(count))
    result = ReplayResult(
        accesses=count,
        faults=vm.bus.stats.get("faults") - faults_before,
        pull_ins=after.get("pull_in", 0) - counters.get("pull_in", 0),
        push_outs=after.get("push_out", 0) - counters.get("push_out", 0),
        virtual_ms=timer.elapsed,
    )
    nucleus.destroy_actor(actor)
    return result
