"""Ablation A8: replacement policies under synthetic access traces.

Completes A7 with trace-driven evaluation: zipf (skewed), uniform,
loop (sequential) and phase-change traces replayed under each policy
at a fixed memory pressure.
"""

import pytest

from repro.bench import costmodel
from repro.bench.tables import format_series
from repro.cache.eviction import FifoPolicy, LruPolicy, SecondChancePolicy
from repro.units import KB
from repro.workloads.traces import (
    loop_trace, phase_trace, replay, uniform_trace, zipf_trace,
)

PAGE = 8 * KB

#: The three policies once each, by name (EVICTION_POLICIES also holds
#: the "clock" alias of second-chance, which would run one sweep twice).
POLICIES = {policy.name: policy
            for policy in (FifoPolicy, SecondChancePolicy, LruPolicy)}

RAM_PAGES = 20
TRACE_PAGES = 48
LENGTH = 600

TRACES = {
    "zipf":    lambda: zipf_trace(TRACE_PAGES, LENGTH, skew=1.4, seed=11),
    "uniform": lambda: uniform_trace(TRACE_PAGES, LENGTH, seed=11),
    "loop":    lambda: loop_trace(TRACE_PAGES, LENGTH, seed=11),
    "phase":   lambda: phase_trace(TRACE_PAGES, LENGTH, phases=4,
                                   locality=8, seed=11),
}


def run(trace_name, policy_name):
    nucleus = costmodel.chorus_nucleus(
        memory_size=RAM_PAGES * PAGE,
        replacement_policy=POLICIES[policy_name]())
    result = replay(nucleus, TRACES[trace_name](), pages=TRACE_PAGES,
                    prewarm=True)
    return result


def test_trace_policy_matrix(benchmark, report):
    rows = []
    rates = {}
    for trace_name in TRACES:
        for policy_name in sorted(POLICIES):
            result = run(trace_name, policy_name)
            rates[(trace_name, policy_name)] = result.fault_rate
            rows.append((trace_name, policy_name,
                         f"{result.fault_rate:.3f}",
                         result.faults, round(result.virtual_ms, 1)))
    benchmark(run, "zipf", "second-chance")
    report(format_series(
        f"A8: fault rates by trace and policy "
        f"(RAM={RAM_PAGES}p, trace set={TRACE_PAGES}p, {LENGTH} accesses)",
        ("trace", "policy", "fault rate", "faults", "virtual ms"), rows))

    # Locality-friendly traces beat uniform under every policy.
    for policy_name in POLICIES:
        assert rates[("zipf", policy_name)] < \
            rates[("uniform", policy_name)]
    # Phase behaviour favours recency over FIFO.
    assert rates[("phase", "lru")] <= rates[("phase", "fifo")]
    # Everything thrashes on the loop (sequential flooding).
    for policy_name in POLICIES:
        assert rates[("loop", policy_name)] > 0.5


def test_fault_rate_vs_memory_curve(benchmark, report):
    """The classic miss-ratio curve: zipf trace, growing RAM."""
    rows = []
    trace = zipf_trace(TRACE_PAGES, LENGTH, skew=1.2, seed=13)
    for ram_pages in (8, 12, 16, 24, 32, 48):
        nucleus = costmodel.chorus_nucleus(memory_size=ram_pages * PAGE)
        result = replay(nucleus, trace, pages=TRACE_PAGES, prewarm=True)
        rows.append((ram_pages, f"{result.fault_rate:.3f}"))
    benchmark(lambda: None)
    report(format_series(
        "A8b: miss-ratio curve (zipf 1.2 over 48 pages)",
        ("RAM pages", "fault rate"), rows))
    values = [float(rate) for _, rate in rows]
    # Monotone non-increasing, and full residency means zero faults.
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0
