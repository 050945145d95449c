"""Ablation A7: page-replacement policy comparison.

The paper leaves pageout policy to the MM (section 3.3.3); this
ablation prices the choice on two canonical access patterns: a looping
hot set with cold scans (favours recency) and a pure sequential sweep
(defeats it).
"""

import pytest

from repro.bench import costmodel
from repro.bench.tables import format_series
from repro.cache.eviction import FifoPolicy, LruPolicy, SecondChancePolicy
from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import ClockRegion
from repro.nucleus.nucleus import Nucleus
from repro.units import KB

PAGE = 8 * KB

#: The three policies once each, by name (EVICTION_POLICIES also holds
#: the "clock" alias of second-chance, which would run one sweep twice).
POLICIES = {policy.name: policy
            for policy in (FifoPolicy, SecondChancePolicy, LruPolicy)}

RAM_PAGES = 24


def run_pattern(policy_name, pattern):
    nucleus = Nucleus(memory_size=RAM_PAGES * PAGE,
                      cost_model=costmodel.CHORUS_SUN360,
                      replacement_policy=POLICIES[policy_name]())
    vm = nucleus.vm
    cache = vm.cache_create(ZeroFillProvider())
    pages = 2 * RAM_PAGES
    for index in range(pages):
        cache.write(index * PAGE, bytes([index % 199 + 1]))
    pulls_before = cache.statistics.pull_ins
    with ClockRegion(nucleus.clock) as timer:
        if pattern == "hot-loop":
            hot = list(range(6))
            for round_index in range(12):
                for index in hot:
                    cache.read(index * PAGE, 1)
                for cold in range(4):
                    cache.read(((round_index * 4 + cold) % pages) * PAGE, 1)
        elif pattern == "sequential":
            for _ in range(3):
                for index in range(pages):
                    cache.read(index * PAGE, 1)
    return (cache.statistics.pull_ins - pulls_before, timer.elapsed)


def test_policy_comparison(benchmark, report):
    rows = []
    results = {}
    for pattern in ("hot-loop", "sequential"):
        for name in sorted(POLICIES):
            refaults, ms = run_pattern(name, pattern)
            results[(pattern, name)] = refaults
            rows.append((pattern, name, refaults, round(ms, 1)))
    benchmark(run_pattern, "second-chance", "hot-loop")
    report(format_series(
        "A7: replacement policies (RAM=24 pages, WS=48 pages)",
        ("pattern", "policy", "re-faults", "virtual ms"), rows))

    # Recency-aware policies protect the hot set better than FIFO.
    assert results[("hot-loop", "lru")] <= results[("hot-loop", "fifo")]
    assert results[("hot-loop", "second-chance")] <= \
        results[("hot-loop", "fifo")]
    # Sequential sweeps: no policy can win; all fault heavily.
    for name in POLICIES:
        assert results[("sequential", name)] > RAM_PAGES
