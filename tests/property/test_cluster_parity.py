"""Property test: fault clustering never changes the golden accounting.

Twin managers — one clustering, one not — replay the same random touch
sequence (reads and writes; sequential runs, random scatter, long
jumps, revisits).  Whatever the access pattern does to the read-ahead
heuristics, the virtual clock, every mechanism counter and all
user-visible bytes must be bit-identical; clustering may only change
how many provider upcalls it took to get there.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.provider import ZeroFillProvider
from repro.gmi.types import Protection
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB
PAGES = 24
BASE = 0x40000

#: A touch: (page index, is_write).  Sequences mix short sequential
#: bursts with arbitrary scatter, so the adaptive streak detector gets
#: opened, extended, broken and re-opened at random.
touches = st.lists(
    st.tuples(st.integers(min_value=0, max_value=PAGES - 1),
              st.booleans()),
    min_size=1, max_size=60)

policies = st.sampled_from(["fixed:4", "fixed:16", "adaptive"])
advices = st.sampled_from([None, "sequential", "random"])


def run(policy, sequence, advice):
    vm = PagedVirtualMemory(memory_size=4 * 1024 * KB,
                            cluster_policy=policy)
    cache = vm.cache_create(ZeroFillProvider(), name="prop")
    context = vm.context_create("prop")
    context.region_create(BASE, PAGES * PAGE, protection=Protection.RW,
                          cache=cache, offset=0, advice=advice)
    context.switch()
    for index, write in sequence:
        vaddr = BASE + index * PAGE
        if write:
            vm.user_write(context, vaddr, bytes([index + 1]))
        else:
            vm.user_read(context, vaddr, 1)
    data = vm.user_read(context, BASE, PAGES * PAGE)
    # engine.cluster.* and engine.inflight.* describe how the engine
    # shaped the work (window sizes, pull spans) — clustering is
    # allowed to change those; everything it
    # accounts for (charges, faults, pulls, hits/misses) must not move.
    # space.inflight_wait is the per-space projection of
    # engine.inflight.coalesced, so it rides the same exemption.
    counters = {
        key: value
        for key, value in vm.metrics_snapshot()["counters"].items()
        if not key.startswith(("engine.cluster.", "engine.inflight.",
                               "space.inflight_wait"))
    }
    return vm.clock.now(), counters, data


@settings(max_examples=60, deadline=None)
@given(sequence=touches, policy=policies, advice=advices)
def test_clustered_run_is_accounting_identical(sequence, policy, advice):
    base = run(None, sequence, advice)
    clustered = run(policy, sequence, advice)
    assert clustered[0] == base[0], "virtual clock diverged"
    assert clustered[1] == base[1], "mechanism counters diverged"
    assert clustered[2] == base[2], "user-visible bytes diverged"
