"""Property test: vectorized replay is observationally scalar replay.

Twin nuclei replay the same random trace — one access at a time
through the ordinary bus, and in bulk through
:class:`repro.hardware.vbus.VectorBus`.  The memory is small enough
that long traces evict (so the fallback path, frame reuse and the
classification-cache invalidation all get exercised) and the TLB is
tiny (so hit runs straddle fills and evictions).  Afterwards *every*
observable must be bit-identical: the virtual clock, all mechanism
counters (the ``vbus.*`` throughput counters are the one permitted
addition), physical RAM down to the byte, and the TLB's entry set in
LRU order.  Both engines — numpy and the stdlib fallback — must pass
the same property; this test is tier 1 and runs with and without
numpy in CI (``REPRO_NO_NUMPY=1``).
"""

import pytest
from hypothesis import given, strategies as st

from repro.bench.costmodel import SUN360_PAGE, chorus_nucleus
from repro.fastpath import numpy_available
from repro.hardware.vbus import VectorBus
from repro.workloads.tracecomp import compile_trace
from tests.property import scaled_settings

PAGE = SUN360_PAGE
PAGES = 24
#: 16 frames for a 24-page working set: long traces must evict.
MEMORY = 16 * PAGE
BASE = 0x40000

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=PAGES - 1),
              st.booleans()),
    min_size=1, max_size=80)

ENGINES = [pytest.param(False, id="python")]
if numpy_available():
    ENGINES.insert(0, pytest.param(True, id="numpy"))


def run(trace, vectorized, use_numpy=False):
    nucleus = chorus_nucleus(memory_size=MEMORY, tlb_entries=8)
    vm = nucleus.vm
    actor = nucleus.create_actor("parity")
    nucleus.rgn_allocate(actor, PAGES * PAGE, address=BASE)
    if vectorized:
        compiled = compile_trace(trace, use_numpy=use_numpy)
        vbus = VectorBus(vm.bus, use_numpy=use_numpy)
        done = vbus.replay(actor.context.space, compiled.pages,
                           compiled.writes, base_vpn=BASE // PAGE)
        assert done == len(trace)
    else:
        for page, write in trace:
            vaddr = BASE + page * PAGE
            if write:
                actor.write(vaddr, b"\x01")
            else:
                actor.read(vaddr, 1)
    counters = {
        key: value
        for key, value in vm.metrics_snapshot()["counters"].items()
        if not key.startswith("vbus.")
    }
    tlb = vm.bus.mmu.tlb
    return (vm.clock.now(), counters, bytes(vm.bus.memory._ram),
            list(tlb._entries.items()))


@pytest.mark.parametrize("use_numpy", ENGINES)
@scaled_settings(60, 50)
@given(trace=traces)
def test_vectorized_replay_is_scalar_replay(use_numpy, trace):
    scalar = run(trace, vectorized=False)
    vector = run(trace, vectorized=True, use_numpy=use_numpy)
    assert vector[0] == scalar[0], "virtual clock diverged"
    assert vector[1] == scalar[1], "mechanism counters diverged"
    assert vector[2] == scalar[2], "physical memory diverged"
    assert vector[3] == scalar[3], "TLB state or LRU order diverged"
