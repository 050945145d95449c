"""Trace generators and the replay harness."""

import pytest

from repro.bench import costmodel
from repro.workloads.traces import (
    loop_trace, phase_trace, replay, uniform_trace, zipf_trace,
)
from repro.units import KB

PAGE = 8 * KB


class TestGenerators:
    def test_lengths_and_bounds(self):
        for generator in (uniform_trace, zipf_trace, loop_trace,
                          phase_trace):
            trace = generator(16, 200, seed=3)
            assert len(trace) == 200
            assert all(0 <= page < 16 for page, _ in trace)

    def test_determinism(self):
        assert zipf_trace(32, 500, seed=7) == zipf_trace(32, 500, seed=7)
        assert zipf_trace(32, 500, seed=7) != zipf_trace(32, 500, seed=8)

    def test_zipf_is_skewed(self):
        trace = zipf_trace(64, 4000, skew=1.2, seed=5)
        counts = {}
        for page, _ in trace:
            counts[page] = counts.get(page, 0) + 1
        top4 = sum(sorted(counts.values(), reverse=True)[:4])
        assert top4 > 0.4 * len(trace)       # heavy head

    def test_loop_is_sequential(self):
        trace = loop_trace(8, 20)
        assert [page for page, _ in trace] == [i % 8 for i in range(20)]

    def test_write_ratio_respected(self):
        trace = uniform_trace(16, 2000, write_ratio=0.0, seed=1)
        assert not any(is_write for _, is_write in trace)
        trace = uniform_trace(16, 2000, write_ratio=1.0, seed=1)
        assert all(is_write for _, is_write in trace)

    def test_phase_trace_has_locality(self):
        trace = phase_trace(128, 400, phases=4, locality=8, seed=2)
        quarter = len(trace) // 4
        for phase in range(4):
            pages = {page for page, _ in
                     trace[phase * quarter:(phase + 1) * quarter]}
            assert len(pages) <= 8


class TestReplay:
    def test_fits_in_ram_no_steady_state_faults(self):
        nucleus = costmodel.chorus_nucleus(memory_size=64 * PAGE)
        trace = zipf_trace(16, 300, seed=4)
        result = replay(nucleus, trace, pages=16, prewarm=True)
        assert result.accesses == 300
        assert result.faults == 0

    def test_pressure_produces_faults(self):
        nucleus = costmodel.chorus_nucleus(memory_size=16 * PAGE)
        trace = loop_trace(32, 300, seed=4)
        result = replay(nucleus, trace, pages=32, prewarm=True)
        assert result.faults > 0
        assert result.pull_ins >= result.faults * 0.5
        assert result.virtual_ms > 0

    def test_skew_faults_less_than_uniform_under_pressure(self):
        """Locality pays: zipf traffic mostly hits the resident head."""
        def rate(trace):
            nucleus = costmodel.chorus_nucleus(memory_size=20 * PAGE)
            return replay(nucleus, trace, pages=48,
                          prewarm=True).fault_rate

        zipf_rate = rate(zipf_trace(48, 600, skew=1.4, seed=9))
        uniform_rate = rate(uniform_trace(48, 600, seed=9))
        assert zipf_rate < uniform_rate

    def test_replay_cleans_up(self):
        nucleus = costmodel.chorus_nucleus(memory_size=32 * PAGE)
        replay(nucleus, uniform_trace(8, 50, seed=1), pages=8)
        assert len(nucleus.actors) == 0


class TestVectorizedReplay:
    def test_matches_scalar_result_under_pressure(self):
        # Same trace, twin nuclei: the vectorized path must report
        # identical fault statistics and virtual time even when the
        # working set evicts (tests/property/test_vbus_parity.py pins
        # the full observational equivalence; this is the replay()
        # wiring).
        trace = zipf_trace(32, 400, seed=6)
        scalar = replay(costmodel.chorus_nucleus(memory_size=16 * PAGE),
                        trace, pages=32, prewarm=True)
        vector = replay(costmodel.chorus_nucleus(memory_size=16 * PAGE),
                        trace, pages=32, prewarm=True, vectorized=True)
        assert vector == scalar
        assert vector.faults > 0

    def test_accepts_a_compiled_trace(self):
        from repro.workloads.tracecomp import zipf_columns
        compiled = zipf_columns(16, 300, seed=4)
        nucleus = costmodel.chorus_nucleus(memory_size=64 * PAGE)
        result = replay(nucleus, compiled, pages=16, prewarm=True,
                        vectorized=True)
        assert result.accesses == 300
        assert result.faults == 0
        assert len(nucleus.actors) == 0

    def test_unaligned_base_rejected(self):
        from repro.errors import InvalidOperation
        nucleus = costmodel.chorus_nucleus(memory_size=32 * PAGE)
        with pytest.raises(InvalidOperation, match="page-aligned"):
            replay(nucleus, [(0, False)], pages=1, base=0x100080,
                   vectorized=True)

    def test_records_the_access_gauge(self):
        nucleus = costmodel.chorus_nucleus(memory_size=32 * PAGE)
        replay(nucleus, loop_trace(8, 120, seed=2), pages=8,
               vectorized=True)
        registry = nucleus.vm.probe.registry
        assert registry.gauge_value("trace.accesses") == 120.0

    def test_repeated_replays_share_one_vbus_source(self):
        # Each vectorized replay on one manager reuses its bus's
        # VectorBus, so the registry reads one vbus counter however
        # many replays ran, and its totals cover all of them.
        nucleus = costmodel.chorus_nucleus(memory_size=32 * PAGE)
        registry = nucleus.vm.probe.registry
        for seed in range(3):
            replay(nucleus, loop_trace(8, 40, seed=seed), pages=8,
                   vectorized=True)
        vbus_sources = [counter for counter, namespace, _
                        in registry._sources if namespace == "vbus."]
        assert len(vbus_sources) == 1
        assert registry.counter_value("vbus.replays") == 3
