"""The unified observability layer: registry, spans, sinks, probes."""

import io
import json

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.obs import (
    CallbackSink, JsonlSink, MetricsRegistry, NOOP_SPAN, NULL_PROBE,
    Probe, RingBufferSink,
)
from repro.pvm import PagedVirtualMemory
from repro.tools import VmStat
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=4 * MB)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 3)
        assert registry.counter_value("a") == 4
        assert registry.counter_value("never") == 0

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("g", 1.5)
        registry.observe("h", 2.0)
        snap = registry.snapshot()
        registry.inc("a")
        assert snap["counters"] == {"a": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["generation"] == 0

    def test_reset_bumps_generation(self):
        registry = MetricsRegistry()
        registry.inc("a")
        generation = registry.generation
        registry.reset()
        assert registry.generation == generation + 1
        assert registry.counter_values() == {}

    def test_scoped_drop_bumps_generation_and_spares_others(self):
        registry = MetricsRegistry()
        registry.inc("mine")
        registry.inc("theirs")
        generation = registry.generation
        registry.drop_counters(["mine"])
        assert registry.generation == generation + 1
        assert registry.counter_values() == {"theirs": 1}


class TestLabeledSeries:
    def test_series_name_sorts_label_keys(self):
        from repro.obs.metrics import series_name, split_series
        series = series_name("fault.write", {"stage": "resolve",
                                             "backend": "pvm"})
        assert series == "fault.write{backend=pvm,stage=resolve}"
        # Whatever order the call site wrote, one storage key results.
        assert series == series_name("fault.write",
                                     {"backend": "pvm", "stage": "resolve"})
        assert split_series(series) == (
            "fault.write", {"backend": "pvm", "stage": "resolve"})
        assert split_series("plain") == ("plain", {})

    def test_labeled_inc_maintains_the_rollup(self):
        registry = MetricsRegistry()
        registry.inc("fault.write", 2, labels={"backend": "pvm"})
        registry.inc("fault.write", 3, labels={"backend": "mach-shadow"})
        registry.inc("fault.write")            # plain increments still work
        assert registry.counter_value("fault.write") == 6
        assert registry.counter_value("fault.write",
                                      labels={"backend": "pvm"}) == 2
        assert registry.labeled_counters("fault.write") == {
            "fault.write{backend=pvm}": 2,
            "fault.write{backend=mach-shadow}": 3,
        }

    def test_precomputed_series_key_rolls_up_too(self):
        from repro.obs.metrics import series_name
        registry = MetricsRegistry()
        series = series_name("engine.stage.locate", {"backend": "pvm"})
        registry.inc(series, 4)
        assert registry.counter_value("engine.stage.locate") == 4
        assert registry.counter_value(series) == 4

    def test_dropping_one_labeled_series_subtracts_from_rollup(self):
        registry = MetricsRegistry()
        registry.inc("c", 2, labels={"k": "a"})
        registry.inc("c", 3, labels={"k": "b"})
        generation = registry.generation
        registry.drop_counters(["c{k=a}"])
        assert registry.generation == generation + 1
        assert registry.counter_value("c") == 3       # still = sum remaining
        assert registry.labeled_counters("c") == {"c{k=b}": 3}

    def test_dropping_the_plain_name_takes_labeled_series_with_it(self):
        registry = MetricsRegistry()
        registry.inc("c", 2, labels={"k": "a"})
        registry.inc("c", 3, labels={"k": "b"})
        registry.inc("other")
        registry.drop_counters(["c"])
        assert registry.counter_value("c") == 0
        assert registry.labeled_counters("c") == {}
        assert registry.counter_value("other") == 1

    def test_dropped_series_leave_the_series_base_cache(self):
        registry = MetricsRegistry()
        registry.inc("c", 1, labels={"k": "a"})
        registry.inc("c", 1, labels={"k": "b"})
        registry.inc("d", 1, labels={"k": "a"})
        registry.drop_counters(["c{k=a}"])
        assert set(registry._series_base) == {"c{k=b}", "d{k=a}"}
        registry.drop_counters(["d"])
        assert set(registry._series_base) == {"c{k=b}"}
        registry.reset()
        assert registry._series_base == {}

    def test_labeled_observe_feeds_both_histograms(self):
        registry = MetricsRegistry()
        registry.observe("depth", 2.0, labels={"backend": "pvm"})
        registry.observe("depth", 4.0, labels={"backend": "mach-shadow"})
        assert registry.histogram("depth").count == 2
        assert registry.histogram("depth").mean == pytest.approx(3.0)
        assert registry.histogram(
            "depth", labels={"backend": "pvm"}).max == pytest.approx(2.0)

    def test_labeled_gauges_have_no_rollup(self):
        registry = MetricsRegistry()
        registry.set_gauge("occupancy", 5.0, labels={"port": "paged"})
        assert registry.gauge_value("occupancy",
                                    labels={"port": "paged"}) == 5.0
        assert registry.gauge_value("occupancy") == 0.0


class TestHistogram:
    def test_percentiles_interpolate(self):
        registry = MetricsRegistry()
        for value in range(1, 101):          # 1..100
            registry.observe("depth", float(value))
        histogram = registry.histogram("depth")
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(90) == pytest.approx(90.1)

    def test_exact_moments_survive_sampling(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(20000):           # overflows the 8192 sample
            registry.observe("h", float(value))
        assert histogram.count == 20000
        assert histogram.min == 0.0
        assert histogram.max == 19999.0
        assert histogram.mean == pytest.approx(19999 / 2)

    def test_summary_shape(self):
        registry = MetricsRegistry()
        registry.observe("h", 3.0)
        summary = registry.histogram("h").summary()
        assert set(summary) == {"count", "min", "max", "mean",
                                "p50", "p90", "p99"}

    def test_empty_histogram_percentiles_are_zero(self):
        histogram = MetricsRegistry().histogram("empty")
        for q in (0, 50, 100):
            assert histogram.percentile(q) == 0.0

    def test_percentile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)
        with pytest.raises(ValueError):
            histogram.percentile(100.1)

    def test_single_sample_answers_every_percentile(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(7.0)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == 7.0

    def test_extremes_exact_after_reservoir_decimation(self):
        # Push the extremes in early, then flood the reservoir: q=0 and
        # q=100 must answer from the exact running min/max even if the
        # decimating sample overwrote them.
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(-123.0)
        histogram.observe(456.0)
        for value in range(20000):
            histogram.observe(50.0 + (value % 7))
        assert histogram.percentile(0) == -123.0
        assert histogram.percentile(100) == 456.0
        assert histogram.min == -123.0
        assert histogram.max == 456.0

    def test_bounded_reservoir_is_deterministic(self):
        # Same observation sequence -> bit-identical summaries; the
        # round-robin decimation involves no randomness.
        def fill():
            histogram = MetricsRegistry().histogram("h")
            for value in range(25000):
                histogram.observe(float((value * 7919) % 1000))
            return histogram
        first, second = fill(), fill()
        assert first.summary() == second.summary()
        assert first.percentile(37.5) == second.percentile(37.5)


# ---------------------------------------------------------------------------
# Probe and spans
# ---------------------------------------------------------------------------

class TestProbe:
    def test_disabled_probe_hands_out_the_shared_noop_span(self):
        probe = Probe()
        first = probe.span("a")
        second = probe.span("b")
        # Identity, not just equality: nothing is allocated per event.
        assert first is second is NOOP_SPAN
        assert not first
        with first as span:
            span.set(anything="goes").event("x")

    def test_null_probe_is_shared_and_off(self):
        assert NULL_PROBE.enabled is False
        assert NULL_PROBE.span("x") is NOOP_SPAN

    def test_span_nesting_records_parent_and_depth(self):
        sink = RingBufferSink()
        probe = Probe(sink=sink)
        with probe.span("outer") as outer:
            with probe.span("inner") as inner:
                assert probe.current_span() is inner
            assert probe.current_span() is outer
        assert probe.current_span() is None
        inner_rec, outer_rec = sink.spans  # children finish first
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer_rec.span_id
        assert inner_rec.depth == 1
        assert outer_rec.parent_id is None

    def test_span_duration_and_histogram_use_virtual_time(self, vm):
        sink = RingBufferSink()
        vm.probe.set_sink(sink)
        with vm.probe.span("op"):
            vm.clock.advance(7.0)
        (span,) = sink.by_name("op")
        assert span.duration_ms == pytest.approx(7.0)
        assert vm.registry.histogram("span.op.ms").max == pytest.approx(7.0)

    def test_charges_attribute_to_innermost_span(self, vm):
        from repro.kernel.clock import CostEvent
        sink = RingBufferSink()
        vm.probe.set_sink(sink)
        with vm.probe.span("outer"):
            vm.clock.charge(CostEvent.FRAME_ALLOC)
            with vm.probe.span("inner"):
                vm.clock.charge(CostEvent.BZERO_PAGE, 2)
        inner, outer = sink.spans
        assert inner.events == {"bzero_page": 2}
        assert outer.events == {"frame_alloc": 1}

    def test_span_records_error_class(self):
        sink = RingBufferSink()
        probe = Probe(sink=sink)
        with pytest.raises(ValueError):
            with probe.span("boom"):
                raise ValueError("nope")
        (span,) = sink.spans
        assert span.attrs["error"] == "ValueError"

    def test_set_sink_returns_previous_and_detaches(self, vm):
        sink = RingBufferSink()
        previous = vm.probe.set_sink(sink)
        assert vm.probe.enabled
        restored = vm.probe.set_sink(None)
        assert restored is sink
        assert not vm.probe.enabled
        assert vm.probe.set_sink(previous) is not sink

    def test_empty_ring_buffer_sink_still_enables_tracing(self):
        # RingBufferSink has __len__; an empty one must not be mistaken
        # for "no sink".
        probe = Probe(sink=RingBufferSink())
        assert probe.enabled

    def test_callback_sink(self):
        seen = []
        probe = Probe(sink=CallbackSink(seen.append))
        with probe.span("cb"):
            pass
        assert [span.name for span in seen] == ["cb"]


class TestJsonlSink:
    def test_round_trip(self, vm):
        buffer = io.StringIO()
        vm.probe.set_sink(JsonlSink(buffer))
        cache = vm.cache_create(ZeroFillProvider(), name="j")
        context = vm.context_create("j")
        context.region_create(0x40000, PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
        context.switch()
        vm.user_write(context, 0x40000, b"x")
        lines = [json.loads(line)
                 for line in buffer.getvalue().splitlines()]
        assert lines, "no spans were written"
        names = {record["span"] for record in lines}
        assert "fault.resolve" in names
        fault = next(record for record in lines
                     if record["span"] == "fault.resolve")
        assert fault["attrs"]["write"] is True
        assert fault["events"]["fault_dispatch"] == 1
        # Nesting is visible in the stream: the pull-in happened inside
        # the materialize stage of the fault's pipeline run.
        materialize = next(record for record in lines
                           if record["span"] == "engine.stage.materialize")
        assert materialize["parent"] == fault["id"]
        assert materialize["depth"] == fault["depth"] + 1
        pull = next(record for record in lines
                    if record["span"] == "cache.pull_in")
        assert pull["parent"] == materialize["id"]
        assert pull["depth"] == materialize["depth"] + 1


# ---------------------------------------------------------------------------
# VM integration: one registry for everything
# ---------------------------------------------------------------------------

class TestVmIntegration:
    def _touch(self, vm, pages=2):
        cache = vm.cache_create(ZeroFillProvider(), name="w")
        context = vm.context_create("w")
        context.region_create(0x40000, pages * PAGE,
                              protection=Protection.RW, cache=cache,
                              offset=0)
        context.switch()
        for index in range(pages):
            vm.user_write(context, 0x40000 + index * PAGE, b"x")
        return cache, context

    def test_clock_tlb_and_probe_share_one_registry(self):
        vm = PagedVirtualMemory(memory_size=4 * MB, tlb_entries=16)
        self._touch(vm)
        counters = vm.registry.counter_values()
        assert counters["fault_dispatch"] == 2     # clock events
        assert counters["fault.write"] == 2        # probe counters
        assert "tlb.miss" in counters              # TLB statistics

    def test_hot_paths_record_labeled_series_alongside_rollups(self):
        vm = PagedVirtualMemory(memory_size=4 * MB, tlb_entries=16)
        self._touch(vm)
        counters = vm.registry.counter_values()
        # Faults decompose by backend; the rollup equals the series sum.
        assert counters["fault.write{backend=pvm}"] == 2
        assert counters["fault.write"] == 2
        # Pipeline stages decompose by backend too.
        assert counters["engine.stage.locate{backend=pvm}"] == \
            counters["engine.stage.locate"]
        # MMU walk statistics decompose by port (the MMU's counter is
        # registered with a port label), TLB-style, in one registry.
        assert counters["mmu.walk_level1{port=paged}"] > 0
        assert counters["mmu.walk_level1"] == \
            counters["mmu.walk_level1{port=paged}"]
        # Segment pull-ins decompose by segment name and access mode.
        pull_series = vm.registry.labeled_counters("cache.pull_in")
        assert sum(pull_series.values()) == counters["cache.pull_in"]
        assert any("segment=w" in key for key in pull_series)

    def test_labeled_rollups_keep_snapshot_schema_valid(self):
        from repro.obs.schema import SNAPSHOT_SCHEMA, validate
        vm = PagedVirtualMemory(memory_size=4 * MB, tlb_entries=16)
        self._touch(vm)
        assert validate(vm.metrics_snapshot(), SNAPSHOT_SCHEMA) == []

    def test_mmu_port_stats_api_unchanged(self):
        # Consumers keep reading port statistics by bare name; the
        # port label exists only in the registry's view of them.
        vm = PagedVirtualMemory(memory_size=4 * MB)
        self._touch(vm)
        assert vm.mmu.stats.get("walk_level1") == \
            vm.registry.counter_value("mmu.walk_level1{port=paged}")

    def test_metrics_snapshot_carries_gauges_and_meta(self):
        vm = PagedVirtualMemory(memory_size=4 * MB, tlb_entries=16)
        self._touch(vm)
        snapshot = vm.metrics_snapshot()
        assert snapshot["meta"]["manager"] == "pvm"
        assert snapshot["meta"]["page_size"] == vm.page_size
        assert snapshot["gauges"]["mem.resident_pages"] == 2.0
        assert 0.0 <= snapshot["gauges"]["tlb.hit_ratio"] <= 1.0

    def test_all_backends_report_through_the_same_api(self):
        from repro import (
            MachVirtualMemory, PagedVirtualMemory, RealTimeVirtualMemory,
        )
        for backend in (PagedVirtualMemory, MachVirtualMemory,
                        RealTimeVirtualMemory):
            vm = backend(memory_size=4 * MB)
            self._touch(vm)
            counters = vm.registry.counter_values()
            assert counters["bzero_page"] == 2, backend.name
            snapshot = vm.metrics_snapshot()
            assert snapshot["meta"]["manager"] == backend.name

    def test_tracing_disabled_by_default_and_event_stream_unchanged(self,
                                                                    vm):
        assert not vm.probe.enabled
        baseline = PagedVirtualMemory(memory_size=4 * MB)
        traced = PagedVirtualMemory(memory_size=4 * MB)
        traced.probe.set_sink(RingBufferSink())
        for machine in (baseline, traced):
            self._touch(machine)
        # Tracing must not perturb the clock: identical virtual time
        # and identical mechanism counts.
        assert traced.clock.now() == baseline.clock.now()
        assert (traced.clock.snapshot() == baseline.clock.snapshot())


# ---------------------------------------------------------------------------
# The VmStat stale-baseline bugfix
# ---------------------------------------------------------------------------

class TestVmStatResampling:
    def test_reset_between_samples_does_not_go_negative(self, vm):
        stat = VmStat(vm)
        cache = vm.cache_create(ZeroFillProvider(), name="v")
        context = vm.context_create("v")
        context.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
        context.switch()
        vm.user_write(context, 0x40000, b"x")
        stat.sample("warm")
        vm.clock.reset()                      # zeroes counters AND time
        vm.user_write(context, 0x40000 + PAGE, b"y")
        sample = stat.sample("after-reset")
        assert sample.deltas["faults"] == 1   # not 1 - pre-reset count
        assert all(delta >= 0 for delta in sample.deltas.values())
        assert sample.time_ms >= 0

    def test_registry_reset_detected_via_generation(self, vm):
        stat = VmStat(vm)
        vm.registry.inc("unrelated")          # counters exist
        vm.registry.reset()
        sample = stat.sample("fresh")
        assert all(delta >= 0 for delta in sample.deltas.values())

    def test_labeled_series_drop_mid_interval_does_not_go_negative(
            self, vm):
        # Dropping one labeled series shrinks its rollup; the
        # generation bump must force VmStat to resample rather than
        # diff against the pre-drop baseline.
        stat = VmStat(vm)
        cache = vm.cache_create(ZeroFillProvider(), name="ld")
        context = vm.context_create("ld")
        context.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
        context.switch()
        vm.user_write(context, 0x40000, b"x")
        stat.sample("warm")
        generation = vm.registry.generation
        vm.registry.drop_counters(["fault.write{backend=pvm}"])
        assert vm.registry.generation == generation + 1
        vm.user_write(context, 0x40000 + PAGE, b"y")
        sample = stat.sample("after-drop")
        assert all(delta >= 0 for delta in sample.deltas.values())

    def test_full_counter_drop_mid_interval_does_not_go_negative(
            self, vm):
        # Dropping the plain name takes every labeled series with it —
        # the larger reset must be detected the same way.
        stat = VmStat(vm)
        cache = vm.cache_create(ZeroFillProvider(), name="fd")
        context = vm.context_create("fd")
        context.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
        context.switch()
        vm.user_write(context, 0x40000, b"x")
        stat.sample("warm")
        vm.registry.drop_counters(["fault.write", "fault_dispatch"])
        assert vm.registry.counter_value("fault.write") == 0
        assert vm.registry.labeled_counters("fault.write") == {}
        vm.user_write(context, 0x40000 + PAGE, b"y")
        sample = stat.sample("after-drop")
        assert all(delta >= 0 for delta in sample.deltas.values())


class TestPausedRegistry:
    """Pausing the registry stops only its own series writes: the
    clock and the hardware own their counts and keep them exact."""

    def _run(self, enabled):
        from repro.kernel.clock import CostEvent
        vm = PagedVirtualMemory(memory_size=4 * MB, tlb_entries=16)
        vm.registry.enabled = enabled
        cache = vm.cache_create(ZeroFillProvider(), name="p")
        context = vm.context_create("p")
        context.region_create(0x40000, 8 * PAGE, protection=Protection.RW,
                              cache=cache, offset=0)
        context.switch()
        for index in range(8):
            vm.user_write(context, 0x40000 + index * PAGE, b"x")
            assert vm.user_read(context, 0x40000 + index * PAGE, 1) == b"x"
        tlb = vm.mmu.tlb
        return (vm.bus.stats.get("faults"),
                vm.clock.count(CostEvent.FAULT_DISPATCH),
                tlb.stats.get("hit"), tlb.stats.get("miss"),
                tlb.hit_rate(), vm.mmu.stats.snapshot())

    def test_clock_and_hardware_count_while_paused(self):
        paused = self._run(enabled=False)
        assert paused == self._run(enabled=True)
        faults, dispatched, hits, misses, hit_rate, _ = paused
        assert faults == dispatched == 8
        assert hits == 8 and misses == 16
        assert hit_rate == pytest.approx(1 / 3)

    def test_fork_workload_counts_while_paused(self):
        from repro.bench.costmodel import chorus_nucleus
        from repro.workloads.fork_workload import shell_pipeline

        def metrics(enabled):
            nucleus = chorus_nucleus()
            nucleus.vm.registry.enabled = enabled
            return shell_pipeline(nucleus, generations=4)

        paused = metrics(False)
        assert paused == metrics(True)
        assert paused.lookup_hops > 0


class TestWallStamps:
    def test_spans_carry_wall_time_when_traced(self, vm):
        sink = RingBufferSink()
        vm.probe.set_sink(sink)
        with vm.probe.span("op"):
            vm.clock.advance(1.0)
        (span,) = sink.by_name("op")
        assert span.wall_start_s is not None
        assert span.wall_end_s is not None
        assert span.wall_ms >= 0.0
        assert span.to_dict()["wall_ms"] == span.wall_ms

    def test_wall_time_never_touches_the_virtual_clock(self, vm):
        sink = RingBufferSink()
        vm.probe.set_sink(sink)
        before = vm.clock.now()
        with vm.probe.span("op"):
            pass
        assert vm.clock.now() == before


# ---------------------------------------------------------------------------
# Deprecation shims
# ---------------------------------------------------------------------------

class TestKeywordOnlyOptions:
    def test_region_create_requires_protection_and_cache(self, vm):
        context = vm.context_create("r")
        with pytest.raises(TypeError):
            context.region_create(0x40000, PAGE)

    def test_positional_options_rejected(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="s")
        dst = vm.cache_create(ZeroFillProvider(), name="t")
        context = vm.context_create("p")
        with pytest.raises(TypeError):
            context.region_create(0x40000, PAGE, Protection.RW, src, 0)
        with pytest.raises(TypeError):
            src.copy(0, dst, 0, PAGE, CopyPolicy.EAGER)
        with pytest.raises(TypeError):
            vm.cache_create(ZeroFillProvider(), None, "named")


# ---------------------------------------------------------------------------
# Structured error details
# ---------------------------------------------------------------------------

class TestErrorDetails:
    def test_segfault_details(self, vm):
        from repro.errors import SegmentationFault
        context = vm.context_create("e")
        context.switch()
        with pytest.raises(SegmentationFault) as info:
            vm.user_read(context, 0xdead000, 1)
        assert info.value.details["address"] == 0xdead000
        assert info.value.details["space"] == context.space
        assert info.value.details["context"] == "e"

    def test_access_violation_details(self, vm):
        from repro.errors import AccessViolation
        cache = vm.cache_create(ZeroFillProvider(), name="ro")
        context = vm.context_create("ro")
        context.region_create(0x40000, PAGE, protection=Protection.READ,
                              cache=cache, offset=0)
        context.switch()
        with pytest.raises(AccessViolation) as info:
            vm.user_write(context, 0x40000, b"x")
        assert info.value.details["address"] == 0x40000
        assert info.value.details["write"] is True

    def test_details_default_empty(self):
        from repro.errors import InvalidOperation
        assert InvalidOperation("plain message").details == {}


# ---------------------------------------------------------------------------
# Region advice hints
# ---------------------------------------------------------------------------

class TestRegionAdvice:
    def test_willneed_prefetches(self, vm):
        cache = vm.cache_create(ZeroFillProvider(), name="wn")
        context = vm.context_create("wn")
        context.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                              cache=cache, offset=0, advice="willneed")
        assert len(cache.pages) == 2          # resident before any fault

    def test_invalid_advice_rejected(self, vm):
        from repro.errors import InvalidOperation
        cache = vm.cache_create(ZeroFillProvider(), name="bad")
        context = vm.context_create("bad")
        for advice in ("psychic", "sequential", "random"):
            with pytest.raises(InvalidOperation):
                context.region_create(0x40000, PAGE,
                                      protection=Protection.RW,
                                      cache=cache, offset=0, advice=advice)

