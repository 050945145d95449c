"""The pressure observatory: per-space ledgers, PSI stall windows
and the ``repro top`` view.

Three contracts under test:

* **arithmetic** — :class:`StallWindow` merges nested/overlapping
  stalls, windows prune, averages clamp; the per-space residency
  gauge counts exactly the resident pages under each region's window;
* **attribution** — faults, pulls, pushes and evictions land on the
  right :class:`SpaceAccount`; a destroyed space's series leave the
  registry like any PR-3 drop (rollups adjusted, generation bumped,
  a recycled id starts zeroed); a paused registry writes no series
  but the ledgers the balancer reads keep counting;
* **determinism** — the board reads the virtual clock but never
  charges it, so running with accounting on cannot move virtual time.
"""

import pytest

from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.obs import (
    MetricsRegistry, PressureBoard, SpaceAccount, StallWindow,
)
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


# ---------------------------------------------------------------------------
# StallWindow arithmetic
# ---------------------------------------------------------------------------

class TestStallWindow:
    def test_single_interval(self):
        window = StallWindow()
        window.enter(10.0)
        window.exit(14.0)
        assert window.total_ms == pytest.approx(4.0)
        assert window.count == 1
        assert window.stalled_ms(10.0, 20.0) == pytest.approx(4.0)

    def test_nested_stalls_merge(self):
        # A backpressure stall inside a pull stall is one interval.
        window = StallWindow()
        window.enter(0.0)
        window.enter(1.0)
        window.exit(2.0)
        window.exit(5.0)
        assert window.count == 1
        assert window.total_ms == pytest.approx(5.0)

    def test_touching_intervals_coalesce(self):
        window = StallWindow()
        window.enter(0.0)
        window.exit(2.0)
        window.enter(2.0)
        window.exit(4.0)
        assert window._intervals == type(window._intervals)([(0.0, 4.0)])
        assert window.count == 2

    def test_unbalanced_exit_is_a_noop(self):
        window = StallWindow()
        window.exit(5.0)
        assert window.total_ms == 0.0 and window.count == 0

    def test_open_interval_counts_toward_window(self):
        window = StallWindow()
        window.enter(8.0)
        # Still stalled at query time: the open interval contributes.
        assert window.stalled_ms(10.0, 12.0) == pytest.approx(4.0)
        assert window.avg(10.0, 12.0) == pytest.approx(0.4)

    def test_avg_is_windowed_and_clamped(self):
        window = StallWindow()
        window.enter(0.0)
        window.exit(100.0)
        assert window.avg(10.0, 100.0) == 1.0
        # The whole stall fell out of a short trailing window.
        assert window.avg(10.0, 200.0) == 0.0
        assert window.avg(300.0, 200.0) == pytest.approx(100.0 / 300.0)

    def test_history_prunes_past_horizon(self):
        window = StallWindow()
        for start in range(0, 1000, 10):
            window.enter(float(start))
            window.exit(float(start) + 1.0)
        assert window.count == 100
        # Only ~300 ms of history is retained.
        assert len(window._intervals) <= 31

    def test_note_counts_without_time(self):
        window = StallWindow()
        window.note()
        assert window.count == 1
        assert window.total_ms == 0.0


class TestExtentOverlap:
    def test_exact_overlap_arithmetic(self):
        """Pages 0, 1 and 4 of one cache are resident; each space maps
        a window of it (or of an empty cache) and its residency gauge
        counts exactly the resident pages under its regions."""
        vm = PagedVirtualMemory(memory_size=4 * MB)
        cache = vm.cache_create(ZeroFillProvider(), name="shared")
        for page in (0, 1, 4):
            cache.write(page * PAGE, b"\x01")
        empty = vm.cache_create(ZeroFillProvider(), name="empty")
        layouts = [
            ([(cache, 0, 8)], 3),
            ([(cache, 1, 1)], 1),
            ([(cache, 5, 1)], 0),
            ([(empty, 0, 8)], 0),
            ([(cache, 0, 2), (cache, 4, 2)], 3),   # two regions, one cache
        ]
        spaces = []
        for index, (regions, _) in enumerate(layouts):
            context = vm.context_create(f"window{index}")
            for slot, (target, first, count) in enumerate(regions):
                context.region_create(
                    0x40000 + slot * 0x100000, count * PAGE,
                    protection=Protection.RW, cache=target,
                    offset=first * PAGE)
            spaces.append(context.space)
        gauges = vm.metrics_snapshot()["gauges"]
        for space, (_, expected) in zip(spaces, layouts):
            assert gauges[f"space.resident_pages{{space={space}}}"] \
                == expected


# ---------------------------------------------------------------------------
# PressureBoard attribution
# ---------------------------------------------------------------------------

def make_board(page_size: int = PAGE):
    clock = {"now": 0.0}
    registry = MetricsRegistry()
    board = PressureBoard(registry, lambda: clock["now"],
                          page_size=page_size)
    return board, registry, clock


class TestBoardLedgers:
    def test_fault_attribution_and_rollup(self):
        board, registry, _ = make_board()
        board.fault(7, write=False)
        board.fault(7, write=True)
        board.fault(9, write=True)
        assert registry.counter_value("space.fault.read{space=7}") == 1
        assert registry.counter_value("space.fault.write{space=7}") == 1
        assert registry.counter_value("space.fault.write{space=9}") == 1
        assert registry.counter_value("space.fault.write") == 2
        assert board.account(7).faults_read == 1

    def test_pull_push_charge_current_task_in_bytes(self):
        board, registry, _ = make_board(page_size=PAGE)
        board.begin_task(3)
        board.pulled(2)
        board.pushed(1)
        board.end_task()
        # Unattributed I/O (no task) reaches no ledger.
        board.pulled(5)
        assert board.account(3).pull_bytes == 2 * PAGE
        assert board.account(3).push_bytes == PAGE
        assert registry.counter_value("space.pull_bytes{space=3}") \
            == 2 * PAGE
        assert registry.counter_value("space.pull_bytes") == 2 * PAGE

    def test_eviction_caused_vs_suffered(self):
        board, registry, _ = make_board()
        board.begin_task(1)
        board.eviction({2, 3})
        board.end_task()
        assert board.account(1).evictions_caused == 1
        assert board.account(2).evictions_suffered == 1
        assert board.account(3).evictions_suffered == 1
        assert registry.counter_value("space.evict.suffered") == 2

    def test_stall_scope_charges_some_full_and_space(self):
        board, _, clock = make_board()
        board.begin_task(4)
        with board.stall("pull"):
            clock["now"] = 3.0
        board.end_task()
        assert board.some.total_ms == pytest.approx(3.0)
        # One task, one stall: everything active was stalled.
        assert board.full.total_ms == pytest.approx(3.0)
        assert board.account(4).stall.total_ms == pytest.approx(3.0)
        assert board.stall_counts == {"pull": 1}

    def test_full_requires_every_task_stalled(self):
        board, _, clock = make_board()
        board.begin_task(1)
        board.begin_task(2)
        with board.stall("pull"):
            clock["now"] = 2.0
        assert board.some.total_ms == pytest.approx(2.0)
        # Two active tasks, one stalled: "some", never "full".
        assert board.full.total_ms == 0.0

    def test_publish_writes_psi_gauges(self):
        board, registry, clock = make_board()
        board.begin_task(5)
        with board.stall("pull"):
            clock["now"] = 5.0
        board.end_task()
        board.note_stall("throttle")
        board.publish()
        gauges = registry.snapshot()["gauges"]
        assert gauges["psi.memory.some.avg10"] == pytest.approx(0.5)
        assert gauges["psi.memory.some.total_ms"] == pytest.approx(5.0)
        assert gauges["psi.stall.count{kind=pull}"] == 1.0
        assert gauges["psi.stall.count{kind=throttle}"] == 1.0
        assert gauges["space.stall_ms{space=5}"] == pytest.approx(5.0)
        assert gauges["psi.memory.some.avg10{space=5}"] \
            == pytest.approx(0.5)

    def test_paused_registry_keeps_ledgers_writes_no_series(self):
        # The balancer reads the ledgers and stall windows as policy
        # inputs, so they must count whether or not metrics are paused.
        board, registry, clock = make_board()
        registry.enabled = False
        board.begin_task(1)
        board.fault(1, write=True)
        board.pulled(4)
        with board.stall("pull"):
            clock["now"] = 9.0
        board.note_stall("throttle")
        board.eviction({2})
        board.end_task()
        board.publish()
        acct = board.accounts[1]
        assert acct.faults_write == 1
        assert acct.pull_bytes == 4 * PAGE
        assert acct.evictions_caused == 1
        assert acct.stall.total_ms == 9.0
        assert board.accounts[2].evictions_suffered == 1
        assert board._tasks == []
        assert board.some.total_ms == board.full.total_ms == 9.0
        assert board.stall_counts == {"pull": 1, "throttle": 1}
        registry.enabled = True
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}

    def test_drop_space_zeroes_a_recycled_id(self):
        board, registry, _ = make_board()
        board.fault(6, write=True)
        generation = registry.generation
        board.drop_space(6)
        assert registry.generation == generation + 1
        assert 6 not in board.accounts
        recycled = board.account(6)
        assert recycled.faults_write == 0
        assert registry.counter_value("space.fault.write{space=6}") == 0


# ---------------------------------------------------------------------------
# Per-space accounting on a live manager
# ---------------------------------------------------------------------------

@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=4 * MB)


def _touch_pages(vm, context, pages):
    for index in range(pages):
        vm.user_write(context, 0x40000 + index * PAGE, bytes([index + 1]))


def _make_space(vm, name, pages=4):
    cache = vm.cache_create(ZeroFillProvider(), name=f"{name}.heap")
    context = vm.context_create(name)
    context.region_create(0x40000, pages * PAGE,
                          protection=Protection.RW, cache=cache, offset=0)
    return context


class TestLiveAccounting:
    def test_faults_land_on_the_faulting_space(self, vm):
        alpha = _make_space(vm, "alpha")
        beta = _make_space(vm, "beta")
        alpha.switch()
        _touch_pages(vm, alpha, 4)
        beta.switch()
        _touch_pages(vm, beta, 2)
        counters = vm.metrics_snapshot()["counters"]
        assert counters[f"space.fault.write{{space={alpha.space}}}"] == 4
        assert counters[f"space.fault.write{{space={beta.space}}}"] == 2
        assert counters["space.fault.write"] == 6

    def test_residency_gauges_published_per_space(self, vm):
        alpha = _make_space(vm, "alpha")
        alpha.switch()
        _touch_pages(vm, alpha, 3)
        gauges = vm.metrics_snapshot()["gauges"]
        assert gauges[f"space.resident_pages{{space={alpha.space}}}"] == 3
        assert gauges[f"space.mapped_pages{{space={alpha.space}}}"] == 3

    def test_destroy_drops_series_and_adjusts_rollups(self, vm):
        alpha = _make_space(vm, "alpha")
        beta = _make_space(vm, "beta")
        alpha.switch()
        _touch_pages(vm, alpha, 4)
        beta.switch()
        _touch_pages(vm, beta, 2)
        generation = vm.probe.registry.generation
        vm.context_destroy(alpha)
        snapshot = vm.metrics_snapshot()
        counters = snapshot["counters"]
        # The labeled series is gone, the rollup shrank by its share,
        # and the generation bump tells samplers their baselines died.
        assert f"space.fault.write{{space={alpha.space}}}" not in counters
        assert counters["space.fault.write"] == 2
        assert snapshot["meta"]["generation"] > generation
        assert f"space.resident_pages{{space={alpha.space}}}" \
            not in snapshot["gauges"]

    def test_recreated_space_starts_from_zero(self, vm):
        alpha = _make_space(vm, "alpha")
        alpha.switch()
        _touch_pages(vm, alpha, 4)
        vm.context_destroy(alpha)
        again = _make_space(vm, "again")
        again.switch()
        _touch_pages(vm, again, 1)
        counters = vm.metrics_snapshot()["counters"]
        assert counters[f"space.fault.write{{space={again.space}}}"] == 1

    def test_board_never_charges_virtual_time(self, vm):
        # Same workload, accounting on vs registry paused: identical
        # virtual cost (the +0.000 vdrift gate in miniature).
        alpha = _make_space(vm, "alpha")
        alpha.switch()
        _touch_pages(vm, alpha, 4)
        cost_on = vm.clock.now()
        other = PagedVirtualMemory(memory_size=4 * MB)
        other.probe.registry.enabled = False
        beta = _make_space(other, "beta")
        beta.switch()
        _touch_pages(other, beta, 4)
        assert other.clock.now() == cost_on

    def test_snapshot_validates_against_schema(self, vm):
        from repro.obs.schema import SNAPSHOT_SCHEMA, validate
        alpha = _make_space(vm, "alpha")
        alpha.switch()
        _touch_pages(vm, alpha, 4)
        assert validate(vm.metrics_snapshot(), SNAPSHOT_SCHEMA) == []


# ---------------------------------------------------------------------------
# Paused-registry allocation audit (the PR-7 call sites)
# ---------------------------------------------------------------------------

class TestInflightSeriesCache:
    def test_paused_registry_formats_no_series(self):
        vm = PagedVirtualMemory(memory_size=4 * MB)
        table = vm.inflight
        vm.probe.registry.enabled = False
        cache = vm.cache_create(ZeroFillProvider(), name="audit")
        entry = table.begin(cache, 0, PAGE)
        table.join(entry)
        # The hoisted enabled-check means no label was ever formatted.
        assert table._series == {}

    def test_enabled_registry_counts_and_release_evicts(self):
        vm = PagedVirtualMemory(memory_size=4 * MB)
        table = vm.inflight
        cache = vm.cache_create(ZeroFillProvider(), name="audit")
        entry = table.begin(cache, 0, PAGE)
        table.join(entry)
        registry = vm.probe.registry
        assert registry.counter_value(
            "engine.inflight.begin{segment=audit}") == 1
        assert registry.counter_value(
            "engine.inflight.coalesced{segment=audit}") == 1
        assert cache.cache_id in table._series
        table.release(cache.cache_id)
        assert cache.cache_id not in table._series


# ---------------------------------------------------------------------------
# The top view
# ---------------------------------------------------------------------------

class TestTopView:
    def test_mix_frame_has_nonzero_stall(self, capsys):
        from repro.tools.cli import main

        assert main(["top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "psi memory" in out
        assert "make" in out and "editor" in out and "pager" in out
        # The acceptance gate: some stall fraction is really nonzero.
        header = [line for line in out.splitlines()
                  if line.startswith("psi memory  some")][0]
        assert "avg10=  0.0%" not in header

    def test_watch_mode_emits_frames(self, capsys):
        from repro.tools.cli import main

        assert main(["top", "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("-- frame") == 2

    def test_mix_is_deterministic(self):
        from repro.tools.top import build_mix, mix_round

        totals = []
        for _ in range(2):
            state = build_mix()
            for _round in range(2):
                mix_round(state)
            totals.append((state["clock"].now(),
                           state["vm"].pressure.some.total_ms))
        assert totals[0] == totals[1]
