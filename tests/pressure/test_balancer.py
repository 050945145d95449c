"""The balancer daemon and frame arbiter over a live PVM.

End-to-end behaviour of the pressure-policy stack wired into the
manager: space-attributed charging at insert time, grant enforcement
through targeted reclaim, floor protection under QoS mode, thrash
suspension through the admission gate, and teardown bookkeeping.
"""

import pytest

from repro.engine import AdmissionGate
from repro.cache.provider import ZeroFillProvider
from repro.gmi.types import Protection
from repro.pressure import (
    AdmissionController, BalancerDaemon, FrameArbiter, WorkingSetEstimator,
)
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB
BASE = 0x0100_0000


def build_vm(budget=None, floor=2, ws=False, qos=None, memory_pages=64):
    arbiter = FrameArbiter(
        global_budget=budget, floor_pages=floor,
        ws=WorkingSetEstimator() if ws else None, qos=qos)
    return PagedVirtualMemory(memory_size=memory_pages * PAGE,
                              arbiter=arbiter)


def add_space(vm, name, pages):
    """One context with its own anonymous heap region."""
    heap = vm.cache_create(ZeroFillProvider(), name=f"{name}.heap")
    context = vm.context_create(name)
    context.region_create(BASE, pages * PAGE, protection=Protection.RW,
                          cache=heap, offset=0)
    return context


def touch(vm, context, pages, stamp=1):
    context.switch()
    for index in range(pages):
        vm.user_write(context, BASE + index * PAGE, bytes([stamp]))


class TestWiring:
    def test_vm_exposes_the_engine_arbiter(self):
        vm = build_vm(budget=16)
        assert vm.arbiter is vm.cache_engine.arbiter
        assert vm.arbiter.active

    def test_no_qos_means_no_admission_gate(self):
        assert build_vm(budget=16).admission is None

    def test_qos_wires_an_admission_gate(self):
        vm = build_vm(budget=16, qos=AdmissionController())
        assert isinstance(vm.admission, AdmissionGate)

    def test_default_vm_arbiter_is_inert(self):
        vm = PagedVirtualMemory(memory_size=16 * PAGE)
        assert not vm.arbiter.active


class TestChargeAttribution:
    def test_faulted_pages_are_charged_to_the_faulting_space(self):
        vm = build_vm(budget=32)
        a = add_space(vm, "a", 4)
        b = add_space(vm, "b", 6)
        touch(vm, a, 4)
        touch(vm, b, 6)
        assert vm.arbiter.charged_of(a.space) == 4
        assert vm.arbiter.charged_of(b.space) == 6

    def test_eviction_releases_the_charge(self):
        vm = build_vm(budget=32)
        a = add_space(vm, "a", 8)
        touch(vm, a, 8)
        vm.reclaim_frames(3)
        assert vm.arbiter.charged_of(a.space) == 5

    def test_unattributed_inserts_charge_the_none_bucket(self):
        vm = build_vm(budget=32)
        cache = vm.cache_create(ZeroFillProvider(), name="kernel")
        cache.write(0, b"x")                      # no faulting task
        assert vm.arbiter.charged_of(None) == 1

    def test_context_destroy_drops_the_space(self):
        vm = build_vm(budget=32)
        a = add_space(vm, "a", 4)
        touch(vm, a, 4)
        space = a.space
        vm.context_destroy(a)
        assert space not in vm.arbiter.grants
        assert vm.arbiter.charged_of(space) == 0


class TestBudgetEnforcement:
    def test_global_budget_caps_aggregate_residency(self):
        vm = build_vm(budget=8)
        a = add_space(vm, "a", 8)
        b = add_space(vm, "b", 8)
        touch(vm, a, 8)
        touch(vm, b, 8)
        assert vm.resident_page_count <= 8

    def test_legacy_budget_property_aliases_the_arbiter(self):
        vm = build_vm()
        vm.cache_engine.budget = 4
        assert vm.arbiter.global_budget == 4
        assert vm.arbiter.active


class TestBalancerTick:
    def test_inert_arbiter_makes_tick_a_no_op(self):
        vm = PagedVirtualMemory(memory_size=16 * PAGE)
        assert BalancerDaemon(vm).tick() == {"active": False}

    def test_grants_cover_every_live_space_at_floor_or_above(self):
        vm = build_vm(budget=24, floor=2, ws=True)
        spaces = [add_space(vm, f"s{i}", 10) for i in range(4)]
        for context in spaces:
            touch(vm, context, 10)
        daemon = BalancerDaemon(vm)
        result = daemon.tick()
        grants = result["grants"]
        assert set(grants) == {context.space for context in spaces}
        assert all(grant >= 2 for grant in grants.values())
        assert sum(grants.values()) <= 24

    def test_enforcement_shrinks_over_grant_spaces(self):
        vm = build_vm(budget=16, floor=2, ws=True)
        hog = add_space(vm, "hog", 14)
        small = add_space(vm, "small", 4)
        touch(vm, hog, 14)
        touch(vm, small, 4)
        daemon = BalancerDaemon(vm)
        daemon.tick()
        arbiter = vm.arbiter
        assert vm.resident_page_count <= 16
        assert arbiter.charged_of(hog.space) \
            <= arbiter.grant_of(hog.space) + 1
        # The small space was not collateral damage.
        assert arbiter.charged_of(small.space) >= 2

    def test_targeted_reclaim_spares_other_spaces(self):
        vm = build_vm(budget=32, ws=True)
        a = add_space(vm, "a", 6)
        b = add_space(vm, "b", 6)
        touch(vm, a, 6)
        touch(vm, b, 6)
        freed = vm.cache_engine.reclaim(4, from_spaces={a.space})
        assert freed == 4
        assert vm.arbiter.charged_of(a.space) == 2
        assert vm.arbiter.charged_of(b.space) == 6

    def test_untargeted_reclaim_protects_floors_in_qos_mode(self):
        vm = build_vm(budget=32, floor=4, ws=True)
        a = add_space(vm, "a", 6)
        touch(vm, a, 6)
        # Ask for more than the space can yield above its floor.
        vm.cache_engine.reclaim(6)
        assert vm.arbiter.charged_of(a.space) >= 4


class TestThrashControl:
    def build_thrashing_vm(self):
        qos = AdmissionController(backoff_ms=1.0)
        vm = build_vm(budget=8, floor=2, ws=True, qos=qos,
                      memory_pages=64)
        thrasher = add_space(vm, "thrasher", 24)
        quiet = add_space(vm, "quiet", 4)
        return vm, thrasher, quiet

    def test_worst_refaulter_is_suspended(self):
        vm, thrasher, quiet = self.build_thrashing_vm()
        daemon = BalancerDaemon(vm, full_threshold=0.0,
                                refault_threshold=1)
        touch(vm, quiet, 4)
        # Stream the thrasher over a set far beyond the budget twice:
        # the second pass is refaults of the first's evictions.
        for round_no in range(3):
            touch(vm, thrasher, 24, stamp=round_no + 1)
            result = daemon.tick()
        assert result["suspended"] == thrasher.space
        assert vm.arbiter.qos.suspended(thrasher.space, vm.clock.now())

    def test_suspended_space_pays_its_delay_at_the_next_fault(self):
        vm, thrasher, quiet = self.build_thrashing_vm()
        daemon = BalancerDaemon(vm, full_threshold=0.0,
                                refault_threshold=1)
        for round_no in range(3):
            touch(vm, thrasher, 24, stamp=round_no + 1)
            daemon.tick()
        before = vm.clock.now()
        touch(vm, thrasher, 1, stamp=9)
        counters = vm.metrics_snapshot()["counters"]
        assert counters.get("throttle.delays", 0) >= 1
        assert vm.clock.now() > before

    def test_calm_space_is_resumed_and_backoff_reset(self):
        vm, thrasher, quiet = self.build_thrashing_vm()
        daemon = BalancerDaemon(vm, full_threshold=0.0,
                                refault_threshold=1)
        for round_no in range(3):
            touch(vm, thrasher, 24, stamp=round_no + 1)
            daemon.tick()
        qos = vm.arbiter.qos
        assert qos.backoff_of(thrasher.space) > 0.0
        # Let the storm subside: ticks with no new refaults age the
        # window out, and the balancer resumes the space.
        for _ in range(8):
            vm.clock.advance(30.0)
            daemon.tick()
        assert qos.backoff_of(thrasher.space) == 0.0


class TestPublication:
    def test_snapshot_carries_balancer_and_ws_gauges(self):
        vm = build_vm(budget=16, ws=True)
        a = add_space(vm, "a", 4)
        touch(vm, a, 4)
        BalancerDaemon(vm).tick()
        gauges = vm.metrics_snapshot()["gauges"]
        assert gauges["balancer.budget"] == 16.0
        assert gauges[f"balancer.grant{{space={a.space}}}"] >= 2.0
        assert gauges[f"balancer.charged{{space={a.space}}}"] == 4.0
        assert f"ws.estimate{{space={a.space}}}" in gauges

    def test_inert_arbiter_publishes_nothing(self):
        vm = PagedVirtualMemory(memory_size=16 * PAGE)
        a = add_space(vm, "a", 2)
        touch(vm, a, 2)
        gauges = vm.metrics_snapshot()["gauges"]
        assert not any(name.startswith(("balancer.", "ws.", "throttle."))
                       for name in gauges)


class TestRegistryPause:
    def test_paused_registry_storm_matches_enabled_run(self):
        """Pausing metrics must not change pressure policy: the
        ``tenant_storm`` cell suspends the same spaces, ends on the
        same grants and takes the same virtual time either way."""
        from repro.workloads.cells import (
            _tenant_storm_body, _tenant_storm_setup,
        )
        runs = []
        for enabled in (True, False):
            state = _tenant_storm_setup("pvm")
            vm = state["vm"]
            vm.probe.registry.enabled = enabled
            start = state["clock"].now()
            _tenant_storm_body(state)
            runs.append((vm.arbiter.qos.suspensions,
                         dict(vm.arbiter.grants),
                         state["clock"].now() - start))
        assert runs[0][0] > 0
        assert runs[1] == runs[0]
