"""Model-based property test of the working-set balancer's fairness.

A :class:`hypothesis` state machine drives random multi-tenant paging
traffic — spaces fault in pages, exit, and balancer ticks interleave
arbitrarily — against the grant invariants the pressure-policy layer
promises:

* ``sum(grants over live spaces) <= global_budget`` after every tick
  (adoption skims incumbents, the proportional split rounds down);
* no live space's grant ever sits below the configured floor;
* aggregate residency never exceeds the budget (pinning is not
  exercised here, so the cap is exact after every insert);
* the arbiter's per-space charge ledger always agrees with the
  residency index's attributed pages.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
    run_state_machine_as_test,
)

from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pressure import (
    AdmissionController, BalancerDaemon, FrameArbiter, WorkingSetEstimator,
)
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB
BASE = 0x0100_0000
MAX_SPACES = 5
SPACE_PAGES = 12
FLOOR = 2
BUDGET = 24                     # >= MAX_SPACES * FLOOR: floors coverable
RAM_FRAMES = 64                 # pressure comes from the budget

slot_ids = st.integers(min_value=0, max_value=MAX_SPACES - 1)
page_indexes = st.integers(min_value=0, max_value=SPACE_PAGES - 1)


class BalancerMachine(RuleBasedStateMachine):
    """Random tenant churn vs the grant fairness invariants."""

    @initialize()
    def setup(self):
        self.vm = PagedVirtualMemory(
            memory_size=RAM_FRAMES * PAGE, page_size=PAGE,
            arbiter=FrameArbiter(global_budget=BUDGET, floor_pages=FLOOR,
                                 ws=WorkingSetEstimator(),
                                 qos=AdmissionController()))
        self.daemon = BalancerDaemon(self.vm, full_threshold=0.0,
                                     refault_threshold=4)
        self.contexts = {}
        self.serial = 0

    def _spawn(self, slot):
        self.serial += 1
        heap = self.vm.cache_create(ZeroFillProvider(),
                                    name=f"t{self.serial}.heap")
        context = self.vm.context_create(f"t{self.serial}")
        context.region_create(BASE, SPACE_PAGES * PAGE,
                              protection=Protection.RW, cache=heap,
                              offset=0)
        self.contexts[slot] = (context, heap)

    # -- traffic ---------------------------------------------------------------

    @rule(slot=slot_ids, page=page_indexes)
    def fault(self, slot, page):
        if slot not in self.contexts:
            self._spawn(slot)
        context, _ = self.contexts[slot]
        context.switch()
        self.vm.user_write(context, BASE + page * PAGE, b"\x01")

    @rule(slot=slot_ids, first=page_indexes,
          count=st.integers(min_value=1, max_value=SPACE_PAGES))
    def fault_run(self, slot, first, count):
        for index in range(count):
            self.fault(slot, (first + index) % SPACE_PAGES)

    @rule(slot=slot_ids)
    def exit_space(self, slot):
        entry = self.contexts.pop(slot, None)
        if entry is not None:
            context, heap = entry
            self.vm.context_destroy(context)
            self.vm.cache_destroy(heap)

    @rule()
    def tick(self):
        self.daemon.tick()

    @rule(ms=st.floats(min_value=1.0, max_value=50.0))
    def idle(self, ms):
        self.vm.clock.advance(ms)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def grants_fit_the_budget(self):
        if not hasattr(self, "vm"):
            return
        arbiter = self.vm.arbiter
        live = {context.space for context, _ in self.contexts.values()}
        live_total = sum(grant for space, grant in arbiter.grants.items()
                         if space in live)
        assert live_total <= BUDGET, \
            f"live grants {live_total} exceed budget {BUDGET}"

    @invariant()
    def no_live_space_below_the_floor(self):
        if not hasattr(self, "vm"):
            return
        arbiter = self.vm.arbiter
        for context, _ in self.contexts.values():
            assert arbiter.grant_of(context.space) >= FLOOR, \
                f"space {context.space} granted below the floor"

    @invariant()
    def residency_respects_the_budget(self):
        if not hasattr(self, "vm"):
            return
        assert len(self.vm.residency) <= BUDGET

    @invariant()
    def charges_agree_with_residency(self):
        if not hasattr(self, "vm"):
            return
        arbiter = self.vm.arbiter
        by_space = {}
        for table in self.vm.residency._pages.values():
            for page in table.values():
                key = page.charged_space
                by_space[key] = by_space.get(key, 0) + 1
        assert by_space == dict(arbiter.charged)


def test_balancer_fairness_machine():
    run_state_machine_as_test(
        BalancerMachine,
        settings=settings(max_examples=40, stateful_step_count=30,
                          deadline=None))
