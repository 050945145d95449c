"""Model-based property test of the unified eviction engine.

A :class:`hypothesis` state machine drives random interleavings of
writes, reads, pins, unpins, reclaims, policy swaps and budget changes
against a PVM, checking the eviction invariants after every step:

* pinned pages are never evicted;
* dirty pages are written back before their frame is reclaimed (no
  byte is ever lost — checked against a reference model);
* the resident count never exceeds ``budget + pinned`` while a budget
  is set;
* residency index, per-cache page tables and the policy queue agree.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
    run_state_machine_as_test,
)

from repro.cache import ClockPolicy, FifoPolicy, LruPolicy
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB
SEGMENT_PAGES = 8
NUM_CACHES = 3
RAM_FRAMES = 64                       # pressure comes from budgets

cache_ids = st.integers(min_value=0, max_value=NUM_CACHES - 1)
page_indexes = st.integers(min_value=0, max_value=SEGMENT_PAGES - 1)
byte_values = st.integers(min_value=1, max_value=255)
policy_makers = st.sampled_from([ClockPolicy, FifoPolicy, LruPolicy])


class EvictionMachine(RuleBasedStateMachine):
    """Random paging traffic vs the eviction invariants."""

    @initialize()
    def setup(self):
        self.vm = PagedVirtualMemory(memory_size=RAM_FRAMES * PAGE,
                                     page_size=PAGE)
        self.caches = {}
        self.model = {}
        self.pins = {}                # (cache id, page index) -> count
        for index in range(NUM_CACHES):
            self.caches[index] = self.vm.cache_create(
                ZeroFillProvider(), name=f"e{index}")
            self.model[index] = bytearray(SEGMENT_PAGES * PAGE)

    # -- traffic ---------------------------------------------------------------

    @rule(cache=cache_ids, page=page_indexes, value=byte_values)
    def write(self, cache, page, value):
        data = bytes([value]) * 16
        self.caches[cache].write(page * PAGE, data)
        self.model[cache][page * PAGE:page * PAGE + 16] = data

    @rule(cache=cache_ids, page=page_indexes)
    def read(self, cache, page):
        got = self.caches[cache].read(page * PAGE, 32)
        assert got == bytes(self.model[cache][page * PAGE:
                                              page * PAGE + 32])

    @rule(cache=cache_ids, page=page_indexes)
    def pin(self, cache, page):
        self.caches[cache].lock_in_memory(page * PAGE, PAGE)
        key = (cache, page)
        self.pins[key] = self.pins.get(key, 0) + 1

    @rule(cache=cache_ids, page=page_indexes)
    def unpin(self, cache, page):
        key = (cache, page)
        if self.pins.get(key):
            self.caches[cache].unlock(page * PAGE, PAGE)
            self.pins[key] -= 1

    @rule(target_pages=st.integers(min_value=1, max_value=8))
    def reclaim(self, target_pages):
        self.vm.reclaim_frames(target_pages)

    @rule(cache=cache_ids)
    def flush(self, cache):
        self.caches[cache].flush(0, SEGMENT_PAGES * PAGE)

    @rule(make_policy=policy_makers)
    def swap_policy(self, make_policy):
        self.vm.policy = make_policy()

    @rule(budget=st.one_of(st.none(),
                           st.integers(min_value=4, max_value=16)))
    def set_budget(self, budget):
        self.vm.cache_engine.budget = budget
        if budget is not None:
            excess = len(self.vm.residency) - budget
            if excess > 0:
                self.vm.cache_engine.reclaim(excess)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def pinned_pages_stay_resident(self):
        if not hasattr(self, "vm"):
            return
        for (cache, page), count in self.pins.items():
            if count > 0:
                resident = self.caches[cache].resident_page(page * PAGE)
                assert resident is not None, \
                    f"pinned page {page} of cache {cache} was evicted"
                assert resident.pin_count >= count

    @invariant()
    def no_bytes_lost(self):
        # Dirty evictions must have written back first: every byte of
        # the model must be recoverable.  (Checked sparsely — full
        # sweeps make the machine quadratic.)
        if not hasattr(self, "vm"):
            return
        for index, cache in self.caches.items():
            assert cache.read(0, 16) == bytes(self.model[index][:16])

    @invariant()
    def budget_respected(self):
        if not hasattr(self, "vm"):
            return
        budget = self.vm.cache_engine.budget
        if budget is None:
            return
        pinned = sum(1 for table in [c.pages for c in self.caches.values()]
                     for page in table.values() if page.pinned)
        assert len(self.vm.residency) <= budget + pinned + 1, \
            (f"resident {len(self.vm.residency)} exceeds budget {budget} "
             f"+ {pinned} pinned")

    @invariant()
    def views_agree(self):
        if not hasattr(self, "vm"):
            return
        total = sum(len(cache.pages) for cache in self.vm.caches())
        assert len(self.vm.residency) == total
        assert len(self.vm.policy) == total


class TestEvictionModel:
    settings = settings(max_examples=40, stateful_step_count=30,
                        deadline=None)

    def test_invariants_hold(self):
        run_state_machine_as_test(EvictionMachine, settings=self.settings)
