"""Replacement policies: unit behaviour and PVM integration."""

import pytest

from repro.cache.eviction import (
    EVICTION_POLICIES, FifoPolicy, LruPolicy, SecondChancePolicy,
)
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB

PAGE = 8 * KB

#: The three policies once each, by name (EVICTION_POLICIES also holds
#: the "clock" alias of second-chance, which would run one sweep twice).
POLICIES = {policy.name: policy
            for policy in (FifoPolicy, SecondChancePolicy, LruPolicy)}


class FakePage:
    def __init__(self, tag):
        self.tag = tag
        self.pinned = False
        self.referenced = True

    def __repr__(self):
        return f"FakePage({self.tag})"


def first_victims(policy, count):
    result = []
    for page in policy.victims():
        result.append(page)
        policy.unregister(page)          # simulate eviction
        if len(result) == count:
            break
    return result


class TestFifo:
    def test_arrival_order(self):
        policy = FifoPolicy()
        pages = [FakePage(i) for i in range(4)]
        for page in pages:
            policy.register(page)
        assert first_victims(policy, 2) == pages[:2]

    def test_references_ignored(self):
        policy = FifoPolicy()
        pages = [FakePage(i) for i in range(3)]
        for page in pages:
            policy.register(page)
        pages[0].referenced = True
        assert first_victims(policy, 1) == [pages[0]]

    def test_pinned_skipped(self):
        policy = FifoPolicy()
        pages = [FakePage(i) for i in range(3)]
        for page in pages:
            policy.register(page)
        pages[0].pinned = True
        assert first_victims(policy, 1) == [pages[1]]


class TestSecondChance:
    def test_referenced_pages_get_a_pass(self):
        policy = SecondChancePolicy()
        pages = [FakePage(i) for i in range(3)]
        for page in pages:
            policy.register(page)
        pages[0].referenced = True
        pages[1].referenced = False
        pages[2].referenced = False
        assert first_victims(policy, 1) == [pages[1]]
        assert pages[0].referenced is False      # bit consumed

    def test_all_referenced_still_terminates(self):
        policy = SecondChancePolicy()
        pages = [FakePage(i) for i in range(3)]
        for page in pages:
            policy.register(page)
        victims = first_victims(policy, 3)
        assert len(victims) == 3                 # second pass evicts


class TestLru:
    def test_recently_referenced_survive(self):
        policy = LruPolicy()
        pages = [FakePage(i) for i in range(4)]
        for page in pages:
            page.referenced = False
            policy.register(page)
        pages[0].referenced = True               # "recently used"
        victims = first_victims(policy, 3)
        assert pages[0] not in victims

    def test_registry_is_lifo_of_staleness(self):
        policy = LruPolicy()
        pages = [FakePage(i) for i in range(3)]
        for page in pages:
            page.referenced = False
            policy.register(page)
        assert first_victims(policy, 3) == pages


class TestPolicyRegistry:
    def test_all_policies_listed(self):
        assert set(POLICIES) == {"fifo", "second-chance", "lru"}
        assert {policy.name for policy in EVICTION_POLICIES.values()} \
            == set(POLICIES)


class TestPvmIntegration:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_data_integrity_under_any_policy(self, policy_name):
        vm = PagedVirtualMemory(memory_size=16 * PAGE,
                                replacement_policy=POLICIES[policy_name]())
        cache = vm.cache_create(ZeroFillProvider())
        for index in range(32):                  # 2x RAM
            cache.write(index * PAGE, bytes([index + 1]) * 8)
        for index in range(32):
            assert cache.read(index * PAGE, 8) == bytes([index + 1]) * 8

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_pins_respected_under_any_policy(self, policy_name):
        vm = PagedVirtualMemory(memory_size=8 * PAGE,
                                replacement_policy=POLICIES[policy_name]())
        ctx = vm.context_create()
        cache = vm.cache_create(ZeroFillProvider())
        region = ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        frames = {page.frame for page in cache.pages.values()}
        other = vm.cache_create(ZeroFillProvider())
        for index in range(12):
            other.write(index * PAGE, b"pressure")
        assert {page.frame for page in cache.pages.values()} == frames

    def test_lru_beats_fifo_on_looping_hot_set(self):
        """A hot set re-referenced inside a colder scan: LRU keeps it."""

        def faults_with(policy):
            vm = PagedVirtualMemory(memory_size=12 * PAGE,
                                    replacement_policy=policy)
            cache = vm.cache_create(ZeroFillProvider())
            hot = list(range(4))
            cold = list(range(4, 24))
            for index in hot + cold:
                cache.write(index * PAGE, bytes([index + 1]))
            before = cache.statistics.pull_ins
            for round_index in range(6):
                for index in hot:
                    cache.read(index * PAGE, 1)
                cache.read(cold[round_index] * PAGE, 1)
            return cache.statistics.pull_ins - before

        assert faults_with(LruPolicy()) <= faults_with(FifoPolicy())
