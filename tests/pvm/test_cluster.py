"""Fault clustering: read-ahead prefaulting with golden accounting.

The contract under test: enabling a cluster policy changes *wall*
behaviour only — provider upcalls drop, but the virtual clock, every
mechanism counter and all user-visible bytes are bit-identical to the
one-page-per-fault run.  Prefaulted frames are invisible (not in the
global map, not resident) until the fault they anticipate adopts them.
"""

import copy

import pytest

from repro.cache.provider import ZeroFillProvider
from repro.engine.cluster import (
    AdaptiveWindow, FixedWindow, NoCluster, make_policy, split_uniform,
)
from repro.gmi.types import Protection
from repro.kernel.clock import CostEvent
from repro.pvm import PagedVirtualMemory
from repro.units import MB

BASE = 0x40000


class CountingProvider(ZeroFillProvider):
    """Zero-fill provider that records its pullIn upcalls."""

    def __init__(self):
        super().__init__()
        self.pulls = []

    def pull_in(self, cache, offset, size, access_mode):
        self.pulls.append((offset, size))
        super().pull_in(cache, offset, size, access_mode)


class LumpyProvider(CountingProvider):
    """Batched provider whose ranged upcall is *not* per-page-uniform:
    it charges one extra event per call, however many pages the call
    covers.  Clustering must detect this and abandon the attempt."""

    def pull_in(self, cache, offset, size, access_mode):
        cache.pvm.clock.charge(CostEvent.BCOPY_BYTE, 1)
        super().pull_in(cache, offset, size, access_mode)


def build(policy, provider=None, pages=16, advice=None, memory=4 * MB):
    vm = PagedVirtualMemory(memory_size=memory, cluster_policy=policy)
    provider = provider if provider is not None else CountingProvider()
    cache = vm.cache_create(provider, name="clu")
    context = vm.context_create("clu")
    context.region_create(BASE, pages * vm.page_size,
                          protection=Protection.RW, cache=cache,
                          offset=0, advice=advice)
    context.switch()
    return vm, context, cache, provider


def touch_sequential(vm, context, pages, write=True):
    page = vm.page_size
    for index in range(pages):
        if write:
            vm.user_write(context, BASE + index * page, bytes([index + 1]))
        else:
            vm.user_read(context, BASE + index * page, 1)


def counters_sans_cluster(vm):
    # Drop the mechanism-shape counters clustering is allowed to move
    # (window sizes, pull spans); the accounting ones
    # must stay bit-identical.
    counters = dict(vm.metrics_snapshot()["counters"])
    return {key: value for key, value in counters.items()
            if not key.startswith(("engine.cluster.", "engine.inflight."))}


# ---------------------------------------------------------------------------
# The headline property: fewer upcalls, identical accounting.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["fixed:4", "adaptive"])
@pytest.mark.parametrize("write", [True, False])
def test_clustering_saves_upcalls_with_identical_accounting(policy, write):
    base_vm, base_ctx, _, base_provider = build(None)
    clu_vm, clu_ctx, _, clu_provider = build(policy)

    touch_sequential(base_vm, base_ctx, 16, write=write)
    touch_sequential(clu_vm, clu_ctx, 16, write=write)

    assert len(base_provider.pulls) == 16
    assert len(clu_provider.pulls) < 16
    saved = clu_vm.metrics_snapshot()["counters"][
        "engine.cluster.faults_saved"]
    # Every fault either pulled its own single page or adopted a
    # parked one (ranged prefault pulls cover multiple pages).
    own_pulls = sum(1 for _, size in clu_provider.pulls
                    if size == clu_vm.page_size)
    assert saved == 16 - own_pulls

    assert clu_vm.clock.now() == base_vm.clock.now()
    assert counters_sans_cluster(clu_vm) == counters_sans_cluster(base_vm)

    page = clu_vm.page_size
    for index in range(16):
        assert clu_vm.user_read(clu_ctx, BASE + index * page, 1) == \
            base_vm.user_read(base_ctx, BASE + index * page, 1)


def test_random_advice_disables_read_ahead():
    vm, ctx, _, provider = build("adaptive", advice="random")
    touch_sequential(vm, ctx, 8)
    assert len(provider.pulls) == 8
    counters = vm.metrics_snapshot()["counters"]
    assert "engine.cluster.faults_saved" not in counters


# ---------------------------------------------------------------------------
# Window edge cases.
# ---------------------------------------------------------------------------

def test_window_clamps_at_region_boundary():
    # A 4-page region with a 16-page window: the prefault run must stop
    # at the region end, and every page must still resolve correctly.
    vm, ctx, cache, provider = build("fixed:16", pages=4)
    touch_sequential(vm, ctx, 4)
    # Fault 0 pulls its own page, then the window opens but is clamped
    # to the 3 remaining pages (one ranged pull); faults 1-3 adopt.
    assert provider.pulls == [(0, vm.page_size),
                              (vm.page_size, 3 * vm.page_size)]
    assert len(vm._cluster_index) == 0
    # Nothing speculative may outlive the region span.
    assert vm.metrics_snapshot()["counters"].get(
        "engine.cluster.wasted_prefault", 0) == 0


def test_window_stops_at_resident_page():
    vm, ctx, cache, provider = build("fixed:8", pages=16)
    page = vm.page_size
    # Make page 3 resident through the cache interface first.
    cache.write(3 * page, b"\xAA")
    provider.pulls.clear()
    vm.user_write(ctx, BASE, b"\x01")          # fault page 0, window opens
    # The leading run after page 0 is pages 1-2 only — 3 is resident.
    assert provider.pulls == [(0, page), (page, 2 * page)]
    vm.user_write(ctx, BASE + page, b"\x02")   # adopts, no new pull
    assert provider.pulls == [(0, page), (page, 2 * page)]
    assert vm.user_read(ctx, BASE + 3 * page, 1) == b"\xAA"


def test_prefaulted_pages_are_invisible_until_adopted():
    vm, ctx, cache, provider = build("fixed:8", pages=16)
    page = vm.page_size
    vm.user_write(ctx, BASE, b"\x01")
    vm.user_write(ctx, BASE + page, b"\x02")   # window parks pages 2..9
    parked = len(vm._cluster_index)
    assert parked > 0
    for offset in range(2 * page, (2 + parked) * page, page):
        assert vm.global_map.lookup(cache, offset) is None
        assert offset not in cache.pages
        assert offset not in cache.owned
    # Residency (and so eviction) cannot see them either.
    assert vm.resident_page_count == 2


def test_cow_fault_inside_read_ahead_window():
    # Park prefaults, deferred-copy the region, then write inside the
    # window on both source and copy: history machinery must behave as
    # if the prefaults never existed.
    from repro.gmi.interface import CopyPolicy

    def run(policy):
        vm, ctx, cache, provider = build(policy, pages=16)
        page = vm.page_size
        vm.user_write(ctx, BASE, b"\x01")
        vm.user_write(ctx, BASE + page, b"\x02")   # parks a window
        copy_cache = vm.cache_create(ZeroFillProvider(), name="copy")
        cache.copy(0, copy_cache, 0, 16 * page, policy=CopyPolicy.HISTORY)
        vm.user_write(ctx, BASE + 2 * page, b"\x03")   # write in window
        vm.user_write(ctx, BASE + 3 * page, b"\x04")
        values = [copy_cache.read(index * page, 1) for index in range(6)]
        values.append(cache.read(2 * page, 1))
        return vm, values

    base_vm, base_values = run(None)
    clu_vm, clu_values = run("fixed:8")
    assert clu_values == base_values
    assert clu_vm.clock.now() == base_vm.clock.now()
    assert counters_sans_cluster(clu_vm) == counters_sans_cluster(base_vm)


def test_wasted_prefault_freed_on_cache_release():
    vm, ctx, cache, provider = build("fixed:8", pages=16)
    page = vm.page_size
    free_before = vm.memory.free_frames
    vm.user_write(ctx, BASE, b"\x01")
    vm.user_write(ctx, BASE + page, b"\x02")
    parked = len(vm._cluster_index)
    assert parked > 0
    ctx.destroy()
    cache.destroy()
    assert len(vm._cluster_index) == 0
    counters = vm.metrics_snapshot()["counters"]
    assert counters["engine.cluster.wasted_prefault"] == parked
    # Every frame came back: the two adopted pages were freed by the
    # cache teardown, the parked ones by the cancellation path.
    assert vm.memory.free_frames == free_before


def test_non_uniform_provider_aborts_and_is_memoized():
    base_vm, base_ctx, _, base_provider = build(None, LumpyProvider())
    clu_vm, clu_ctx, clu_cache, clu_provider = build("fixed:4",
                                                     LumpyProvider())
    touch_sequential(base_vm, base_ctx, 8)
    touch_sequential(clu_vm, clu_ctx, 8)
    # The first window attempt fails the even-split check; the cache is
    # remembered as non-uniform, so exactly one speculative ranged call
    # happened and every fault then pulled one page, like the baseline.
    assert clu_cache._cluster_nonuniform is True
    assert len(clu_vm._cluster_index) == 0
    assert len([p for p in clu_provider.pulls
                if p[1] > clu_vm.page_size]) == 1
    assert clu_vm.clock.now() == base_vm.clock.now()
    assert counters_sans_cluster(clu_vm) == counters_sans_cluster(base_vm)


def test_out_of_frames_never_reaches_the_fault_path():
    # 24 frames of RAM, 16-page region: the headroom guard shrinks or
    # skips speculation near exhaustion instead of raising or evicting.
    vm, ctx, cache, provider = build("fixed:8", pages=16,
                                     memory=24 * 8 * 1024)
    touch_sequential(vm, ctx, 16)
    page = vm.page_size
    for index in range(16):
        assert vm.user_read(ctx, BASE + index * page, 1) == \
            bytes([index + 1])


# ---------------------------------------------------------------------------
# Policy unit behaviour.
# ---------------------------------------------------------------------------

class _Region:
    def __init__(self, offset=0, size=1 << 20, advice=None):
        self.offset = offset
        self.size = size
        self.advice = advice


def test_adaptive_window_ramps_and_resets():
    policy = AdaptiveWindow(start=2, max_pages=16)
    region = _Region()
    page = 8192
    assert policy.window(region, 0, page) == 0          # no streak yet
    assert policy.window(region, page, page) == 2       # streak opens
    assert policy.window(region, 2 * page, page) == 4   # doubles
    assert policy.window(region, 3 * page, page) == 8
    assert policy.window(region, 4 * page, page) == 16  # capped
    assert policy.window(region, 5 * page, page) == 16
    assert policy.window(region, 9 * page, page) == 0   # jump resets
    assert policy.window(region, 10 * page, page) == 2  # re-opens


def test_adaptive_window_honours_advice():
    page = 8192
    policy = AdaptiveWindow(start=4, max_pages=16)
    sequential = _Region(advice="sequential")
    assert policy.window(sequential, 0, page) == 4      # opens first fault
    random_region = _Region(advice="random")
    assert policy.window(random_region, 0, page) == 0
    assert policy.window(random_region, page, page) == 0


def test_make_policy_specs():
    assert isinstance(make_policy(None), NoCluster)
    assert isinstance(make_policy("off"), NoCluster)
    assert isinstance(make_policy("adaptive"), AdaptiveWindow)
    fixed = make_policy("fixed:12")
    assert isinstance(fixed, FixedWindow) and fixed.pages == 12
    ready = FixedWindow(3)
    assert make_policy(ready) is ready
    with pytest.raises(ValueError):
        make_policy("bogus")
    with pytest.raises(ValueError):
        make_policy("fixed:0")


def test_split_uniform():
    a, b = CostEvent.PULL_IN, CostEvent.BZERO_PAGE
    assert split_uniform([(a, 2), (b, 4), (a, 2)], 4) == ((a, 1), (b, 1))
    assert split_uniform([(a, 3)], 2) is None            # not divisible
    assert split_uniform([(a, 2), (None, 5)], 2) is None  # diverted advance
    assert split_uniform([], 3) == ()
