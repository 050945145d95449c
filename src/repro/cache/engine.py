"""The cache engine: one pageout/writeback data path for every backend.

Victim selection, dirty-page writeback and the pullIn/pushOut charging
used to be spread over ``pvm/pageout.py``, ``pvm/writeback.py`` and
``pvm/cacheops.py`` — and existed only for the PVM.  The engine owns
that machinery once, on top of the shared residency index:

* :meth:`pull` / :meth:`push` — the ranged upcall drivers.  They
  charge the unchanged *per-page* cost events and cache statistics
  (so the Table 6/7 virtual-time goldens are bit-identical), then make
  either one ranged provider call (``provider.batched``) or the legacy
  page-at-a-time calls;
* :meth:`reclaim` — eviction: asks the pluggable policy for victims,
  coalesces their dirty pages into ranged pushOuts, then has the
  backend drop each frame;
* :meth:`drain` — flush-and-evict a whole cache (segment-manager
  retention drops go through here, so they show up in ``cache.evict``
  like any other eviction);
* ``cache.*`` labeled metrics throughout (hit/miss/evict/writeback
  per segment, policy, reason).

The engine holds no hardware knowledge: frame free, translation
shootdown and stub re-targeting stay behind the backend's
``discard_page`` hook, and write revocation on a page cleaned in place
behind ``page_cleaned``.  The ``vm`` collaborator is duck-typed — any
object with ``clock`` / ``probe`` / ``page_size`` / ``lock`` /
``discard_page`` / ``page_cleaned`` works, which is what keeps this
package importable without the backends (layer rule 4).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, List, Optional, Tuple

from repro.cache.descriptor import RealPageDescriptor
from repro.cache.eviction import EvictionPolicy, SecondChancePolicy
from repro.cache.residency import ResidencyIndex
from repro.kernel.clock import CostEvent
from repro.pressure import FrameArbiter


class CacheEngine:
    """Residency, eviction and mapper I/O for one memory manager."""

    def __init__(self, vm, policy: Optional[EvictionPolicy] = None,
                 arbiter: Optional[FrameArbiter] = None):
        self.vm = vm
        # NB: `policy or default` would be wrong — an empty policy has
        # len() == 0 and is falsy.
        self.residency = ResidencyIndex(
            SecondChancePolicy() if policy is None else policy,
            page_size=vm.page_size)
        #: The frame arbiter: owner of the global residency budget and
        #: the per-space grants.  An arbiter without a budget is inert
        #: — the default — and the legacy ``budget`` attribute is a
        #: view onto ``arbiter.global_budget``.
        self.arbiter = FrameArbiter() if arbiter is None else arbiter
        self._reclaiming = False

    @property
    def budget(self) -> Optional[int]:
        """The global residency budget (pages), owned by the arbiter.
        When set, inserting past the budget triggers an immediate
        reclaim; pinned pages can still push residency above it (they
        are unevictable)."""
        return self.arbiter.global_budget

    @budget.setter
    def budget(self, pages: Optional[int]) -> None:
        self.arbiter.global_budget = pages

    # -- policy ------------------------------------------------------------------

    @property
    def policy(self) -> EvictionPolicy:
        return self.residency.policy

    def set_policy(self, policy: EvictionPolicy) -> None:
        """Swap the eviction policy at runtime (resident pages keep
        their current scan order)."""
        self.residency.set_policy(policy)

    # -- residency mutation ------------------------------------------------------

    def insert(self, page: RealPageDescriptor) -> None:
        """A page became resident (the single entry point for all
        backends); runs the arbiter's grant check when one is active.

        The page is charged to the space being served (the pressure
        board's attribution stack) and the insert trips a reclaim only
        when the *global* budget overshoots — per-space over-grant is
        the balancer daemon's business, off the fault path.  The page
        being inserted is never its own victim — the fault path is
        about to use it, and evicting it would re-fault and re-insert
        in a loop when everything else is pinned.
        """
        self.residency.insert(page)
        arbiter = self.arbiter
        if arbiter.active:
            board = getattr(self.vm, "pressure", None)
            space = board.current_space() if board is not None else None
            page.charged_space = space
            arbiter.charge(space)
            if not self._reclaiming:
                excess = arbiter.overshoot(len(self.residency))
                if excess > 0:
                    self.reclaim(excess, exclude=page)

    def forget(self, page: RealPageDescriptor) -> None:
        """A page left residency (evicted, surrendered, destroyed)."""
        self.residency.remove(page)
        arbiter = self.arbiter
        if arbiter.active:
            arbiter.release(page.charged_space)
            page.charged_space = None

    # -- mapper I/O --------------------------------------------------------------

    def pull(self, cache, offset: int, size: int, mode) -> None:
        """Drive pullIn for ``[offset, offset+size)``.

        Charges per-page costs and counters exactly as the page-at-a-
        time path always did, then upcalls the provider — once for the
        whole range when it declares ``batched``, else once per page.
        The caller owns synchronization stubs (and their cleanup).
        """
        vm = self.vm
        page_size = vm.page_size
        pages = max(1, size // page_size)
        board = getattr(vm, "pressure", None)
        # The whole pull — upcall charges included — is a memory stall
        # for whoever faulted: the PSI bracket reads the virtual clock
        # around it, never charging anything itself.
        with board.stall("pull") if board is not None else nullcontext():
            for _ in range(pages):
                vm.clock.charge(CostEvent.PULL_IN)
            cache.stats.pull_ins += pages
            mode_label = mode.name.lower()
            probe = vm.probe
            # Labeled: which segment is paying the upcalls, and for what
            # access mode (rolls up into the plain `cache.pull_in` count).
            probe.count("cache.pull_in", pages, segment=cache.name,
                        mode=mode_label)
            probe.count("cache.miss", pages, segment=cache.name)
            if board is not None:
                board.pulled(pages)
            arbiter = self.arbiter
            if arbiter.active:
                # Pages returning after an eviction are refaults — the
                # thrashing signal the balancer and estimator read.
                arbiter.note_pull(cache.cache_id, offset, pages, page_size,
                                  board.current_space()
                                  if board is not None else None)
            with probe.span("cache.pull_in") as span:
                if span:
                    span.set(cache=cache.name, offset=offset,
                             mode=mode_label, pages=pages)
                if pages == 1 or getattr(cache.provider, "batched",
                                         False):
                    cache.provider.pull_in(cache, offset, size, mode)
                else:
                    for index in range(pages):
                        cache.provider.pull_in(
                            cache, offset + index * page_size,
                            page_size, mode)

    def push(self, cache, offset: int, size: int,
             reason: str = "flush", keep: bool = False) -> None:
        """Drive pushOut for ``[offset, offset+size)`` and clean the
        resident pages it covers.

        Per-page costs and statistics are unchanged; a batched
        provider gets one ranged upcall.  The upcall runs to completion
        on this thread, and the pages are marked clean only after it
        returns: a page is clean only once its bytes have landed, so a
        mapper error reaches the caller with the whole run still dirty.
        *keep* says the pages stay resident (daemon, sync): each
        cleaned page then goes through the backend's ``page_cleaned``
        hook, so its next store is seen.  Pages about to be evicted
        skip the hook.
        """
        vm = self.vm
        page_size = vm.page_size
        pages = max(1, size // page_size)
        for _ in range(pages):
            vm.clock.charge(CostEvent.PUSH_OUT)
        cache.stats.push_outs += pages
        probe = vm.probe
        probe.count("cache.writeback", pages, segment=cache.name,
                    reason=reason)
        board = getattr(vm, "pressure", None)
        if board is not None:
            board.pushed(pages)
        with probe.span("cache.push_out") as span:
            if span:
                span.set(cache=cache.name, offset=offset, pages=pages,
                         reason=reason)
            if pages == 1 or getattr(cache.provider, "batched", False):
                cache.provider.push_out(cache, offset, size)
            else:
                for index in range(pages):
                    cache.provider.push_out(
                        cache, offset + index * page_size, page_size)
        for index in range(pages):
            resident = cache.pages.get(offset + index * page_size)
            if resident is not None:
                resident.dirty = False
                if keep:
                    vm.page_cleaned(resident)

    # -- eviction ----------------------------------------------------------------

    def reclaim(self, target: int,
                exclude: Optional[RealPageDescriptor] = None,
                from_spaces=None) -> int:
        """Evict up to *target* pages; return how many frames freed.

        *exclude* (the page whose insertion tripped the budget, if
        any) is never selected.  *from_spaces* restricts victims to
        pages charged to those spaces — the balancer's targeted
        shrink; untargeted reclaim under an arbiter in QoS mode skips
        pages of spaces at or below their floor (the no-starvation
        guarantee), and is the unchanged legacy scan otherwise."""
        vm = self.vm
        arbiter = self.arbiter
        guard_floors = (from_spaces is None and arbiter.active
                        and arbiter.protects_floors)
        taken: dict = {}
        victims: List[RealPageDescriptor] = []
        self._reclaiming = True
        try:
            with vm.probe.span("pageout.scan") as span:
                seen = set()
                for page in self.residency.policy.victims():
                    if len(victims) >= target:
                        break
                    if id(page) in seen:
                        # The policy cycled back to a page we already
                        # hold (second-chance re-queues each yielded
                        # candidate); pages whose reference bits were
                        # cleared this rotation may still lie behind
                        # it, so keep scanning — every policy's
                        # ``victims()`` is finitely bounded.
                        continue
                    seen.add(id(page))
                    if page is exclude:
                        continue
                    space = page.charged_space
                    if from_spaces is not None:
                        if space not in from_spaces:
                            continue
                    elif guard_floors and space is not None:
                        held = (arbiter.charged_of(space)
                                - taken.get(space, 0))
                        if held <= arbiter.floor_pages:
                            continue
                    if space is not None:
                        taken[space] = taken.get(space, 0) + 1
                    victims.append(page)
                dirty = [page for page in victims if page.dirty]
                if dirty:
                    vm.probe.count("pageout.dirty_pushed", len(dirty))
                    for cache, run_offset, run_size in _dirty_runs(
                            dirty, vm.page_size):
                        self.push(cache, run_offset, run_size,
                                  reason="evict")
                board = getattr(vm, "pressure", None)
                for page in victims:
                    if board is not None:
                        # Caused by the current task's space, suffered
                        # by every space that had the frame mapped.
                        board.eviction({space for space, _
                                        in page.mappings})
                    if arbiter.active:
                        arbiter.note_evicted(page.cache.cache_id,
                                             page.offset,
                                             page.charged_space)
                    vm.discard_page(page)
                if span:
                    span.set(target=target, freed=len(victims))
            freed = len(victims)
            if freed:
                vm.probe.count("pageout.evicted", freed,
                               backend=vm.name, policy=self.policy.name)
                per_segment: dict = {}
                for page in victims:
                    per_segment[page.cache] = \
                        per_segment.get(page.cache, 0) + 1
                for cache, count in per_segment.items():
                    vm.probe.count("cache.evict", count,
                                   segment=cache.name,
                                   policy=self.policy.name)
            return freed
        finally:
            self._reclaiming = False

    def drain(self, cache, reason: str = "retained") -> int:
        """Flush and evict every unpinned page of *cache*.

        The segment manager's retention drops go through here, so
        retained-cache statistics and the ``cache.evict`` counters
        agree; returns how many pages were dropped.
        """
        vm = self.vm
        with vm.lock:
            pages = [cache.pages[offset] for offset in sorted(cache.pages)]
            dirty = [page for page in pages if page.dirty]
            for push_cache, run_offset, run_size in _dirty_runs(
                    dirty, vm.page_size):
                self.push(push_cache, run_offset, run_size, reason=reason)
            dropped = 0
            for page in pages:
                if page.pinned:
                    continue
                vm.discard_page(page)
                dropped += 1
            if dropped:
                vm.probe.count("cache.evict", dropped,
                               segment=cache.name, reason=reason)
            return dropped

    def __repr__(self) -> str:
        return f"CacheEngine({self.residency!r})"


def _dirty_runs(pages: Iterable[RealPageDescriptor], page_size: int
                ) -> List[Tuple[object, int, int]]:
    """Coalesce page descriptors into maximal per-cache contiguous
    ``(cache, offset, size)`` runs, in scan order."""
    runs: List[Tuple[object, int, int]] = []
    for page in sorted(pages, key=lambda p: (p.cache.cache_id, p.offset)):
        if runs:
            cache, offset, size = runs[-1]
            if cache is page.cache and offset + size == page.offset:
                runs[-1] = (cache, offset, size + page_size)
                continue
        runs.append((page.cache, page.offset, page_size))
    return runs
