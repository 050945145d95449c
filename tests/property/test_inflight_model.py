"""Model-based tests of the in-flight fault table.

Two angles on the same claim set — concurrent faulters on overlapping
extents never double-charge, never lose a wakeup, and always observe
the installed mapping:

* :class:`InFlightProtocolMachine` replays the fault-path protocol
  against the table single-threaded: every pull either *begins* a new
  extent (charged once) or *joins* the covering one (charged never),
  fills land page-by-page in arbitrary order, and the table's view
  must track the model exactly throughout.

* :class:`TestConcurrentFaulters` runs the real thing: racing reader
  threads over a :class:`PagedVirtualMemory` with an asynchronous
  provider, where hypothesis draws the page layout.  One ``PULL_IN``
  charge per distinct page, every thread wakes, every byte observed.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.errors import InvalidOperation
from repro.cache.provider import SegmentProvider
from repro.kernel.clock import CostEvent
from repro.kernel.sync import ThreadedSync
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 4 * KB
SPAN_PAGES = 16               # the machine's address window, in pages


class FakeCache:
    _serial = 0

    def __init__(self, name):
        FakeCache._serial += 1
        self.cache_id = FakeCache._serial
        self.name = name


class InFlightProtocolMachine(RuleBasedStateMachine):
    """The fault path's contract with the table, against a set model.

    Model state per cache: a dict ``start_page -> set(pages still in
    transit)``.  A pull overlapping a live extent must *join* (the
    real path sleeps on the entry's stub); a disjoint pull *begins*.
    """

    @initialize()
    def setup(self):
        from repro.engine import InFlightTable

        sync = ThreadedSync()
        self.table = InFlightTable(sync, sync.lock(), page_size=PAGE)
        self.caches = (FakeCache("a"), FakeCache("b"))
        # cache_id -> {start_offset: (entry, set of outstanding pages)}
        self.model = {cache.cache_id: {} for cache in self.caches}
        self.begun = 0
        self.joined = 0

    def _live(self, cache):
        return self.model[cache.cache_id]

    def _covering_extent(self, cache, start, end):
        for extent_start, (entry, _) in self._live(cache).items():
            if extent_start < end and entry.end > start:
                return entry
        return None

    @rule(cache_index=st.integers(0, 1),
          page=st.integers(0, SPAN_PAGES - 1),
          pages=st.integers(1, 4),
          skew=st.integers(0, PAGE - 1))
    def pull(self, cache_index, page, pages, skew):
        """A faulter arrives for [offset, offset+size): begin or join."""
        cache = self.caches[cache_index]
        offset = page * PAGE + skew
        size = pages * PAGE
        start = page * PAGE                       # page-aligned begin
        end = (offset + size + PAGE - 1) // PAGE * PAGE
        in_flight = self._covering_extent(cache, start, end)
        if in_flight is not None:
            # The overlap carries stubs: a correct faulter must join,
            # and a buggy re-pull must be refused loudly.
            with pytest.raises(InvalidOperation):
                self.table.begin(cache, offset, size)
            self.table.join(in_flight)
            self.joined += 1
        else:
            entry = self.table.begin(cache, offset, size)
            assert entry.offset == start and entry.end == end
            outstanding = set(range(start, end, PAGE))
            assert entry.remaining == len(outstanding)
            self._live(cache)[start] = (entry, outstanding)
            self.begun += 1

    @rule(cache_index=st.integers(0, 1), pick=st.integers(0, 255))
    def land_page(self, cache_index, pick):
        """One page of some in-flight extent arrives (any order)."""
        cache = self.caches[cache_index]
        live = self._live(cache)
        if not live:
            return
        start = sorted(live)[pick % len(live)]
        entry, outstanding = live[start]
        page = sorted(outstanding)[pick % len(outstanding)]
        outstanding.discard(page)
        entry.page_done()
        if outstanding:
            assert not entry.done
        else:
            # Last page landed: the extent must retire *immediately* —
            # a later faulter must re-look-up the installed mapping,
            # not find a stale stub.
            assert entry.done
            del live[start]

    @rule(cache_index=st.integers(0, 1))
    def destroy_cache_without_inflight(self, cache_index):
        """release() of a quiesced cache forgets nothing live."""
        cache = self.caches[cache_index]
        if self._live(cache):
            return
        self.table.release(cache.cache_id)

    @invariant()
    def table_tracks_model(self):
        if not hasattr(self, "table"):
            return
        live_total = sum(len(extents) for extents in self.model.values())
        assert self.table.depth == live_total
        # Charged exactly once per extent, never per joiner.
        assert self.table.stats["begun"] == self.begun
        assert self.table.stats["joined"] == self.joined
        assert self.table.stats["completed"] == self.begun - live_total
        for cache in self.caches:
            for start, (entry, outstanding) in self._live(cache).items():
                for page in range(start, entry.end, PAGE):
                    covering = self.table.covering(cache, page)
                    assert covering is entry
                    # Every page of the run shares one condition: a
                    # single broadcast covers all sleepers, so a
                    # wakeup cannot be lost to the "wrong" page.
                    assert covering.condition is entry.condition
                assert entry.remaining == len(outstanding)


TestInFlightProtocol = InFlightProtocolMachine.TestCase
TestInFlightProtocol.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None)


class AsyncProvider(SegmentProvider):
    """Serves each pullIn from its own worker thread after a delay,
    counting pulls per page offset."""

    def __init__(self, delay=0.005):
        self.delay = delay
        self.pulls = {}
        self.threads = []
        self._mutex = threading.Lock()

    def pull_in(self, cache, offset, size, access_mode):
        with self._mutex:
            for page in range(offset, offset + size, PAGE):
                self.pulls[page] = self.pulls.get(page, 0) + 1

        def worker():
            time.sleep(self.delay)
            cache.fill_up(offset, b"\x77" * size)

        thread = threading.Thread(target=worker)
        self.threads.append(thread)
        thread.start()

    def push_out(self, cache, offset, size):
        cache.copy_back(offset, size)

    def segment_create(self, cache):
        return "async"

    def join(self):
        for thread in self.threads:
            thread.join(timeout=10)


class TestConcurrentFaulters:
    @given(layout=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_race_never_double_charges_or_hangs(self, layout):
        """N racing faulters over overlapping pages: one PULL_IN per
        distinct page, every thread wakes with the installed bytes."""
        vm = PagedVirtualMemory(memory_size=4 * MB, page_size=PAGE,
                                sync=ThreadedSync())
        provider = AsyncProvider()
        cache = vm.cache_create(provider)
        failures = []

        def faulter(pages):
            try:
                for page in pages:
                    data = vm.cache_read(cache, page * PAGE, 2)
                    if data != b"\x77\x77":
                        failures.append((page, data))
            except BaseException as exc:       # surfaced on the main thread
                failures.append(exc)

        threads = [threading.Thread(target=faulter, args=(pages,))
                   for pages in layout]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        provider.join()
        # No lost wakeup: every faulter came back.
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        # Never double-charged: one pull (and one PULL_IN cost event)
        # per distinct page, however the faulters interleaved.
        distinct = {page for pages in layout for page in pages}
        assert provider.pulls == {page * PAGE: 1 for page in distinct}
        assert vm.clock.count(CostEvent.PULL_IN) == len(distinct)
        assert vm.inflight.depth == 0
