"""Synchronization page stubs with asynchronous mappers (4.1.2).

"Before calling pullIn, the PVM places a synchronization page stub in
the global map for that page.  This will cause any future access to
the virtual page to sleep, as long as it is in transit."
"""

import threading
import time

import pytest

from repro.gmi.types import Protection
from repro.cache.provider import SegmentProvider
from repro.kernel.sync import ThreadedSync
from repro.pvm import PagedVirtualMemory
from repro.pvm.page import SyncStub
from repro.units import KB, MB

PAGE = 8 * KB


class SlowAsyncProvider(SegmentProvider):
    """Serves pullIns from a worker thread after a delay."""

    def __init__(self, delay=0.05):
        self.delay = delay
        self.concurrent_pulls = 0
        self.total_pulls = 0
        self.threads = []

    def pull_in(self, cache, offset, size, access_mode):
        self.total_pulls += 1

        def worker():
            time.sleep(self.delay)
            cache.fill_up(offset, b"\x77" * size)

        thread = threading.Thread(target=worker)
        self.threads.append(thread)
        thread.start()

    def push_out(self, cache, offset, size):
        cache.copy_back(offset, size)

    def segment_create(self, cache):
        return "slow"

    def join(self):
        for thread in self.threads:
            thread.join(timeout=5)


@pytest.fixture
def threaded_pvm():
    return PagedVirtualMemory(memory_size=1 * MB, sync=ThreadedSync())


class TestAsyncPullIn:
    def test_faulting_thread_sleeps_until_fill(self, threaded_pvm):
        pvm = threaded_pvm
        provider = SlowAsyncProvider()
        cache = pvm.cache_create(provider)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        start = time.monotonic()
        data = pvm.user_read(ctx, 0x40000, 4)
        elapsed = time.monotonic() - start
        provider.join()
        assert data == b"\x77" * 4
        assert elapsed >= provider.delay * 0.5

    def test_concurrent_faulters_share_one_pull(self, threaded_pvm):
        """Two threads faulting the same page: one pullIn, both wake."""
        pvm = threaded_pvm
        provider = SlowAsyncProvider(delay=0.1)
        cache = pvm.cache_create(provider)
        ctx = pvm.context_create()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        results = []

        def reader():
            results.append(pvm.user_read(ctx, 0x40000, 2))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        provider.join()
        assert results == [b"\x77\x77"] * 4
        assert provider.total_pulls == 1
        assert cache.statistics.stub_waits >= 1

    def test_explicit_read_also_sleeps_on_stub(self, threaded_pvm):
        pvm = threaded_pvm
        provider = SlowAsyncProvider()
        cache = pvm.cache_create(provider)
        data = cache.read(0, 8)
        provider.join()
        assert data == b"\x77" * 8

    def test_stub_replaced_by_page_descriptor(self, threaded_pvm):
        pvm = threaded_pvm
        provider = SlowAsyncProvider(delay=0.02)
        cache = pvm.cache_create(provider)
        cache.read(0, 1)
        provider.join()
        entry = pvm.global_map.lookup(cache, 0)
        assert not isinstance(entry, SyncStub)
        assert entry is cache.pages[0]
