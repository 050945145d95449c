"""Unit tests for event counters and the host synchronization interface."""

import sys
import threading

import pytest

from repro.cache.provider import ZeroFillProvider
from repro.gmi.types import Protection
from repro.kernel import Counter
from repro.kernel.sync import NullSync, ThreadedSync
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


class TestEventCounter:
    """The event counts a component owns: ``repro.kernel.Counter``."""

    def test_add_and_get(self):
        counter = Counter()
        counter.add("faults")
        counter.add("faults", 2)
        assert counter.get("faults") == 3

    def test_unknown_counter_is_zero(self):
        counter = Counter()
        assert counter.get("nothing") == 0
        assert counter.snapshot() == {}

    def test_zero_add_creates_the_key(self):
        # A registry increment by zero creates its series; a registered
        # counter must show the same key set.
        counter = Counter()
        counter.add("x", 0)
        assert counter.snapshot() == {"x": 0}

    def test_reset(self):
        counter = Counter()
        counter.add("x", 5)
        counter.reset()
        assert counter.get("x") == 0
        assert counter.resets == 1

    def test_snapshot_is_a_copy(self):
        counter = Counter()
        counter.add("x")
        snap = counter.snapshot()
        counter.add("x")
        assert snap == {"x": 1}
        assert type(snap) is dict

    def test_concurrent_increments(self):
        # Four threads fault through one ThreadedSync manager, each on
        # its own space and cache, with thread switches forced often.
        # The clock counts under the manager's lock; the TLB and MMU
        # count lock-free on the accessing thread.  Every count must
        # equal a one-thread run of the same work.
        threads, pages, reads = 4, 4, 5000

        def run(sync, workers):
            vm = PagedVirtualMemory(memory_size=8 * MB, sync=sync,
                                    tlb_entries=threads * pages)
            contexts = []
            for index in range(threads):
                cache = vm.cache_create(ZeroFillProvider())
                context = vm.context_create(f"t{index}")
                context.region_create(0x40000, pages * PAGE,
                                      protection=Protection.RW,
                                      cache=cache, offset=0)
                contexts.append(context)
            start = threading.Barrier(workers)

            def work(mine):
                start.wait()
                for context in mine:
                    for page in range(pages):
                        vm.user_write(context, 0x40000 + page * PAGE, b"w")
                    for _ in range(reads):
                        for page in range(pages):
                            vm.user_read(context, 0x40000 + page * PAGE, 1)

            pool = [threading.Thread(target=work,
                                     args=(contexts[index::workers],))
                    for index in range(workers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
            return (vm.clock.snapshot(), vm.mmu.tlb.stats.snapshot(),
                    vm.mmu.stats.snapshot(), vm.bus.stats.snapshot())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(ThreadedSync(), threads)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == run(NullSync(), 1)
        clock, tlb, _, bus = threaded
        assert clock["fault_dispatch"] == bus["faults"] == threads * pages
        assert tlb["miss"] == 2 * threads * pages
        assert tlb["hit"] == threads * pages * reads


class TestNullSync:
    def test_lock_is_reentrant_noop(self):
        sync = NullSync()
        lock = sync.lock()
        with lock:
            with lock:
                pass
        assert lock.acquire() is True
        lock.release()

    def test_condition_notify_is_noop(self):
        sync = NullSync()
        cond = sync.condition()
        cond.notify()
        cond.notify_all()

    def test_condition_wait_raises(self):
        sync = NullSync()
        cond = sync.condition()
        with pytest.raises(RuntimeError, match="single-threaded"):
            cond.wait()


class TestThreadedSync:
    def test_condition_wait_notify(self):
        sync = ThreadedSync()
        cond = sync.condition()
        ready = []

        def waiter():
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        with cond:
            ready.append(True)
            cond.notify_all()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_lock_mutual_exclusion(self):
        sync = ThreadedSync()
        lock = sync.lock()
        shared = []

        def work():
            for _ in range(500):
                with lock:
                    shared.append(len(shared))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared == list(range(2000))
