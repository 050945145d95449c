"""Unit tests for event counters and the host synchronization interface."""

import threading

import pytest

from repro.obs.metrics import EventCounter
from repro.kernel.sync import NullSync, ThreadedSync


class TestEventCounter:
    def test_add_and_get(self):
        counter = EventCounter()
        counter.add("faults")
        counter.add("faults", 2)
        assert counter.get("faults") == 3

    def test_unknown_counter_is_zero(self):
        assert EventCounter().get("nothing") == 0

    def test_reset(self):
        counter = EventCounter()
        counter.add("x", 5)
        counter.reset()
        assert counter.get("x") == 0

    def test_snapshot_is_a_copy(self):
        counter = EventCounter()
        counter.add("x")
        snap = counter.snapshot()
        counter.add("x")
        assert snap == {"x": 1}

    def test_concurrent_increments(self):
        counter = EventCounter()

        def work():
            for _ in range(1000):
                counter.add("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.get("n") == 4000


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
