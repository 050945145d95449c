"""Concurrency: many threads against one PVM (the host-sync contract).

Section 2: the host kernel provides "a simple synchronization
interface, to allow concurrent Memory Management operations".  With
ThreadedSync installed, parallel faulting, copying and flushing must
never corrupt data or deadlock.
"""

import threading

import pytest

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.kernel.sync import ThreadedSync
from repro.pvm import PagedVirtualMemory
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def vm():
    return PagedVirtualMemory(memory_size=8 * MB, sync=ThreadedSync())


def run_threads(workers, count=4, timeout=30):
    threads = [threading.Thread(target=workers, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker deadlocked"


class TestParallelFaulting:
    def test_disjoint_pages_one_cache(self, vm):
        cache = vm.cache_create(ZeroFillProvider())
        errors = []

        def worker(index):
            try:
                for round_index in range(20):
                    offset = (index * 20 + round_index) * PAGE
                    cache.write(offset, bytes([index + 1]) * 16)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        run_threads(worker)
        assert errors == []
        for index in range(4):
            for round_index in range(20):
                offset = (index * 20 + round_index) * PAGE
                assert cache.read(offset, 16) == bytes([index + 1]) * 16

    def test_same_pages_mapped_from_many_contexts(self, vm):
        cache = vm.cache_create(ZeroFillProvider())
        cache.write(0, b"shared page")
        contexts = [vm.context_create(f"t{index}") for index in range(4)]
        for context in contexts:
            context.region_create(0x40000, PAGE, protection=Protection.RW,
                                  cache=cache, offset=0)
        results = []

        def worker(index):
            for _ in range(50):
                results.append(
                    vm.user_read(contexts[index], 0x40000, 11))

        run_threads(worker)
        assert all(result == b"shared page" for result in results)


class TestParallelDeferredCopy:
    def test_concurrent_cow_resolutions(self, vm):
        src = vm.cache_create(ZeroFillProvider(), name="src")
        for page in range(8):
            src.write(page * PAGE, bytes([page + 1]) * 32)
        copies = []
        for index in range(4):
            copy = vm.cache_create(ZeroFillProvider(), name=f"c{index}")
            src.copy(0, copy, 0, 8 * PAGE, policy=CopyPolicy.HISTORY)
            copies.append(copy)
        errors = []

        def worker(index):
            try:
                copy = copies[index]
                for page in range(8):
                    copy.write(page * PAGE, bytes([100 + index]) * 16)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        run_threads(worker)
        assert errors == []
        for index, copy in enumerate(copies):
            for page in range(8):
                assert copy.read(page * PAGE, 16) == \
                    bytes([100 + index]) * 16
        # The source never changed.
        for page in range(8):
            assert src.read(page * PAGE, 2) == bytes([page + 1, page + 1])

    def test_writers_and_flushers(self, vm):
        cache = vm.cache_create(ZeroFillProvider())
        stop = threading.Event()
        errors = []

        def flusher(_):
            try:
                while not stop.is_set():
                    cache.sync(0, 8 * PAGE)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        flush_thread = threading.Thread(target=flusher, args=(0,))
        flush_thread.start()
        try:
            for round_index in range(30):
                for page in range(8):
                    cache.write(page * PAGE, bytes([round_index % 200 + 1]))
        finally:
            stop.set()
            flush_thread.join(timeout=10)
        assert not flush_thread.is_alive()
        assert errors == []
        for page in range(8):
            assert cache.read(page * PAGE, 1) == bytes([30 % 200])
