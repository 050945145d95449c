"""The write-back daemon driven from a kernel thread: two Nucleus
facilities composed (threads + the pageout machinery)."""

import pytest

from repro.cache.provider import ZeroFillProvider
from repro.kernel.clock import CostEvent
from repro.nucleus import Nucleus
from repro.nucleus.threads import Scheduler
from repro.cache.writeback import WritebackDaemon
from repro.units import KB, MB

PAGE = 8 * KB


def test_daemon_as_kernel_thread():
    nucleus = Nucleus(memory_size=2 * MB)
    scheduler = Scheduler(nucleus)
    daemon = WritebackDaemon(nucleus.vm, age_threshold=1, batch_limit=8)
    cache = nucleus.vm.cache_create(ZeroFillProvider())

    def mutator():
        for round_index in range(6):
            for index in range(4):
                cache.write(index * PAGE,
                            bytes([round_index * 4 + index + 1]) * 16)
            yield                            # preemption point

    def writeback_thread():
        # Runs interleaved with the mutator, one tick per slice.
        for _ in range(8):
            daemon.tick()
            yield

    scheduler.spawn(mutator, name="mutator")
    scheduler.spawn(writeback_thread, name="bdflush")
    scheduler.run()

    # The daemon cleaned pages while the mutator ran.
    assert daemon.pages_cleaned > 0
    # Final state: last round's values, recoverable from the provider.
    for index in range(4):
        expected = bytes([5 * 4 + index + 1]) * 16
        assert cache.read(index * PAGE, 16) == expected
    cache.sync(0, 4 * PAGE)
    cache.invalidate(0, 4 * PAGE)
    for index in range(4):
        expected = bytes([5 * 4 + index + 1]) * 16
        assert cache.read(index * PAGE, 16) == expected


def test_interleaving_is_deterministic():
    def run_once():
        nucleus = Nucleus(memory_size=2 * MB)
        scheduler = Scheduler(nucleus)
        daemon = WritebackDaemon(nucleus.vm, age_threshold=1)
        cache = nucleus.vm.cache_create(ZeroFillProvider())
        log = []

        def mutator():
            for index in range(4):
                cache.write(index * PAGE, bytes([index + 1]))
                log.append(("write", index))
                yield

        def ticker():
            for _ in range(4):
                cleaned = daemon.tick()
                log.append(("tick", cleaned))
                yield

        scheduler.spawn(mutator)
        scheduler.spawn(ticker)
        scheduler.run()
        return log, nucleus.clock.snapshot()

    assert run_once() == run_once()
