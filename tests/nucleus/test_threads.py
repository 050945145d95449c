"""Deterministic threads: round-robin, blocking receive, join."""

import pytest

from repro.errors import InvalidOperation, IpcError
from repro.nucleus import Nucleus
from repro.nucleus.threads import Join, Recv, Scheduler
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def nucleus():
    return Nucleus(memory_size=2 * MB)


@pytest.fixture
def sched(nucleus):
    return Scheduler(nucleus)


class TestBasicScheduling:
    def test_round_robin_interleaves(self, sched):
        log = []

        def worker(tag):
            for step in range(3):
                log.append((tag, step))
                yield

        sched.spawn(worker, "a")
        sched.spawn(worker, "b")
        sched.run()
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                       ("a", 2), ("b", 2)]

    def test_return_values_via_join(self, sched):
        def computer():
            yield
            return 42

        def joiner(thread):
            result = yield Join(thread)
            return result * 2

        worker = sched.spawn(computer)
        waiter = sched.spawn(joiner, worker)
        sched.run()
        assert worker.result == 42
        assert waiter.result == 84

    def test_non_generator_rejected(self, sched):
        with pytest.raises(InvalidOperation):
            sched.spawn(lambda: 5)

    def test_deterministic_replay(self, nucleus):
        def build_and_run():
            sched = Scheduler(nucleus)
            log = []

            def worker(tag):
                for _ in range(2):
                    log.append(tag)
                    yield

            for tag in "xyz":
                sched.spawn(worker, tag)
            sched.run()
            return log

        assert build_and_run() == build_and_run()


class TestBlockingReceive:
    def test_consumer_blocks_until_producer_sends(self, nucleus, sched):
        nucleus.ipc.create_port("queue")
        received = []

        def consumer():
            for _ in range(3):
                message = yield Recv("queue")
                received.append(message.inline)

        def producer():
            for index in range(3):
                nucleus.ipc.send("queue", data=bytes([index]))
                yield

        sched.spawn(consumer)
        sched.spawn(producer)
        sched.run()
        assert received == [b"\x00", b"\x01", b"\x02"]

    def test_receive_into_cache(self, nucleus, sched):
        from repro.cache.provider import ZeroFillProvider
        vm = nucleus.vm
        src = vm.cache_create(ZeroFillProvider(), name="src")
        src.write(0, b"threaded transit")
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        nucleus.ipc.create_port("bulk")

        def consumer():
            yield Recv("bulk", dst_cache=dst)

        def producer():
            nucleus.ipc.send("bulk", src_cache=src, src_offset=0,
                             size=2 * PAGE)
            yield

        sched.spawn(consumer)
        sched.spawn(producer)
        sched.run()
        assert dst.read(0, 16) == b"threaded transit"

    def test_deadlock_detected(self, nucleus, sched):
        nucleus.ipc.create_port("never")

        def starved():
            yield Recv("never")

        sched.spawn(starved)
        with pytest.raises(IpcError, match="deadlock"):
            sched.run()

    def test_pipeline_of_three_stages(self, nucleus, sched):
        for name in ("stage1", "stage2"):
            nucleus.ipc.create_port(name)
        results = []

        def source():
            for index in range(4):
                nucleus.ipc.send("stage1", data=bytes([index]))
                yield

        def doubler():
            for _ in range(4):
                message = yield Recv("stage1")
                nucleus.ipc.send("stage2",
                                 data=bytes([message.inline[0] * 2]))

        def sink():
            for _ in range(4):
                message = yield Recv("stage2")
                results.append(message.inline[0])

        sched.spawn(source)
        sched.spawn(doubler)
        sched.spawn(sink)
        sched.run()
        assert results == [0, 2, 4, 6]


class TestThreadsAndMemory:
    def test_threads_share_their_actor_memory(self, nucleus, sched):
        actor = nucleus.create_actor("multi")
        nucleus.rgn_allocate(actor, 2 * PAGE, address=0x40000)

        def writer():
            actor.write(0x40000, b"from thread one")
            yield

        def reader(results):
            yield                             # let the writer go first
            results.append(actor.read(0x40000, 15))

        results = []
        sched.spawn(writer, actor=actor)
        sched.spawn(reader, results, actor=actor)
        sched.run()
        assert results == [b"from thread one"]

    def test_step_budget_guards_runaway(self, sched):
        def forever():
            while True:
                yield

        sched.spawn(forever)
        with pytest.raises(InvalidOperation, match="budget"):
            sched.run(max_steps=100)
