"""Chorus/MIX: Unix process semantics (section 5.1.5)."""

import pytest

from repro.errors import StaleObject
from repro.mix import Pipe, ProcessManager, ProgramStore
from repro.mix.program import Program
from repro.nucleus import Nucleus
from repro.segments import MemoryMapper
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def rig():
    nucleus = Nucleus(memory_size=8 * MB)
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    store = ProgramStore(mapper, nucleus.vm.page_size)
    # sh: 2-page data; cc: a "big" program with a 64 KB data segment.
    store.install("sh", text=b"SH-TEXT " * 64, data=b"SH-DATA " * 2048)
    store.install("cc", text=b"CC-TEXT " * 512, data=b"CC-DATA " * 8192)
    manager = ProcessManager(nucleus, store)
    return nucleus, manager


class TestExec:
    def test_image_layout(self, rig):
        nucleus, manager = rig
        process = manager.spawn("sh")
        assert process.read(Program.TEXT_BASE, 7) == b"SH-TEXT"
        assert process.read(Program.DATA_BASE, 7) == b"SH-DATA"
        process.write(Program.STACK_BASE, b"stack")
        assert process.read(Program.STACK_BASE, 5) == b"stack"

    def test_text_is_read_only(self, rig):
        from repro.errors import AccessViolation
        nucleus, manager = rig
        process = manager.spawn("sh")
        with pytest.raises(AccessViolation):
            process.write(Program.TEXT_BASE, b"patch")

    def test_data_writes_do_not_touch_image(self, rig):
        nucleus, manager = rig
        a = manager.spawn("sh")
        a.write(Program.DATA_BASE, b"scribble")
        b = manager.spawn("sh")
        assert b.read(Program.DATA_BASE, 7) == b"SH-DATA"

    def test_exec_replaces_image(self, rig):
        nucleus, manager = rig
        process = manager.spawn("sh")
        process.write(Program.DATA_BASE, b"old state")
        process.exec("cc")
        assert process.read(Program.TEXT_BASE, 7) == b"CC-TEXT"
        assert process.read(Program.DATA_BASE, 7) == b"CC-DATA"

    def test_text_shared_across_processes(self, rig):
        nucleus, manager = rig
        a = manager.spawn("sh")
        b = manager.spawn("sh")
        text_cache_a = a.text_region.cache
        text_cache_b = b.text_region.cache
        assert text_cache_a is text_cache_b


class TestFork:
    def test_child_inherits_state(self, rig):
        nucleus, manager = rig
        parent = manager.spawn("sh")
        parent.write(Program.DATA_BASE, b"inherited")
        parent.write(Program.STACK_BASE + 100, b"frame")
        child = parent.fork()
        assert child.read(Program.DATA_BASE, 9) == b"inherited"
        assert child.read(Program.STACK_BASE + 100, 5) == b"frame"
        assert child.ppid == parent.pid

    def test_copy_on_write_isolation(self, rig):
        nucleus, manager = rig
        parent = manager.spawn("sh")
        parent.write(Program.DATA_BASE, b"original")
        child = parent.fork()
        child.write(Program.DATA_BASE, b"child ow")
        parent.write(Program.DATA_BASE + PAGE, b"parent 2")
        assert parent.read(Program.DATA_BASE, 8) == b"original"
        assert child.read(Program.DATA_BASE, 8) == b"child ow"
        # The parent's post-fork write is invisible to the child.
        assert child.read(Program.DATA_BASE + PAGE, 8) == b"SH-DATA "

    def test_fork_uses_history_not_eager_copy(self, rig):
        from repro.kernel.clock import CostEvent
        nucleus, manager = rig
        parent = manager.spawn("cc")           # big data segment
        for page in range(8):
            parent.write(Program.DATA_BASE + page * PAGE, b"touch")
        before = nucleus.clock.count(CostEvent.BCOPY_PAGE)
        parent.fork()
        after = nucleus.clock.count(CostEvent.BCOPY_PAGE)
        assert after == before                   # nothing copied at fork

    def test_grandchildren(self, rig):
        nucleus, manager = rig
        gen0 = manager.spawn("sh")
        gen0.write(Program.DATA_BASE, b"gen0")
        gen1 = gen0.fork()
        gen1.write(Program.DATA_BASE, b"gen1")
        gen2 = gen1.fork()
        assert gen2.read(Program.DATA_BASE, 4) == b"gen1"
        gen2.write(Program.DATA_BASE, b"gen2")
        assert gen0.read(Program.DATA_BASE, 4) == b"gen0"
        assert gen1.read(Program.DATA_BASE, 4) == b"gen1"

    def test_copy_on_reference_fork(self, rig):
        """COR fork: the child's first touch materializes a private
        page even for reads (section 4.2.2)."""
        nucleus, manager = rig
        parent = manager.spawn("sh")
        parent.write(Program.DATA_BASE, b"to inherit")
        child = manager.fork(parent, on_reference=True)
        assert child.read(Program.DATA_BASE, 10) == b"to inherit"
        child_cache = child.data_region.cache
        assert 0 in child_cache.pages         # private frame on read
        # Semantics are unchanged: isolation both ways.
        parent.write(Program.DATA_BASE, b"parent  v2")
        assert child.read(Program.DATA_BASE, 10) == b"to inherit"

    def test_shell_fork_exit_pattern(self, rig):
        """The common Unix pattern: fork, child execs and exits."""
        nucleus, manager = rig
        shell = manager.spawn("sh")
        shell.write(Program.DATA_BASE, b"shell st")
        for _ in range(5):
            child = shell.fork()
            child.exec("cc")
            child.write(Program.DATA_BASE, b"cc state")
            child.exit(0)
            assert manager.wait(shell) is child
        assert shell.read(Program.DATA_BASE, 8) == b"shell st"
        assert manager.live_processes() == 1

    def test_fork_exit_cycles_leave_no_metrics_residue(self, rig):
        """Each child's address space gets its own labeled ledger
        series; exit drops them, and the registry's series-base cache
        must forget them too, or a long make grows it without bound."""
        nucleus, manager = rig
        registry = nucleus.vm.registry
        shell = manager.spawn("sh")

        def cycles(count):
            for _ in range(count):
                child = shell.fork()
                child.exec("cc")
                child.write(Program.DATA_BASE, b"cc state")
                child.exit(0)
                manager.wait(shell)
            return len(registry._series_base)

        settled = cycles(4)
        assert cycles(40) == settled


class TestExit:
    def test_exit_releases_everything(self, rig):
        nucleus, manager = rig
        process = manager.spawn("sh")
        process.write(Program.DATA_BASE, b"x")
        process.exit(3)
        assert process.exited and process.exit_status == 3
        with pytest.raises(StaleObject):
            process.read(Program.DATA_BASE, 1)

    def test_parent_exit_before_child(self, rig):
        nucleus, manager = rig
        parent = manager.spawn("sh")
        parent.write(Program.DATA_BASE, b"legacy")
        child = parent.fork()
        parent.exit(0)
        # 4.2.2: remaining unmodified source data kept for the copy.
        assert child.read(Program.DATA_BASE, 6) == b"legacy"
        child.exit(0)


class TestSbrk:
    def test_grow_and_use(self, rig):
        nucleus, manager = rig
        process = manager.spawn("sh")
        old_brk = process.sbrk(64 * KB)
        process.write(old_brk + 10 * KB, b"heap!")
        assert process.read(old_brk + 10 * KB, 5) == b"heap!"

    def test_sbrk_zero_queries(self, rig):
        nucleus, manager = rig
        process = manager.spawn("sh")
        assert process.sbrk(0) == process.brk

    def test_child_inherits_brk(self, rig):
        nucleus, manager = rig
        parent = manager.spawn("sh")
        parent.sbrk(32 * KB)
        child = parent.fork()
        assert child.brk == parent.brk


class TestPipes:
    def test_parent_child_pipe(self, rig):
        nucleus, manager = rig
        parent = manager.spawn("sh")
        child = parent.fork()
        pipe = Pipe(nucleus)
        pipe.write(b"from parent to child")
        assert pipe.read(20) == b"from parent to child"
        pipe.close()

    def test_large_transfer_chunks(self, rig):
        nucleus, manager = rig
        pipe = Pipe(nucleus)
        payload = bytes(range(256)) * 1024          # 256 KB > 64 KB limit
        pipe.write(payload)
        received = pipe.read(len(payload))
        assert received == payload
        assert pipe.bytes_read == len(payload)

    def test_cache_to_cache_pipe_transfer(self, rig):
        from repro.cache.provider import ZeroFillProvider
        nucleus, manager = rig
        vm = nucleus.vm
        src = vm.cache_create(ZeroFillProvider(), name="src")
        src.write(0, b"bulk pipe payload")
        pipe = Pipe(nucleus)
        pipe.write_from_cache(src, 0, 2 * PAGE)
        dst = vm.cache_create(ZeroFillProvider(), name="dst")
        size = pipe.read_into_cache(dst, 0)
        assert size == 2 * PAGE
        assert dst.read(0, 17) == b"bulk pipe payload"
