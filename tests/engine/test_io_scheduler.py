"""The I/O scheduler: a synchronous router for mapper requests.

The contract under test: every mapper read and write runs on the
calling thread, in program order — the charging half
(``prepare_write`` / ``charge_read``) first, then the byte half — and
has finished when the call returns, so a reader never sees the store
without bytes already paid for and a store error reaches the caller.
"""

import threading

import pytest

from repro.engine import IoScheduler
from repro.segments.swap_mapper import SwapMapper


class RecordingMapper(SwapMapper):
    """A swap mapper that records the order and thread of protocol
    and byte calls."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.threads = set()

    def prepare_write(self, key, offset, data):
        self.calls.append(("prepare", offset, len(data)))
        self.threads.add(threading.get_ident())
        return super().prepare_write(key, offset, data)

    def write_range(self, key, offset, data):
        self.calls.append(("write_range", offset, len(data)))
        self.threads.add(threading.get_ident())
        super().write_range(key, offset, data)

    def read_segment(self, key, offset, size):
        self.calls.append(("read", offset, size))
        self.threads.add(threading.get_ident())
        return super().read_segment(key, offset, size)


def make_segment(mapper):
    return mapper.create_temporary().key


class TestSynchronousPassThrough:
    def test_zero_threads_starts_no_workers(self):
        before = threading.active_count()
        io = IoScheduler()
        mapper = SwapMapper()
        key = make_segment(mapper)
        io.write_segment(mapper, key, 0, b"data")
        io.read_segment(mapper, key, 0, 4)
        io.flush()
        assert threading.active_count() == before

    def test_write_is_prepare_then_range_on_caller(self):
        mapper = RecordingMapper()
        key = make_segment(mapper)
        io = IoScheduler()
        io.write_segment(mapper, key, 0, b"hello")
        assert mapper.calls == [("prepare", 0, 5), ("write_range", 0, 5)]
        assert io.read_segment(mapper, key, 0, 5) == b"hello"
        assert mapper.threads == {threading.get_ident()}

    def test_partial_page_write_is_read_modify_write(self):
        # A block store (page_size set) merges an unaligned write into
        # the surrounding block before storing it, on the caller.
        mapper = RecordingMapper()
        mapper.page_size = 8
        key = make_segment(mapper)
        io = IoScheduler()
        io.write_segment(mapper, key, 0, b"abcdefgh" * 2)
        mapper.calls.clear()
        io.write_segment(mapper, key, 3, b"XY")
        assert mapper.calls == [("prepare", 3, 2), ("read", 0, 8),
                                ("write_range", 0, 8)]
        assert mapper.read_range(key, 0, 16) == b"abcXYfghabcdefgh"

    def test_store_error_reaches_the_caller(self):
        class Exploding(SwapMapper):
            def write_range(self, key, offset, data):
                raise RuntimeError("store died")

        mapper = Exploding()
        key = make_segment(mapper)
        io = IoScheduler()
        with pytest.raises(RuntimeError, match="store died"):
            io.write_segment(mapper, key, 0, b"boom")
        io.flush()                  # nothing was parked for later

    def test_flush_is_a_no_op_sync_point(self):
        mapper = RecordingMapper()
        key = make_segment(mapper)
        io = IoScheduler()
        io.write_segment(mapper, key, 0, b"landed")
        calls = list(mapper.calls)
        io.flush()
        assert mapper.calls == calls
        assert mapper.read_range(key, 0, 6) == b"landed"


class TestOpaqueMappers:
    def test_proxy_routes_full_segment_ops(self):
        # A proxy that forwards the whole protocol elsewhere (the
        # remote-mapper stub) overrides the segment ops; the router
        # must hand it exactly those calls.
        class Proxy(SwapMapper):
            def __init__(self):
                super().__init__()
                self.segment_ops = []

            def read_segment(self, key, offset, size):
                self.segment_ops.append("read")
                return super().read_segment(key, offset, size)

            def write_segment(self, key, offset, data):
                self.segment_ops.append("write")
                super().write_segment(key, offset, data)

        mapper = Proxy()
        key = make_segment(mapper)
        io = IoScheduler()
        io.write_segment(mapper, key, 0, b"direct")
        assert io.read_segment(mapper, key, 0, 6) == b"direct"
        assert mapper.segment_ops == ["write", "read"]
