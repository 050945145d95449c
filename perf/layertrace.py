"""Outside-in layer tracing for the benchmark's traced run.

Each layer is named after its module and timed from outside: the
public entry points listed in :data:`ENTRY_POINTS` are wrapped at class
level while a :class:`Tracer` is installed.  A stack of open calls
turns nested calls into self time (a call's duration minus the time
its wrapped callees took), and a bounded ring keeps the most recent
spans for a Chrome-trace file.  Nothing inside ``repro`` changes.
"""

from __future__ import annotations

import time
from collections import deque

from repro.cache.engine import CacheEngine
from repro.cache.writeback import WritebackDaemon
from repro.engine import AdmissionGate, FaultPipeline, IoScheduler
from repro.hardware.bus import MemoryBus
from repro.hardware.vbus import VectorBus
from repro.ipc.ipc import IpcSubsystem
from repro.mix.process_manager import ProcessManager
from repro.nucleus.nucleus import Nucleus
from repro.nucleus.segment_manager import SegmentManager
from repro.pressure import BalancerDaemon
from repro.pvm.hw_interface import HardwareLayer
from repro.pvm.pvm import PagedVirtualMemory
from repro.segments.file_mapper import DiskMapper
from repro.segments.mem_mapper import MemoryMapper
from repro.segments.swap_mapper import SwapMapper

_MAPPER_ENTRIES = ("read_range", "write_range", "charge_read", "charge_write")

#: (layer, class, methods): the boundary of every layer, outermost first.
ENTRY_POINTS = (
    ("mix", ProcessManager, ("fork", "exec", "exit")),
    ("nucleus", Nucleus, ("rgn_allocate", "rgn_map", "rgn_init",
                          "rgn_map_from_actor", "rgn_init_from_actor",
                          "rgn_free")),
    ("nucleus", SegmentManager, ("bind", "release")),
    ("pvm", PagedVirtualMemory, ("handle_fault", "cache_copy",
                                 "region_create", "region_destroy",
                                 "context_destroy", "cache_flush")),
    ("pvm.hw", HardwareLayer, ("map_page", "unmap_page", "unmap_range",
                               "shootdown", "shootdown_served",
                               "destroy_space", "downgrade_page")),
    ("engine", FaultPipeline, ("run",)),
    ("engine", IoScheduler, ("read_segment", "write_segment", "flush")),
    ("cache", CacheEngine, ("pull", "push", "reclaim", "drain")),
    ("cache", WritebackDaemon, ("tick",)),
    ("segments", DiskMapper, _MAPPER_ENTRIES),
    ("segments", SwapMapper, _MAPPER_ENTRIES),
    ("segments", MemoryMapper, _MAPPER_ENTRIES),
    ("ipc", IpcSubsystem, ("send",)),
    ("pressure", BalancerDaemon, ("tick",)),
    ("pressure", AdmissionGate, ("admit",)),
    ("hardware", MemoryBus, ("read", "write", "touch")),
    ("hardware", VectorBus, ("replay",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

#: Bytes moved by the mapper store primitives, from their arguments
#: ``(self, key, offset, size)`` and ``(self, key, offset, data)``.
_BYTE_METERS = {
    "read_range": lambda args: args[3],
    "write_range": lambda args: len(args[3]),
}

_MISSING = object()


class Tracer:
    """Per-entry-point call counts and times, a span ring, and the
    class-level wrappers that feed them.

    *slowdown* maps a layer to a factor: each call into that layer
    spins until its self time has grown by the factor.  It exists to
    check that the comparison names a layer that really got slower.
    """

    def __init__(self, ring: int = 16_384, slowdown=None):
        self.names = []
        self.layer_of = []
        for layer, cls, methods in ENTRY_POINTS:
            for method in methods:
                self.names.append(f"{cls.__name__}.{method}")
                self.layer_of.append(layer)
        self.slowdown = dict(slowdown or {})
        unknown = set(self.slowdown) - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers: {sorted(unknown)}")
        self.ring = deque(maxlen=ring)
        self.op = 0
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self) -> None:
        """Zero every count and empty the span ring."""
        count = len(self.names)
        self.calls = [0] * count
        self.errors = [0] * count
        self.self_ns = [0] * count
        self.incl_ns = [0] * count
        self.nbytes = [0] * count
        #: time spent inside outermost wrapped calls
        self.top_ns = 0
        self.ring.clear()
        self.epoch_ns = time.perf_counter_ns()

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point.  Objects built afterwards that keep
        a bound method (the bus keeps ``handle_fault``) see the wrapper
        for their whole life, so build the traced system after this."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        index = 0
        for layer, cls, methods in ENTRY_POINTS:
            for method in methods:
                self._saved.append(
                    (cls, method, cls.__dict__.get(method, _MISSING)))
                fn = getattr(cls, method)
                if layer in self.slowdown:
                    fn = self._slowed(fn, self.slowdown[layer])
                setattr(cls, method,
                        self._wrap(index, fn, _BYTE_METERS.get(method)))
                index += 1

    def uninstall(self) -> None:
        """Restore every entry point."""
        for cls, method, original in reversed(self._saved):
            if original is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._saved = []

    def _wrap(self, index, fn, meter):
        stack = self._stack
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if meter is not None:
                    tracer.nbytes[index] += meter(args)
                return result
            except BaseException:
                tracer.errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                total = end - start
                tracer.calls[index] += 1
                tracer.self_ns[index] += total - frame[1]
                tracer.incl_ns[index] += total
                if parent is None:
                    tracer.top_ns += total
                    tracer.ring.append((index, start, end, -1, tracer.op))
                else:
                    parent[1] += total
                    tracer.ring.append((index, start, end, parent[0],
                                        tracer.op))

        return traced

    def _slowed(self, fn, factor: float):
        stack = self._stack
        clock = time.perf_counter_ns

        def slowed(*args, **kwargs):
            frame = stack[-1]
            children = frame[1]
            start = clock()
            result = fn(*args, **kwargs)
            own = clock() - start - (frame[1] - children)
            until = clock() + int(own * (factor - 1.0))
            while clock() < until:
                pass
            return result

        return slowed

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict:
        """layer -> {"calls", "self_ns", "errors"}, summed over its
        entry points."""
        totals = {layer: {"calls": 0, "self_ns": 0, "errors": 0}
                  for layer in LAYERS}
        for index, layer in enumerate(self.layer_of):
            entry = totals[layer]
            entry["calls"] += self.calls[index]
            entry["self_ns"] += self.self_ns[index]
            entry["errors"] += self.errors[index]
        return totals

    def entry(self, name: str) -> dict:
        """Counts of one entry point, by ``Class.method`` name."""
        index = self.names.index(name)
        return {"calls": self.calls[index], "incl_ns": self.incl_ns[index]}

    def moved_bytes(self, method: str) -> int:
        """Bytes metered by every entry point named *method*."""
        return sum(count for name, count in zip(self.names, self.nbytes)
                   if name.endswith("." + method))

    def chrome_trace(self) -> dict:
        """The span ring as a Chrome-trace (``chrome://tracing``)
        document: one complete event per span, with its parent entry
        point and the op it served."""
        events = []
        for index, start, end, parent, op in self.ring:
            events.append({
                "name": self.names[index],
                "cat": self.layer_of[index],
                "ph": "X",
                "ts": (start - self.epoch_ns) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"parent": self.names[parent] if parent >= 0
                         else None, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
