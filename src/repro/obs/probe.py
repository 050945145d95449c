"""The Probe: the one instrumentation facade components receive.

Instead of each subsystem keeping its own counter bag (a stats
dataclass here, a wrapped clock in the tools), every component above
the hardware is handed a probe and speaks three verbs:

* ``count(name)`` / ``gauge(name, v)`` / ``observe(name, v)`` —
  metrics, always on, landing in the shared
  :class:`~repro.obs.metrics.MetricsRegistry`;
* ``span(name)`` — structured tracing, *off by default*: with the
  null sink installed the call returns the shared no-op span
  (falsy, zero allocation); with a real sink it returns a nested,
  attributed :class:`~repro.obs.span.Span`;
* ``event(name)`` — attach a named event to the innermost open span.

When tracing is enabled and the probe knows the virtual clock, every
``clock.charge`` is attributed to the innermost open span, so a span
answers "which mechanism events happened inside this operation".
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import NULL_SINK, SpanSink
from repro.obs.span import NOOP_SPAN, Span


class Probe:
    """Instrumentation facade bound to one registry and one sink."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 sink: Optional[SpanSink] = None, clock=None):
        self.registry = registry or MetricsRegistry()
        # `is not None`, not truthiness: an empty RingBufferSink has
        # len() == 0 and would be mistaken for "no sink".
        self.sink = sink if sink is not None else NULL_SINK
        self.clock = clock
        self._stack: List[Span] = []
        self._next_span_id = 1
        # Span ids are allocated under a lock because other kernel
        # threads (under ThreadedSync) may open spans concurrently;
        # `n += 1` is not atomic.
        self._id_lock = threading.Lock()
        self._listening = False
        # Memoized "tracing is off" flag: span() — called on every
        # fault, pull-in and eviction — pays one attribute check
        # instead of chasing sink.enabled each time.
        self._span_off = not self.sink.enabled
        if self.sink.enabled and self.clock is not None:
            self._attach_clock()

    # -- configuration ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when spans are being recorded (a real sink is installed)."""
        return self.sink.enabled

    def set_sink(self, sink: Optional[SpanSink]) -> SpanSink:
        """Install *sink* (None disables tracing); returns the old sink.

        Switching sinks mid-run is how the tools turn tracing on for one
        phase of a workload and off again without touching the probe's
        consumers.
        """
        previous = self.sink
        self.sink = sink if sink is not None else NULL_SINK
        self._span_off = not self.sink.enabled
        if self.sink.enabled and self.clock is not None:
            self._attach_clock()
        elif not self.sink.enabled:
            self._detach_clock()
        return previous

    def bind_clock(self, clock) -> None:
        """Late-bind the virtual clock (managers build clock and probe
        in either order)."""
        self._detach_clock()
        self.clock = clock
        if self.sink.enabled and clock is not None:
            self._attach_clock()

    def _attach_clock(self) -> None:
        if not self._listening and self.clock is not None:
            self.clock.add_listener(self._on_charge)
            self._listening = True

    def _detach_clock(self) -> None:
        if self._listening and self.clock is not None:
            self.clock.remove_listener(self._on_charge)
            self._listening = False

    # -- metrics ------------------------------------------------------------

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        """Increment a registry counter.

        Keyword labels (``probe.count("fault.write", backend="pvm")``)
        record a labeled ``name{k=v,...}`` series alongside the
        plain-name rollup.  Hot paths may instead pass a precomputed
        series key (see :func:`repro.obs.metrics.series_name`) as
        *name* to skip the per-call formatting.
        """
        self.registry.inc(name, n, labels=labels or None)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a registry gauge."""
        self.registry.set_gauge(name, value, labels=labels or None)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record into a registry histogram."""
        self.registry.observe(name, value, labels=labels or None)

    # -- spans --------------------------------------------------------------

    def span(self, name: str):
        """Open a trace span (a context manager).

        Returns the shared no-op span when tracing is disabled — test
        with ``if span:`` before doing attribute-only work.
        """
        if self._span_off:
            return NOOP_SPAN
        parent = self._stack[-1] if self._stack else None
        with self._id_lock:
            span_id = self._next_span_id
            self._next_span_id = span_id + 1
        span = Span(
            self, name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            start_ms=self.clock.now() if self.clock is not None else 0.0,
        )
        span.wall_start_s = perf_counter()
        return span

    def current_span(self):
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def event(self, name: str, count: int = 1) -> None:
        """Attribute a named event to the innermost open span (no-op
        when tracing is off or no span is open)."""
        if self._stack:
            self._stack[-1].event(name, count)

    # -- span bookkeeping (called by Span) ---------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        while self._stack and self._stack[-1] is not span:
            # A child span leaked past its parent's exit; close it too.
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        span.end_ms = self.clock.now() if self.clock is not None else 0.0
        span.wall_end_s = perf_counter()
        self.registry.observe(f"span.{span.name}.ms", span.duration_ms)
        self.sink.emit(span)

    def _on_charge(self, start_ms: float, event, count: int) -> None:
        """Clock listener: attribute charged events to the open span."""
        if self._stack:
            stack_top = self._stack[-1]
            stack_top.events[event.value] = \
                stack_top.events.get(event.value, 0) + count

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Probe(tracing={state}, {self.registry!r})"


class _IdleProbe(Probe):
    """The shared unwired probe: every verb is a constant-time no-op.

    Components constructed without a manager (stand-alone IPC ports,
    DSM providers before adoption) hold this instead of a real probe;
    their hot paths then cost one attribute check per event rather
    than label-dict construction and registry locking into a
    throwaway registry.
    """

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def span(self, name: str):
        return NOOP_SPAN

    def event(self, name: str, count: int = 1) -> None:
        pass


#: A do-nothing probe for components constructed without a manager
#: (tracing off, metrics dropped on the floor).
NULL_PROBE = _IdleProbe()
