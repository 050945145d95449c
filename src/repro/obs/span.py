"""Structured trace spans with parent/child nesting.

A span brackets one mechanism operation (``fault.resolve``,
``cache.pull_in``, ...) in *virtual* time, carries free-form
attributes, and accumulates the mechanism events charged on the clock
while it was the innermost active span — the per-span attribution the
flat counters cannot give ("which bcopies happened inside this IPC
transfer?").

Spans are context managers handed out by :class:`repro.obs.probe.Probe`;
when tracing is disabled the probe returns the shared
:data:`NOOP_SPAN` instead, which is falsy and allocates nothing.
"""

from __future__ import annotations

from typing import Dict, Optional


class Span:
    """One timed, attributed, nestable trace record."""

    __slots__ = ("name", "span_id", "parent_id", "depth", "start_ms",
                 "end_ms", "wall_start_s", "wall_end_s", "attrs", "events",
                 "_probe")

    def __init__(self, probe, name: str, span_id: int,
                 parent_id: Optional[int], depth: int, start_ms: float):
        self._probe = probe
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        #: host wall-clock bracket (``time.perf_counter`` seconds),
        #: stamped by the probe; only meaningful while tracing is on.
        self.wall_start_s: Optional[float] = None
        self.wall_end_s: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        #: mechanism events charged while this span was innermost,
        #: event value -> count.
        self.events: Dict[str, int] = {}

    # -- recording ----------------------------------------------------------

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, count: int = 1) -> None:
        """Record a named event against this span."""
        self.events[name] = self.events.get(name, 0) + count

    @property
    def duration_ms(self) -> float:
        """Virtual time spent inside the span (0.0 while still open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def wall_ms(self) -> float:
        """Host wall-clock time spent inside the span (0.0 while open
        or when the probe never stamped wall times)."""
        if self.wall_start_s is None or self.wall_end_s is None:
            return 0.0
        return (self.wall_end_s - self.wall_start_s) * 1000.0

    # -- context-manager protocol ------------------------------------------

    def __enter__(self) -> "Span":
        self._probe._push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.attrs["error"] = type(exc).__name__
        self._probe._pop(self)
        return False

    def __bool__(self) -> bool:
        return True

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (what the JSONL sink writes)."""
        return {
            "span": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "wall_ms": self.wall_ms,
            "attrs": dict(self.attrs),
            "events": dict(self.events),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"depth={self.depth}, t={self.start_ms:.3f}ms)")


class NoopSpan:
    """The shared do-nothing span returned while tracing is off.

    Falsy, so hot paths can guard attribute work with ``if span:``;
    every method is a no-op and the same instance is reused for every
    call — no allocation per event.
    """

    __slots__ = ()

    def set(self, **attrs: object) -> "NoopSpan":
        return self

    def event(self, name: str, count: int = 1) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NoopSpan()"


#: The singleton handed out by every disabled probe.
NOOP_SPAN = NoopSpan()
