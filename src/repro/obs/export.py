"""Span exporters: Chrome-trace JSON and collapsed-stack flamegraphs.

Any finished collection of :class:`~repro.obs.span.Span` records — a
``RingBufferSink``'s buffer, a list collected by a ``CallbackSink`` —
converts to two interchange formats:

* :func:`to_chrome_trace` — the Chrome/Perfetto "Trace Event" JSON
  format (``B``/``E`` duration events).  Two tracks are emitted: the
  **virtual-time** track, placed on the simulation's deterministic
  virtual-millisecond timeline, and (when the spans carry wall stamps)
  a **wall-time** track on the host ``perf_counter`` timeline.  Span
  attributes and the per-span mechanism-event attribution ride along
  as ``args``, so clicking a ``fault.resolve`` slice in Perfetto shows
  exactly which bcopies and zero-fills it charged.
* :func:`to_collapsed_stacks` — the ``semicolon;separated;stack
  weight`` text format consumed by flamegraph.pl / speedscope / inferno,
  weighted by *self* time (a span's duration minus its children's).

Both exporters are pure functions over span records: they sort, nest
and serialize but never touch a manager, a backend or the hardware —
the layer contract (``python -m repro layers``) enforces that.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.obs.span import Span

#: Trace-event process ids for the two timelines.
VIRTUAL_PID = 1
WALL_PID = 2

#: Microseconds per virtual millisecond (trace-event ``ts`` unit).
_US_PER_MS = 1000.0


def _finished(spans: Iterable[Span]) -> List[Span]:
    return [span for span in spans if span.end_ms is not None]


def _tree(spans: List[Span]) -> Tuple[List[Span], Dict[int, List[Span]]]:
    """(roots, children-by-parent-id), both in span-id (begin) order.

    A span whose parent was evicted from a bounded sink is treated as
    a root: the export degrades gracefully instead of dropping it.
    """
    present = {span.span_id for span in spans}
    roots: List[Span] = []
    children: Dict[int, List[Span]] = {}
    for span in sorted(spans, key=lambda item: item.span_id):
        if span.parent_id is None or span.parent_id not in present:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    return roots, children


def _span_args(span: Span) -> Dict[str, object]:
    args: Dict[str, object] = {
        "id": span.span_id,
        "parent": span.parent_id,
        "depth": span.depth,
        "virtual_ms": span.duration_ms,
        "wall_ms": span.wall_ms,
    }
    for key, value in span.attrs.items():
        args[f"attr.{key}"] = value if isinstance(
            value, (int, float, bool, str, type(None))) else repr(value)
    for event, count in span.events.items():
        args[f"event.{event}"] = count
    return args


def _duration_events(roots: List[Span], children: Dict[int, List[Span]],
                     pid: int, tid: int, start_of, end_of) -> List[dict]:
    """``B``/``E`` pairs in tree order.

    Order — not just timestamps — carries the nesting: with a zero-cost
    model every span of a fault shares one virtual timestamp, and
    Perfetto stacks equal-time ``B`` events by arrival order.
    """
    events: List[dict] = []

    def emit(span: Span) -> None:
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "B",
            "ts": start_of(span),
            "pid": pid,
            "tid": tid,
            "args": _span_args(span),
        })
        for child in children.get(span.span_id, ()):
            emit(child)
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "E",
            "ts": end_of(span),
            "pid": pid,
            "tid": tid,
        })

    for root in roots:
        emit(root)
    return events


def to_chrome_trace(spans: Iterable[Span]) -> dict:
    """Convert finished spans to a Chrome-trace JSON document (a dict;
    ``json.dump`` it for ``chrome://tracing`` or https://ui.perfetto.dev).
    """
    finished = _finished(spans)
    roots, children = _tree(finished)
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": VIRTUAL_PID,
         "args": {"name": "virtual time (deterministic ms)"}},
        {"name": "thread_name", "ph": "M", "pid": VIRTUAL_PID, "tid": 1,
         "args": {"name": "spans"}},
    ]
    events.extend(_duration_events(
        roots, children, VIRTUAL_PID, 1,
        start_of=lambda span: span.start_ms * _US_PER_MS,
        end_of=lambda span: span.end_ms * _US_PER_MS,
    ))
    walled = [span for span in finished
              if span.wall_start_s is not None
              and span.wall_end_s is not None]
    if walled:
        origin = min(span.wall_start_s for span in walled)
        wall_roots, wall_children = _tree(walled)
        events.append(
            {"name": "process_name", "ph": "M", "pid": WALL_PID,
             "args": {"name": "wall time (host ms)"}})
        events.append(
            {"name": "thread_name", "ph": "M", "pid": WALL_PID, "tid": 1,
             "args": {"name": "spans"}})
        events.extend(_duration_events(
            wall_roots, wall_children, WALL_PID, 1,
            start_of=lambda span: (span.wall_start_s - origin) * 1e6,
            end_of=lambda span: (span.wall_end_s - origin) * 1e6,
        ))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.export", "spans": len(finished)},
    }


def write_chrome_trace(spans: Iterable[Span], path_or_file) -> None:
    """Serialize :func:`to_chrome_trace` to *path_or_file*."""
    document = to_chrome_trace(spans)
    if hasattr(path_or_file, "write"):
        json.dump(document, path_or_file, sort_keys=True)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)


def to_collapsed_stacks(spans: Iterable[Span],
                        weight: str = "virtual") -> str:
    """Collapsed-stack flamegraph text (``a;b;c <weight>`` lines).

    Weights are *self* microseconds — a span's own duration minus its
    children's — in virtual time by default, or host wall time with
    ``weight="wall"``.  Zero-weight stacks are kept (weight 0) so the
    call structure survives even under a free cost model.
    """
    if weight not in ("virtual", "wall"):
        raise ValueError(f"unknown stack weight {weight!r}")
    finished = _finished(spans)
    roots, children = _tree(finished)
    duration = ((lambda span: span.duration_ms) if weight == "virtual"
                else (lambda span: span.wall_ms))
    totals: Dict[str, float] = {}

    def walk(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        kids = children.get(span.span_id, ())
        self_ms = duration(span) - sum(duration(child) for child in kids)
        totals[path] = totals.get(path, 0.0) + max(self_ms, 0.0)
        for child in kids:
            walk(child, path)

    for root in roots:
        walk(root, "")
    lines = [f"{path} {int(round(total * _US_PER_MS))}"
             for path, total in sorted(totals.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed_stacks(spans: Iterable[Span], path_or_file,
                           weight: str = "virtual") -> None:
    """Serialize :func:`to_collapsed_stacks` to *path_or_file*."""
    text = to_collapsed_stacks(spans, weight=weight)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)
