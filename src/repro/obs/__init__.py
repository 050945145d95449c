"""Unified observability: one instrumentation API for the whole kernel.

The paper's evaluation is built entirely on counting mechanism events
(zero-fills, bcopies, pull-ins, faults).  This package is the single
telemetry plane those counts flow through:

* :class:`MetricsRegistry` — named counters, gauges and histograms
  with an atomic ``snapshot()`` / ``reset()`` and a *generation*
  number that lets samplers (``tools.vmstat``) detect resets;
* structured trace :class:`Span`\\ s (``fault.resolve``,
  ``cache.pull_in``, ``cow.materialize``, ``pageout.scan``,
  ``ipc.transfer``, ``dsm.fetch``) with parent/child nesting and
  per-span mechanism-event attribution, emitted to pluggable sinks;
* a :class:`Probe` facade that every component receives instead of
  reaching for its own counter bag.

Every memory manager owns one registry, shared with its virtual clock:
clock charges, TLB statistics, probe counters and span durations all
land in the same place, so ``vm.metrics_snapshot()`` is the uniform
JSON answer to "what did the mechanism do?" for all backends.

Disabled probes are near-free: with the :data:`NULL_SINK` installed
(the default) ``probe.span(...)`` returns one shared no-op object and
allocates nothing per event.
"""

from repro.obs.export import (
    to_chrome_trace, to_collapsed_stacks, write_chrome_trace,
    write_collapsed_stacks,
)
from repro.obs.metrics import MetricsRegistry, series_name, split_series
from repro.obs.pressure import (
    STALL_WINDOWS_MS, PressureBoard, SpaceAccount, StallWindow,
)
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.schema import SNAPSHOT_SCHEMA, validate
from repro.obs.sinks import (
    NULL_SINK, CallbackSink, JsonlSink, NullSink, RingBufferSink, SpanSink,
)
from repro.obs.span import NOOP_SPAN, NoopSpan, Span

__all__ = [
    "MetricsRegistry",
    "series_name",
    "split_series",
    "PressureBoard",
    "SpaceAccount",
    "StallWindow",
    "STALL_WINDOWS_MS",
    "Probe",
    "NULL_PROBE",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "SpanSink",
    "NullSink",
    "NULL_SINK",
    "RingBufferSink",
    "JsonlSink",
    "CallbackSink",
    "SNAPSHOT_SCHEMA",
    "validate",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "write_chrome_trace",
    "write_collapsed_stacks",
]
