"""The metrics registry: named counters, gauges and histograms.

One registry per memory manager; the virtual clock, the TLB, the
probe and the reporting tools all read and write the same instance.
Counters are plain integers in a dict (the cheapest thing Python can
increment under a lock); histograms keep a bounded sample plus exact
count/sum/min/max, so percentiles stay available without unbounded
memory growth.

Metrics may carry **label dimensions**: ``inc("fault.write",
labels={"backend": "pvm"})`` (or the precomputed series key
``"fault.write{backend=pvm}"``) maintains two series — the labeled
``name{k=v,...}`` breakdown *and* the plain-name rollup — so every
consumer that predates labels (vmstat columns, snapshot schemas,
``counter_value``) keeps reading the aggregate it always read, while
new consumers can decompose the same cost by backend, MMU port,
pipeline stage or segment.

An :class:`EventCounter` is a component's namespaced view of a
registry: the clock, the MMU ports, the TLB and the buses count their
events through one.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple


def series_name(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """The storage key of a labeled series: ``name{k=v,...}``.

    Label keys are sorted so the same label set always produces the
    same series, whatever order the call site wrote it in.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_series(series: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_name`: ``(base name, labels dict)``.

    Plain names come back with an empty labels dict.
    """
    if "{" not in series:
        return series, {}
    base, _, raw = series.partition("{")
    raw = raw.rstrip("}")
    labels: Dict[str, str] = {}
    for pair in raw.split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels


class Histogram:
    """A latency/depth distribution: exact moments, sampled quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_sample",
                 "_sample_limit")

    def __init__(self, name: str, sample_limit: int = 8192):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._sample: List[float] = []
        self._sample_limit = sample_limit

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._sample) < self._sample_limit:
            self._sample.append(value)
        else:
            # Deterministic decimating reservoir: overwrite round-robin,
            # keeping the sample representative without randomness.
            self._sample[self.count % self._sample_limit] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0 <= q <= 100) over the kept sample.

        An empty histogram answers 0.0 for any *q*.  The extremes are
        answered from the exact running min/max, not the bounded
        sample, so ``percentile(0)`` / ``percentile(100)`` stay correct
        even after the reservoir started decimating observations.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q!r} outside [0, 100]")
        if not self._sample:
            return 0.0
        if q == 0.0:
            return self.min if self.min is not None else self._sample[0]
        if q == 100.0:
            return self.max if self.max is not None else self._sample[0]
        ordered = sorted(self._sample)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def summary(self) -> Dict[str, float]:
        """The JSON-friendly digest used by ``MetricsRegistry.snapshot``."""
        return {
            "count": self.count,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3f})"


class MetricsRegistry:
    """A thread-safe bag of named counters, gauges and histograms.

    The *generation* number increments on every (partial or full)
    counter reset; interval samplers compare generations to detect that
    their baseline went stale (the ``VmStat`` resampling contract).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: series key -> base name, filled lazily so hot paths passing
        #: a precomputed ``name{k=v}`` key never re-split the string.
        self._series_base: Dict[str, str] = {}
        self.generation = 0
        #: When False the write paths (inc / set_gauge / observe)
        #: return after a single attribute check: the idle fast path.
        #: Every counter an event-heavy run would have produced is
        #: simply absent, so pause a registry only around code whose
        #: metrics nobody will read (``perf/``'s overhead measurement
        #: pauses one side of each pair).  Pausing changes no policy:
        #: the pressure board keeps its ledgers either way.
        self.enabled = True

    def _base_of(self, name: str) -> Optional[str]:
        """Base (rollup) name of a labeled series key, None when plain."""
        if "{" not in name:
            return None
        base = self._series_base.get(name)
        if base is None:
            base = self._series_base[name] = name.partition("{")[0]
        return base

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, count: int = 1,
            labels: Optional[Mapping[str, object]] = None) -> None:
        """Increment counter *name* by *count*.

        With *labels* (or a precomputed ``name{k=v,...}`` series key),
        both the labeled series and the plain-name rollup advance, so
        aggregate consumers are unaffected by the decomposition.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        with self._lock:
            counters = self._counters
            counters[name] = counters.get(name, 0) + count
            base = self._base_of(name)
            if base is not None:
                counters[base] = counters.get(base, 0) + count

    def counter_value(self, name: str,
                      labels: Optional[Mapping[str, object]] = None) -> int:
        """Current value of counter *name* (0 if never incremented).

        A plain *name* reads the rollup (every labeled increment is
        included); pass *labels* or a series key for one breakdown.
        """
        if labels:
            name = series_name(name, labels)
        with self._lock:
            return self._counters.get(name, 0)

    def counter_values(self) -> Dict[str, int]:
        """A copy of every counter (labeled series included)."""
        with self._lock:
            return dict(self._counters)

    def labeled_counters(self, name: str) -> Dict[str, int]:
        """Every labeled series of counter *name*, keyed by series."""
        prefix = name + "{"
        with self._lock:
            return {
                key: value for key, value in self._counters.items()
                if key.startswith(prefix)
            }

    def drop_counters(self, names: Iterable[str]) -> None:
        """Remove the given counters entirely (a scoped reset).

        A plain name takes its labeled series with it; dropping one
        labeled series subtracts its value from the rollup, so the
        rollup stays the sum of what remains.  Dropped series leave the
        series-base cache too, so short-lived labels (a destroyed
        space's ledger) do not accumulate there.  Bumps the generation
        so samplers resample their baselines.
        """
        series_base = self._series_base
        with self._lock:
            for name in names:
                base = self._base_of(name)
                if base is not None:
                    # One labeled series: keep the rollup consistent.
                    series_base.pop(name, None)
                    dropped = self._counters.pop(name, 0)
                    if dropped and base in self._counters:
                        remaining = self._counters[base] - dropped
                        if remaining > 0:
                            self._counters[base] = remaining
                        else:
                            self._counters.pop(base, None)
                    continue
                self._counters.pop(name, None)
                prefix = name + "{"
                for key in [key for key in self._counters
                            if key.startswith(prefix)]:
                    del self._counters[key]
                    series_base.pop(key, None)
            self.generation += 1

    # -- gauges -------------------------------------------------------------

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, object]] = None) -> None:
        """Set gauge *name* to *value* (last write wins).

        A labeled gauge has no meaningful rollup (last-write-wins does
        not aggregate), so only the labeled series is written.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0.0,
                    labels: Optional[Mapping[str, object]] = None) -> float:
        """Current value of gauge *name*."""
        if labels:
            name = series_name(name, labels)
        with self._lock:
            return self._gauges.get(name, default)

    def labeled_gauges(self, name: str) -> Dict[str, float]:
        """Every labeled series of gauge *name*, keyed by series."""
        prefix = name + "{"
        with self._lock:
            return {
                key: value for key, value in self._gauges.items()
                if key.startswith(prefix)
            }

    def drop_gauges(self, names: Iterable[str]) -> None:
        """Remove the given gauges (a plain name takes its labeled
        series with it).  Gauges have no rollups to adjust and no
        samplers tracking them, so the generation does not move."""
        with self._lock:
            for name in names:
                self._gauges.pop(name, None)
                if "{" in name:
                    continue
                prefix = name + "{"
                for key in [key for key in self._gauges
                            if key.startswith(prefix)]:
                    del self._gauges[key]

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, object]] = None) -> None:
        """Record one observation into histogram *name*.

        With *labels* the observation lands in both the labeled series
        and the plain-name rollup histogram.
        """
        if not self.enabled:
            return
        if labels:
            name = series_name(name, labels)
        with self._lock:
            histograms = self._histograms
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = Histogram(name)
            histogram.observe(value)
            base = self._base_of(name)
            if base is not None:
                rollup = histograms.get(base)
                if rollup is None:
                    rollup = histograms[base] = Histogram(base)
                rollup.observe(value)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None) -> Histogram:
        """The histogram named *name* (created empty if absent)."""
        if labels:
            name = series_name(name, labels)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            return histogram

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Clear every metric; bump the generation."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series_base.clear()
            self.generation += 1

    def snapshot(self) -> Dict[str, object]:
        """One atomic, JSON-serializable copy of everything."""
        with self._lock:
            return {
                "generation": self.generation,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.summary()
                    for name, histogram in self._histograms.items()
                },
            }

    def __repr__(self) -> str:
        with self._lock:
            return (f"MetricsRegistry({len(self._counters)} counters, "
                    f"{len(self._gauges)} gauges, "
                    f"{len(self._histograms)} histograms, "
                    f"gen={self.generation})")


class EventCounter:
    """A bag of named integer counters: a namespaced registry view.

    Each instance is a *namespaced view* of a registry: counters it
    creates are remembered, and ``snapshot()`` / ``reset()`` touch only
    those, so several components (clock events, TLB statistics, probe
    counters) can share one registry without clobbering each other.

    A view may also carry fixed *labels* (an MMU port's
    ``{"port": "paged"}``): every counter it touches becomes a labeled
    ``name{k=v}`` series, and the registry maintains the plain-name
    rollup automatically, so one shared registry can hold the same
    statistic decomposed across several components.

    Constructed bare (``EventCounter()``) it owns a private registry
    and behaves exactly like the original stand-alone counter bag.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 namespace: str = "",
                 labels: Optional[Mapping[str, object]] = None):
        self.registry = registry or MetricsRegistry()
        self.namespace = namespace
        self.labels = dict(labels) if labels else None
        #: ``name{labels}`` suffix appended to every counter name.
        self._suffix = series_name("", self.labels) if self.labels else ""
        #: fully-qualified names this view has incremented.
        self._owned: Set[str] = set()
        #: short-name -> fully-qualified name memo; the add() hot path
        #: (every clock charge goes through it) pays one dict get
        #: instead of two string concatenations per call.
        self._full_names: Dict[str, str] = {}

    def _full(self, name: str) -> str:
        return self.namespace + name + self._suffix

    def add(self, name: str, count: int = 1) -> None:
        """Increment counter *name* by *count*."""
        full = self._full_names.get(name)
        if full is None:
            full = self._full_names[name] = self._full(name)
            self._owned.add(full)
        self.registry.inc(full, count)

    def get(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self.registry.counter_value(self._full(name))

    def reset(self) -> None:
        """Zero every counter of this view (others in the shared
        registry are untouched); bumps the registry generation."""
        self.registry.drop_counters(self._owned)
        self._owned.clear()
        self._full_names.clear()

    def snapshot(self) -> Dict[str, int]:
        """A copy of this view's counters, namespace stripped."""
        values = self.registry.counter_values()
        prefix = len(self.namespace)
        return {
            name[prefix:]: values[name]
            for name in self._owned if name in values
        }

    def rebind(self, registry: MetricsRegistry) -> None:
        """Move this view's counters into another registry.

        Used when a component built before its manager (e.g. a TLB
        handed to the constructor) is adopted into the manager's shared
        registry: accumulated counts migrate so nothing is lost.
        """
        if registry is self.registry:
            return
        values = self.registry.counter_values()
        self.registry.drop_counters(self._owned)
        for name in self._owned:
            if name in values and values[name]:
                registry.inc(name, values[name])
        self.registry = registry

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self.snapshot().items() if v}
        return f"EventCounter({nonzero!r})"
