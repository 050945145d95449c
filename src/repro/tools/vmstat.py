"""vmstat-style interval statistics for a memory manager.

Sample the VM between phases of a workload and print rate tables —
faults, pull-ins, push-outs, copies — per sampling interval.

Since the observability redesign this reads the manager's shared
:class:`~repro.obs.metrics.MetricsRegistry` (the same store the clock
charges into) instead of wrapping the clock itself, and it honours
resets: when the underlying counters are reset (``clock.reset()`` or
``registry.reset()``) the registry's *generation* changes and the
sampler resamples its baseline instead of reporting stale negative
deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.kernel.clock import CostEvent

#: The columns a classic vmstat would show, mapped to our events.
COLUMNS = (
    ("faults", CostEvent.FAULT_DISPATCH),
    ("zerofill", CostEvent.BZERO_PAGE),
    ("copies", CostEvent.BCOPY_PAGE),
    ("pullin", CostEvent.PULL_IN),
    ("pushout", CostEvent.PUSH_OUT),
    ("alloc", CostEvent.FRAME_ALLOC),
    ("free", CostEvent.FRAME_FREE),
    ("protect", CostEvent.PAGE_PROTECT),
)


@dataclass
class Sample:
    """One vmstat interval: deltas since the previous sample."""
    label: str
    time_ms: float
    resident: int
    free_frames: int
    deltas: Dict[str, int] = field(default_factory=dict)


class VmStat:
    """Interval sampler over one VM's metrics registry."""

    def __init__(self, vm):
        self.vm = vm
        self.registry = vm.registry
        self.samples: List[Sample] = []
        self._generation = self.registry.generation
        self._last_counts = self.registry.counter_values()
        self._last_time = vm.clock.now()

    def _resample_after_reset(self) -> None:
        """When the counters were reset since the last sample, the old
        baseline is meaningless: restart from the post-reset zero state."""
        if self.registry.generation == self._generation:
            return
        self._generation = self.registry.generation
        self._last_counts = {}
        now = self.vm.clock.now()
        if now < self._last_time:
            # The clock was reset too; deltas restart from zero.
            self._last_time = 0.0

    def sample(self, label: str = "") -> Sample:
        """Record the activity since the previous sample."""
        self._resample_after_reset()
        counts = self.registry.counter_values()
        deltas = {
            name: counts.get(event.value, 0)
            - self._last_counts.get(event.value, 0)
            for name, event in COLUMNS
        }
        record = Sample(
            label=label,
            time_ms=self.vm.clock.now() - self._last_time,
            resident=self.vm.resident_page_count,
            free_frames=self.vm.memory.free_frames,
            deltas=deltas,
        )
        self.samples.append(record)
        self._last_counts = counts
        self._last_time = self.vm.clock.now()
        self._generation = self.registry.generation
        return record

    def format(self) -> str:
        """The classic column dump, one row per sample."""
        names = [name for name, _ in COLUMNS]
        header = (f"{'label':>12} {'ms':>9} {'res':>5} {'freefr':>6} "
                  + " ".join(f"{name:>8}" for name in names))
        lines = [header]
        for sample in self.samples:
            lines.append(
                f"{sample.label[:12]:>12} {sample.time_ms:9.2f} "
                f"{sample.resident:5d} {sample.free_frames:6d} "
                + " ".join(f"{sample.deltas[name]:8d}" for name in names))
        return "\n".join(lines)
