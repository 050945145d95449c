"""The staged fault-resolution pipeline.

:class:`FaultPipeline` drives a :class:`~repro.engine.task.FaultTask`
through the backend's stage callables in a fixed order.  The pipeline
owns none of the semantics — those live in the backend's ``stage_*``
methods — but it owns the *shape* of fault resolution, so policy and
performance work (async pageout, sharded caches, parallel fault
handling) plugs into one place instead of one per backend.

Two stage sequences are exported:

* :data:`FAULT_STAGES` — the full pipeline, run for hardware faults;
* :data:`RESOLUTION_STAGES` — ``authorize`` onwards, run when the
  caller already located the target (``region_lock`` pinning a page).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.engine.task import FaultTask
from repro.obs.metrics import series_name

try:  # Protocol is 3.8+; keep a soft fallback for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object

    def runtime_checkable(cls):
        return cls


#: Full pipeline, in execution order.
FAULT_STAGES: Tuple[str, ...] = (
    "locate", "authorize", "resolve", "materialize", "install",
)

#: Partial pipeline for pre-located mapping requests.
RESOLUTION_STAGES: Tuple[str, ...] = FAULT_STAGES[1:]


@runtime_checkable
class VmBackend(Protocol):
    """What a memory manager supplies to drive the pipeline.

    Stage contract (each mutates the task in place):

    * ``stage_locate``      — find the context and region of the
      faulting address; compute the page-aligned ``vaddr`` and the
      segment ``offset``; raise ``SegmentationFault`` on a miss.
    * ``stage_authorize``   — enforce region protection (for real
      faults) and capability protection; compute the effective
      hardware protection; raise ``AccessViolation`` on denial.
    * ``stage_resolve``     — classify how the page will be found:
      own page / ancestor lookup, per-page COW stub, private
      materialization, or the write-resolution path.
    * ``stage_materialize`` — produce the backing real page (private
      copy, zero-fill, pull-in ... whatever the strategy needs).
    * ``stage_install``     — apply COW/guard protection downgrades
      and enter the translation through the hardware layer.
    """

    probe: Any

    def stage_locate(self, task: FaultTask) -> None: ...

    def stage_authorize(self, task: FaultTask) -> None: ...

    def stage_resolve(self, task: FaultTask) -> None: ...

    def stage_materialize(self, task: FaultTask) -> None: ...

    def stage_install(self, task: FaultTask) -> None: ...


class FaultPipeline:
    """Drives tasks through a backend's stages, instrumented.

    Each executed stage increments the always-on counter
    ``engine.stage.<name>`` and, when tracing is enabled, runs inside
    an ``engine.stage.<name>`` span nested under whatever span the
    backend opened (typically ``fault.resolve``).
    """

    def __init__(self, backend: VmBackend, probe: Optional[Any] = None):
        self.backend = backend
        self.probe = probe if probe is not None else backend.probe
        # Bind the stage callables once; backends are classes, so the
        # methods are fixed by construction time.  The labeled series
        # keys (`engine.stage.<name>{backend=...}`) are precomputed so
        # the per-fault hot path never formats label strings: the
        # registry rolls each one up into the plain `engine.stage.<name>`
        # counter every existing consumer reads.
        label = {"backend": getattr(backend, "name",
                                    type(backend).__name__)}
        self._stages = tuple(
            (name, "engine.stage." + name,
             series_name("engine.stage." + name, label),
             getattr(backend, "stage_" + name))
            for name in FAULT_STAGES
        )

    def run(self, task: FaultTask,
            stages: Sequence[str] = FAULT_STAGES) -> FaultTask:
        """Run *task* through *stages* (a subsequence of FAULT_STAGES)."""
        probe = self.probe
        if probe.enabled:
            for name, metric, series, stage in self._stages:
                if name not in stages:
                    continue
                probe.count(series)
                with probe.span(metric) as span:
                    span.set(space=task.space, address=task.address,
                             write=task.write)
                    stage(task)
        elif stages is FAULT_STAGES:
            # Hottest path (every hardware fault): counters only, and
            # the full sequence by identity — no membership tests.
            for name, metric, series, stage in self._stages:
                probe.count(series)
                stage(task)
        else:
            # Hot path: counters only, no span machinery at all.
            for name, metric, series, stage in self._stages:
                if name not in stages:
                    continue
                probe.count(series)
                stage(task)
        return task
