"""The backend-agnostic fault-resolution engine.

The paper layers the PVM into a large hardware-independent part and a
small hardware-dependent one (section 4); this package factors the
*hardware-independent* fault path itself into an explicit staged
pipeline shared by every GMI backend:

``locate -> authorize -> resolve -> materialize -> install``

A :class:`FaultTask` flows through the stages; each backend (the PVM,
the Mach-style shadow baseline, the minimal real-time manager) is a
:class:`VmBackend`: it supplies the stage callables instead of
copy-pasting a monolithic fault handler.  The engine imports **no**
backend and **no** hardware module — the layer-contract test
(tests/test_layer_contract.py) enforces this.

Every stage is wired through the observability probe: an
``engine.stage.<name>`` counter always, and an ``engine.stage.<name>``
trace span when a sink is attached.
"""

from repro.engine.admission import AdmissionGate
from repro.engine.inflight import InFlightEntry, InFlightTable
from repro.engine.io import IoScheduler
from repro.engine.pipeline import (
    FAULT_STAGES, RESOLUTION_STAGES, FaultPipeline, VmBackend,
)
from repro.engine.task import FaultTask

__all__ = [
    "AdmissionGate",
    "FAULT_STAGES",
    "InFlightEntry",
    "InFlightTable",
    "IoScheduler",
    "RESOLUTION_STAGES",
    "FaultPipeline",
    "FaultTask",
    "VmBackend",
]
