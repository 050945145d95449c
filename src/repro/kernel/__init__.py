"""Host-kernel substrate: virtual time, statistics, synchronization.

The GMI paper requires the "host" kernel to provide only a simple
synchronization interface (section 2).  This package provides that
interface, plus the virtual clock / cost model used to reproduce the
paper's timing tables on simulated hardware.
"""

from repro.kernel.clock import CostEvent, CostModel, VirtualClock
from repro.obs.metrics import EventCounter
from repro.kernel.sync import HostSync

__all__ = [
    "CostEvent",
    "CostModel",
    "VirtualClock",
    "EventCounter",
    "HostSync",
]
