"""Host-kernel substrate: virtual time, event counts, synchronization.

The GMI paper requires the "host" kernel to provide only a simple
synchronization interface (section 2).  This package provides that
interface, plus the virtual clock / cost model used to reproduce the
paper's timing tables on simulated hardware, and the plain
:class:`Counter` in which the clock and the hardware count their
events.  It sits below observability: nothing here imports
``repro.obs`` (a manager's metrics registry reads these counters).
"""

from repro.kernel.clock import CostEvent, CostModel, VirtualClock
from repro.kernel.counter import Counter
from repro.kernel.sync import HostSync

__all__ = [
    "CostEvent",
    "CostModel",
    "VirtualClock",
    "Counter",
    "HostSync",
]
