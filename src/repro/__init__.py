"""Reproduction of "Generic Virtual Memory Management for Operating
System Kernels" (Abrossimov, Rozier, Shapiro — SOSP 1989).

Curated public API.  The usual entry points:

* :class:`repro.PagedVirtualMemory` — the PVM (history objects,
  per-virtual-page COW) behind the GMI;
* :class:`repro.Nucleus` — a full Chorus site (segment manager, IPC,
  actors, the rgn* operations) over any GMI memory manager;
* :mod:`repro.mix` — Unix process semantics (fork/exec/exit) on top;
* :mod:`repro.bench` — the calibrated harness regenerating the paper's
  tables.

See README.md for a tour and DESIGN.md for the system inventory.
"""

from repro.gmi.interface import Cache, Context, CopyPolicy, MemoryManager, Region
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider, ZeroFillProvider
from repro.kernel.clock import CostEvent, CostModel, VirtualClock
from repro.mach.eager import EagerVirtualMemory
from repro.mach.mach_vm import MachVirtualMemory
from repro.minimal.minimal_vm import RealTimeVirtualMemory
from repro.nucleus.nucleus import Nucleus
from repro.pvm.pvm import PagedVirtualMemory

__version__ = "1.0.0"

__all__ = [
    "Cache",
    "Context",
    "Region",
    "MemoryManager",
    "CopyPolicy",
    "AccessMode",
    "Protection",
    "SegmentProvider",
    "ZeroFillProvider",
    "CostEvent",
    "CostModel",
    "VirtualClock",
    "PagedVirtualMemory",
    "MachVirtualMemory",
    "EagerVirtualMemory",
    "RealTimeVirtualMemory",
    "Nucleus",
]
