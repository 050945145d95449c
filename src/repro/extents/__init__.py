"""Extent primitives: interval maps and translation runs.

Per-page bookkeeping is the structural bottleneck of a conventional
VM implementation: a million-page mapping held as a million dict
entries costs a million times more memory — and a million times more
python — than the single ``(start, length)`` fact it encodes.  This
package provides the two pure data structures the rest of the stack
uses to store address-space state in extent (run) form:

* :class:`~repro.extents.intervalmap.IntervalMap` — disjoint
  ``[start, end) -> value`` intervals: the context's region map, a
  cache's parent, guard and protection-cap fragment lists, and the
  in-flight table;
* :class:`~repro.extents.runmap.RunMap` — ``key -> (base + offset,
  value)`` translation runs with frame arithmetic (the paged MMU's
  page table: one entry per contiguous vpn->pfn run of uniform
  protection).

The package is a *leaf* of the layer stack: it may import nothing
from the backends, the hardware or the cache subsystem (layer-contract
rule 5, enforced by ``repro.tools.check_layers``), so every layer —
including ``repro.cache`` and ``repro.hardware``, which may not import
each other — can share it.
"""

from repro.extents.intervalmap import IntervalMap
from repro.extents.runmap import RunMap

__all__ = ["IntervalMap", "RunMap"]
