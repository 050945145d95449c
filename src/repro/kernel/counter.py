"""Event counts owned by the component that counts them.

The virtual clock, the MMU ports, the TLB and the buses each keep
their counts in a :class:`Counter`.  No registry sits behind it: a
manager's metrics registry reads registered counters only when asked
(snapshot, ``counter_value``), so counting stays exact whether or not
anyone reads, or pauses, the registry.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class Counter:
    """Named integer counts: ``add`` / ``get`` / ``reset`` / ``snapshot``.

    ``add`` is one ``counts[name] += n`` on a ``defaultdict(int)``: a
    subscript read and store with no Python-level call between them,
    so a CPython built with the interpreter lock (3.11 to 3.13
    checked) never switches threads inside it, and concurrent adds
    stay exact without a lock; ``tests/kernel/test_stats_sync.py``
    stresses this.  A zero ``add`` still creates its key, as a
    registry increment does.  ``resets`` counts :meth:`reset` calls,
    so a registry reading this counter can tell samplers their
    baselines went stale.
    """

    __slots__ = ("counts", "resets")

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)
        self.resets = 0

    def add(self, name: str, count: int = 1) -> None:
        """Increment count *name* by *count*."""
        self.counts[name] += count

    def get(self, name: str) -> int:
        """Current value of count *name* (0 if never added)."""
        return self.counts.get(name, 0)

    def reset(self) -> None:
        """Zero every count."""
        self.counts.clear()
        self.resets += 1

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of every count."""
        return dict(self.counts)
