"""A write-back daemon: asynchronous dirty-page cleaning.

Without it, dirty pages are written back only at eviction time (or an
explicit ``sync``), so a burst of evictions pays a burst of pushOuts
at the worst moment — inside the fault path of whoever needed the
frame.  The daemon ages dirty pages and pushes out those dirty for
more than ``age_threshold`` ticks, bounding both the amount of dirty
memory and the eviction-time work.

Driven explicitly (``tick()``) or from a scheduler thread; there is no
hidden concurrency, keeping runs deterministic.  The daemon scans the
shared residency index, so it serves whichever backend owns the cache
engine, and its pushOuts go through :meth:`CacheEngine.push` —
adjacent dirty pages of one segment are cleaned in a single ranged
upcall when the mapper supports it.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.descriptor import RealPageDescriptor
from repro.cache.engine import _dirty_runs


class WritebackDaemon:
    """Ages dirty pages; cleans the old ones in bounded batches."""

    def __init__(self, vm, age_threshold: int = 2,
                 batch_limit: int = 16):
        self.vm = vm
        self.age_threshold = age_threshold
        self.batch_limit = batch_limit
        self._ages: Dict[RealPageDescriptor, int] = {}
        self.ticks = 0
        self.pages_cleaned = 0

    def tick(self) -> int:
        """One aging pass; returns how many pages were cleaned.

        A failed pushOut propagates out of the tick; the pages of the
        failed run stay dirty and are retried on a later tick."""
        self.ticks += 1
        engine = self.vm.cache_engine
        selected = []
        with self.vm.lock:
            seen = set()
            for page in engine.residency.dirty_pages():
                seen.add(page)
                age = self._ages.get(page, 0) + 1
                self._ages[page] = age
                if age >= self.age_threshold \
                        and len(selected) < self.batch_limit:
                    selected.append(page)
            for cache, run_offset, run_size in _dirty_runs(
                    selected, self.vm.page_size):
                pages = run_size // self.vm.page_size
                self.vm.probe.count("writeback.cleaned", pages)
                engine.push(cache, run_offset, run_size, reason="writeback",
                            keep=True)
            for page in selected:
                self._ages.pop(page, None)
            # Forget pages that disappeared (evicted / destroyed) or
            # were cleaned by somebody else.
            for page in [p for p in self._ages if p not in seen]:
                self._ages.pop(page, None)
        self.pages_cleaned += len(selected)
        return len(selected)

    @property
    def dirty_tracked(self) -> int:
        """Dirty pages currently being aged."""
        return len(self._ages)
