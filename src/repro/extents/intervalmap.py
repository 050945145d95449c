"""Disjoint interval-to-value maps.

An :class:`IntervalMap` stores non-overlapping half-open intervals
``[start, end)``, each carrying an opaque value, in parallel sorted
lists.  Point lookup and overlap queries are binary searches.  It is
the one sorted-range structure of the reproduction: the paper's
per-context sorted region list (section 4.1.1), the per-cache sorted
fragment lists of parent and guard links (section 4.2.4), the
protection caps and the in-flight table are all interval maps.

Adjacent intervals are never coalesced: each interval is a distinct
object (a region, a link).  :meth:`cut` may split an interval; the
piece that no longer starts where its interval did carries
``value.shifted(delta)``, the value re-based by the *delta* its start
moved (a link's target offset moves with it).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, List, Optional, Tuple


class IntervalMap:
    """Sorted, disjoint ``[start, end) -> value`` intervals."""

    __slots__ = ("_starts", "_ends", "_values")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._values: List[Any] = []

    # -- mutation ----------------------------------------------------------------

    def add(self, start: int, end: int, value: Any) -> None:
        """Insert ``[start, end) -> value``; overlap is an error."""
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        index = bisect_left(self._starts, start)
        if index > 0 and self._ends[index - 1] > start:
            raise ValueError(
                f"[{start}, {end}) overlaps "
                f"[{self._starts[index - 1]}, {self._ends[index - 1]})")
        if index < len(self._starts) and self._starts[index] < end:
            raise ValueError(
                f"[{start}, {end}) overlaps "
                f"[{self._starts[index]}, {self._ends[index]})")
        self._starts.insert(index, start)
        self._ends.insert(index, end)
        self._values.insert(index, value)

    def remove(self, start: int) -> Any:
        """Remove (and return the value of) the interval starting
        exactly at *start*; KeyError when none does."""
        index = self._exact(start)
        del self._starts[index]
        del self._ends[index]
        return self._values.pop(index)

    def set_end(self, start: int, new_end: int) -> None:
        """Resize the interval starting at *start* to ``[start,
        new_end)``.  Growing into a neighbour is an error."""
        index = self._exact(start)
        if new_end <= start:
            raise ValueError(f"empty interval [{start}, {new_end})")
        if index + 1 < len(self._starts) and \
                self._starts[index + 1] < new_end:
            raise ValueError(
                f"resize to [{start}, {new_end}) overlaps "
                f"[{self._starts[index + 1]}, {self._ends[index + 1]})")
        self._ends[index] = new_end

    def cut(self, start: int, end: int) -> List[Tuple[int, int, Any]]:
        """Remove all coverage of ``[start, end)``, splitting intervals
        that straddle either bound; return the removed pieces as
        ``(start, end, value)`` triples, in order.  A piece starting
        *delta* past its interval's start carries
        ``value.shifted(delta)``, in the result or in the map."""
        if end <= start:
            return []
        starts, ends, values = self._starts, self._ends, self._values
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        if lo >= hi:
            return []
        removed = []
        for k in range(lo, hi):
            piece_start = max(starts[k], start)
            removed.append((piece_start, min(ends[k], end),
                            _shifted(values[k], piece_start - starts[k])))
        keep: List[Tuple[int, int, Any]] = []
        if starts[lo] < start:
            keep.append((starts[lo], start, values[lo]))
        if ends[hi - 1] > end:
            keep.append((end, ends[hi - 1],
                         _shifted(values[hi - 1], end - starts[hi - 1])))
        starts[lo:hi] = [piece[0] for piece in keep]
        ends[lo:hi] = [piece[1] for piece in keep]
        values[lo:hi] = [piece[2] for piece in keep]
        return removed

    def retain(self, keep: Callable[[Any], bool]) -> int:
        """Drop every interval whose value fails *keep*; return how
        many were dropped."""
        kept = [k for k, value in enumerate(self._values) if keep(value)]
        dropped = len(self._values) - len(kept)
        if dropped:
            self._starts[:] = [self._starts[k] for k in kept]
            self._ends[:] = [self._ends[k] for k in kept]
            self._values[:] = [self._values[k] for k in kept]
        return dropped

    def clear(self) -> None:
        """Remove every interval."""
        del self._starts[:]
        del self._ends[:]
        del self._values[:]

    def _exact(self, start: int) -> int:
        index = bisect_left(self._starts, start)
        if index >= len(self._starts) or self._starts[index] != start:
            raise KeyError(f"no interval starts at {start}")
        return index

    # -- queries -----------------------------------------------------------------

    def get(self, point: int, default: Any = None) -> Any:
        """Value of the interval containing *point*, else *default*."""
        index = bisect_right(self._starts, point) - 1
        if index >= 0 and point < self._ends[index]:
            return self._values[index]
        return default

    def interval_at(self, point: int) -> Optional[Tuple[int, int, Any]]:
        """The ``(start, end, value)`` triple covering *point*, if any."""
        index = bisect_right(self._starts, point) - 1
        if index >= 0 and point < self._ends[index]:
            return (self._starts[index], self._ends[index],
                    self._values[index])
        return None

    def overlapping(self, start: int, end: int) -> List[Tuple[int, int, Any]]:
        """All intervals intersecting ``[start, end)``, in order."""
        if end <= start:
            return []
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end)
        return [(self._starts[k], self._ends[k], self._values[k])
                for k in range(lo, hi)]

    def items(self) -> List[Tuple[int, int, Any]]:
        """All ``(start, end, value)`` triples, in address order."""
        return list(zip(self._starts, self._ends, self._values))

    def values(self) -> List[Any]:
        """All values, in address order."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __repr__(self) -> str:
        return f"IntervalMap({len(self._starts)} intervals)"


def _shifted(value: Any, delta: int) -> Any:
    return value.shifted(delta) if delta else value
