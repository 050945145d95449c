"""Sorted, non-overlapping fragment lists with per-fragment payloads.

Section 4.2.4: to copy into an existing segment, "the 'parent'
attribute of a cache descriptor is in fact a list of parent
descriptors.  Each such descriptor holds the start offset and size of
a fragment, and a pointer to the parent local-cache descriptor.  The
list is sorted by this offset."  This module provides that structure,
used both for parent links (copy destinations) and for guard links
(copy sources pointing at their history objects).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Generic, Iterator, List, Optional, TypeVar

from repro.errors import InvalidOperation

P = TypeVar("P")


@dataclass
class Fragment(Generic[P]):
    """One [offset, offset+size) fragment carrying a payload."""

    offset: int
    size: int
    payload: P

    @property
    def end(self) -> int:
        """One past the fragment's last byte."""
        return self.offset + self.size

    def contains(self, offset: int) -> bool:
        """True when *offset* falls inside the fragment."""
        return self.offset <= offset < self.end

    def overlaps(self, offset: int, size: int) -> bool:
        """True when [offset, offset+size) intersects the fragment."""
        return offset < self.end and self.offset < offset + size


class FragmentList(Generic[P]):
    """Sorted list of non-overlapping fragments.

    Payloads must expose a ``shifted(delta)`` method (returning the
    payload adjusted for a fragment whose start moved by *delta*
    bytes) for :meth:`remove_range` to split partially-overlapping
    fragments correctly; payloads without it can only be used when
    splits never happen.
    """

    def __init__(self):
        self._fragments: List[Fragment[P]] = []

    def __len__(self) -> int:
        return len(self._fragments)

    def __iter__(self) -> Iterator[Fragment[P]]:
        return iter(self._fragments)

    def __bool__(self) -> bool:
        return bool(self._fragments)

    def _offsets(self) -> List[int]:
        return [fragment.offset for fragment in self._fragments]

    def insert(self, offset: int, size: int, payload: P) -> Fragment[P]:
        """Insert a fragment; it must not overlap an existing one."""
        if size <= 0:
            raise InvalidOperation("fragment size must be positive")
        index = bisect.bisect_right(self._offsets(), offset)
        if index > 0 and self._fragments[index - 1].overlaps(offset, size):
            raise InvalidOperation("fragment overlaps predecessor")
        if index < len(self._fragments) and \
                self._fragments[index].overlaps(offset, size):
            raise InvalidOperation("fragment overlaps successor")
        fragment = Fragment(offset, size, payload)
        self._fragments.insert(index, fragment)
        return fragment

    def find(self, offset: int) -> Optional[Fragment[P]]:
        """Fragment containing *offset*, or None."""
        index = bisect.bisect_right(self._offsets(), offset) - 1
        if index >= 0 and self._fragments[index].contains(offset):
            return self._fragments[index]
        return None

    def overlapping(self, offset: int, size: int) -> List[Fragment[P]]:
        """All fragments intersecting [offset, offset+size)."""
        return [f for f in self._fragments if f.overlaps(offset, size)]

    def remove_range(self, offset: int, size: int) -> List[Fragment[P]]:
        """Delete coverage of [offset, offset+size), splitting edges.

        Returns the removed (sub)fragments, with payloads shifted to
        match their new start offsets.
        """
        removed: List[Fragment[P]] = []
        kept: List[Fragment[P]] = []
        end = offset + size
        for fragment in self._fragments:
            if not fragment.overlaps(offset, size):
                kept.append(fragment)
                continue
            cut_start = max(fragment.offset, offset)
            cut_end = min(fragment.end, end)
            removed.append(Fragment(
                cut_start, cut_end - cut_start,
                self._shift(fragment.payload, cut_start - fragment.offset),
            ))
            if fragment.offset < cut_start:
                kept.append(Fragment(
                    fragment.offset, cut_start - fragment.offset,
                    fragment.payload,
                ))
            if cut_end < fragment.end:
                kept.append(Fragment(
                    cut_end, fragment.end - cut_end,
                    self._shift(fragment.payload, cut_end - fragment.offset),
                ))
        kept.sort(key=lambda f: f.offset)
        self._fragments = kept
        return removed

    @staticmethod
    def _shift(payload: P, delta: int) -> P:
        if delta == 0:
            return payload
        shifted = getattr(payload, "shifted", None)
        if shifted is None:
            raise InvalidOperation(
                "fragment split requires payloads with a shifted() method"
            )
        return shifted(delta)

    def replace_payloads(self, old: P, new_factory) -> int:
        """Replace every payload equal to *old* using ``new_factory(fragment)``.

        Returns the number of fragments rewritten.  Used when a working
        object is spliced into a history tree and existing links must
        be retargeted.
        """
        count = 0
        for fragment in self._fragments:
            if fragment.payload == old:
                fragment.payload = new_factory(fragment)
                count += 1
        return count

    def remove_if(self, predicate) -> int:
        """Drop whole fragments whose payload satisfies *predicate*;
        return how many were removed."""
        before = len(self._fragments)
        self._fragments = [
            fragment for fragment in self._fragments
            if not predicate(fragment.payload)
        ]
        return before - len(self._fragments)

    def clear(self) -> None:
        """Drop every fragment."""
        self._fragments.clear()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{f.offset:#x}+{f.size:#x}]" for f in self._fragments
        )
        return f"FragmentList({parts})"
