"""Hashed inverted page-table MMU port (custom-MMU / T3000 style).

One global hash table keyed by (space, vpn).  Its memory footprint is
proportional to the number of *resident* pages — never to the size of
the virtual address spaces — which is exactly the scaling property
section 4.1 demands of the PVM's own structures.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.hardware.mmu import MMU, Mapping


class InvertedMMU(MMU):
    """Inverted page-table MMU: a single (space, vpn) hash."""

    port_name = "inverted"

    #: A walk is one hash probe, mapped or not.
    walk_stats_mapped = ("hash_probe",)

    def __init__(self, page_size: int, tlb=None):
        super().__init__(page_size, tlb=tlb)
        self._entries: Dict[Tuple[int, int], Mapping] = {}
        # Per-space key index so destroy_space need not scan the world.
        self._by_space: Dict[int, set] = {}

    # -- storage hooks ---------------------------------------------------------

    def _init_space(self, space: int) -> None:
        self._by_space[space] = set()

    def _drop_space(self, space: int) -> None:
        for vpn in self._by_space.pop(space):
            del self._entries[(space, vpn)]

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        self.stats.add("hash_probe")
        return self._entries.get((space, vpn))

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Stat-free probe: one hash lookup, no ``hash_probe`` charge."""
        return self._entries.get((space, vpn))

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        key = (space, vpn)
        if key not in self._entries:
            self._by_space[space].add(vpn)
        self._entries[key] = mapping

    def _del_entry(self, space: int, vpn: int) -> bool:
        key = (space, vpn)
        if key not in self._entries:
            return False
        del self._entries[key]
        self._by_space[space].discard(vpn)
        return True

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        for vpn in self._by_space[space]:
            yield vpn, self._entries[(space, vpn)]

    def _space_size(self, space: int) -> int:
        return len(self._by_space[space])

    # -- introspection -------------------------------------------------------------

    @property
    def resident_entries(self) -> int:
        """Total translations installed across all spaces."""
        return len(self._entries)
