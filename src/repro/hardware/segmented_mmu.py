"""Segment-paged MMU port (iAPX 386 style).

Section 5.2: "Implementations of GMI for segmented (iAPX 286) and
paged-segmented (iAPX 386) architectures are under development."  This
port models the 386's two-stage translation: a virtual address first
selects a *segment descriptor* (base-bounded windows of a linear
space), then the linear address walks a page table.  The PVM neither
knows nor cares: it programs the same abstract map/unmap/protect
interface, and this port synthesizes one flat-model segment per
address space (exactly how 32-bit OSes actually used the 386) while
still enforcing the limit check — so descriptor faults are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import InvalidOperation, PageFault
from repro.hardware.mmu import MMU, Mapping

#: Entries per page table (the 386 used 10+10+12 bits on 4K pages; we
#: keep the two-level split but adapt to the simulated page size).
TABLE_BITS = 10
TABLE_SIZE = 1 << TABLE_BITS
TABLE_MASK = TABLE_SIZE - 1

#: Default segment limit: a 4 GB flat code/data segment per space.
FLAT_LIMIT = 1 << 32


@dataclass
class SegmentDescriptor:
    """One descriptor-table entry: a base-bounded linear window."""

    base: int
    limit: int

    def check(self, vaddr: int) -> int:
        """Limit check, then segmentation: returns the linear address."""
        if vaddr >= self.limit:
            raise PageFault(vaddr, False,
                            f"segment limit violation at {vaddr:#x}")
        return self.base + vaddr


class SegmentedMMU(MMU):
    """Two-stage translation: descriptor check + page-table walk."""

    port_name = "segmented"

    #: A walk of a mapped vpn charges the descriptor check and the
    #: page-table lookup: mapped implies within limit with a live
    #: second-level table.
    walk_stats_mapped = ("descriptor_check", "page_walk")

    def __init__(self, page_size: int, tlb=None,
                 segment_limit: int = FLAT_LIMIT):
        super().__init__(page_size, tlb=tlb)
        self.segment_limit = segment_limit
        #: space -> descriptor (one flat segment per space).
        self._descriptors: Dict[int, SegmentDescriptor] = {}
        #: space -> directory -> table -> Mapping (on linear VPNs).
        self._directories: Dict[int, Dict[int, Dict[int, Mapping]]] = {}
        #: space -> resident translations, so _space_size is O(1).
        self._resident: Dict[int, int] = {}

    # -- storage hooks ---------------------------------------------------------

    def _init_space(self, space: int) -> None:
        # Give each space a distinct linear base, so bugs that confuse
        # linear and virtual addresses cannot hide.
        base = space * (self.segment_limit // 1024 or self.page_size)
        base -= base % self.page_size
        self._descriptors[space] = SegmentDescriptor(
            base=base, limit=self.segment_limit)
        self._directories[space] = {}
        self._resident[space] = 0

    def _drop_space(self, space: int) -> None:
        del self._descriptors[space]
        del self._directories[space]
        del self._resident[space]

    def _linear_vpn(self, space: int, vpn: int) -> int:
        descriptor = self._descriptors[space]
        self.stats.add("descriptor_check")
        # The limit check happens per access in translate(); here we
        # only relocate the page number into the linear space.
        return (descriptor.base >> self._page_shift) + vpn

    def _split(self, lvpn: int) -> Tuple[int, int]:
        return lvpn >> TABLE_BITS, lvpn & TABLE_MASK

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        if vpn << self._page_shift >= self._descriptors[space].limit:
            return None
        hi, lo = self._split(self._linear_vpn(space, vpn))
        table = self._directories[space].get(hi)
        if table is None:
            return None
        self.stats.add("page_walk")
        return table.get(lo)

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Stat-free probe: limit check and directory lookup without
        the ``descriptor_check`` / ``page_walk`` charges."""
        descriptor = self._descriptors[space]
        if vpn << self._page_shift >= descriptor.limit:
            return None
        lvpn = (descriptor.base >> self._page_shift) + vpn
        table = self._directories[space].get(lvpn >> TABLE_BITS)
        if table is None:
            return None
        return table.get(lvpn & TABLE_MASK)

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        if vpn << self._page_shift >= self._descriptors[space].limit:
            raise InvalidOperation(
                f"virtual page {vpn:#x} beyond the segment limit "
                f"({self._descriptors[space].limit:#x})"
            )
        hi, lo = self._split(self._linear_vpn(space, vpn))
        directory = self._directories[space]
        table = directory.get(hi)
        if table is None:
            table = directory[hi] = {}
            self.stats.add("table_alloc")
        if lo not in table:
            self._resident[space] += 1
        table[lo] = mapping

    def _del_entry(self, space: int, vpn: int) -> bool:
        hi, lo = self._split(self._linear_vpn(space, vpn))
        table = self._directories[space].get(hi)
        if table is None or lo not in table:
            return False
        del table[lo]
        self._resident[space] -= 1
        if not table:
            del self._directories[space][hi]
        return True

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        base_vpn = self._descriptors[space].base >> self._page_shift
        for hi, table in self._directories[space].items():
            for lo, mapping in table.items():
                yield ((hi << TABLE_BITS) | lo) - base_vpn, mapping

    def _space_size(self, space: int) -> int:
        return self._resident[space]

    # -- introspection --------------------------------------------------------------

    def descriptor_of(self, space: int) -> SegmentDescriptor:
        """The flat segment descriptor of *space*."""
        return self._descriptors[space]

    def set_segment_limit(self, space: int, limit: int) -> None:
        """Shrink/grow a space's flat segment (tests the limit check)."""
        self._descriptors[space].limit = limit
