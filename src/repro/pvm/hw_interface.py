"""The PVM's machine-dependent layer.

"The PVM is layered into a hardware-independent layer (the PVM proper)
and a (much smaller) hardware-dependent one, separated by a
hardware-independent interface" (section 4).  This module is that
hardware-dependent layer for the simulated MMUs: it is the only PVM
code that talks to an :class:`~repro.hardware.mmu.MMU`, and it keeps
the pmap-style reverse bookkeeping (which (space, vaddr) pairs map
each real page) needed for shootdowns on eviction, protection changes
and copy operations.

It is also the machine-independent layer's *only* window onto
``repro.hardware``: the names re-exported below and the ``build_*``
factories are everything the PVM proper (and the Mach-style and
minimal backends built on it) may use.  A tier-1 layer-contract test
(``tests/test_layer_contract.py``) fails the build if any other module
under ``repro.pvm`` / ``repro.mach`` / ``repro.minimal`` imports
``repro.hardware`` directly.

Bulk operations (space teardown, region invalidation, shootdown,
copy-on-write downgrade) go through the MMU's batch primitives with a
per-space mapping index, so tearing one space down never scans another
space's translations — while the virtual-clock charges stay strictly
per page, keeping the paper's cost accounting intact.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.hardware.bus import MemoryBus
from repro.hardware.mmu import MMU, FaultRecord, Prot
from repro.hardware.paged_mmu import PagedMMU
from repro.hardware.physmem import PhysicalMemory
from repro.hardware.tlb import TLB
from repro.kernel.clock import CostEvent, VirtualClock
from repro.pvm.page import RealPageDescriptor

__all__ = [
    "MMU", "FaultRecord", "Prot", "PhysicalMemory", "HardwareLayer",
    "build_physical_memory", "build_mmu", "build_bus",
]


# -- hardware factories (the MI layer never names a concrete port) ----------------

def build_physical_memory(memory_size: int, page_size: int) -> PhysicalMemory:
    """Construct the simulated physical memory."""
    return PhysicalMemory(memory_size, page_size)


def build_mmu(page_size: int, tlb_entries: Optional[int] = None) -> MMU:
    """Construct the default MMU port (two-level page tables), with an
    optional TLB."""
    return PagedMMU(page_size, tlb=TLB(tlb_entries) if tlb_entries else None)


def build_bus(memory: PhysicalMemory, mmu: MMU, fault_handler) -> MemoryBus:
    """Construct the memory bus that retries accesses through
    *fault_handler*."""
    return MemoryBus(memory, mmu, fault_handler)


class HardwareLayer:
    """Machine-dependent PVM half: translation maintenance + shootdown."""

    def __init__(self, mmu: MMU, clock: VirtualClock):
        self.mmu = mmu
        self.clock = clock
        #: per-space reverse map: space -> {page-aligned vaddr -> page
        #: descriptor}.  Indexed by space so space teardown touches
        #: exactly its own translations.
        self._spaces: Dict[int, Dict[int, RealPageDescriptor]] = {}
        #: which (cache_id, offset) each translation *serves*.  A read
        #: mapping may present an ancestor's frame on behalf of a copy
        #: cache; when that cache later gains its own version, every
        #: translation serving the (cache, offset) must be shot down or
        #: stale bytes stay visible.
        self._consumers: Dict[Tuple[int, int], set] = {}
        self._consumer_of: Dict[Tuple[int, int], Tuple[int, int]] = {}

    @property
    def page_size(self) -> int:
        """The MMU's page size."""
        return self.mmu.page_size

    def _page_vaddr(self, vaddr: int) -> int:
        return vaddr - (vaddr % self.page_size)

    # -- space lifecycle ---------------------------------------------------------

    def create_space(self) -> int:
        """Create a hardware address space."""
        space = self.mmu.create_space()
        self._spaces[space] = {}
        return space

    def destroy_space(self, space: int) -> None:
        """Unmap everything and destroy the space.

        Work is proportional to the space's *own* translations: the
        per-space index hands over exactly them, the bookkeeping and
        per-page PAGE_UNMAP charges run locally, and the MMU drops the
        whole space (one TLB flush) instead of unmapping page by page.
        """
        vmap = self._spaces.pop(space, None)
        if vmap:
            for vaddr, page in vmap.items():
                page.mappings.discard((space, vaddr))
                self._drop_consumer(space, vaddr)
                self.clock.charge(CostEvent.PAGE_UNMAP)
        self.mmu.destroy_space(space)

    # -- mapping maintenance --------------------------------------------------------

    def map_page(self, space: int, vaddr: int, page: RealPageDescriptor,
                 prot: Prot,
                 consumer: Optional[Tuple[int, int]] = None) -> None:
        """Install (or update) the translation vaddr -> page.

        *consumer* names the (cache_id, offset) this translation serves
        — usually the page's own identity, but an ancestor's frame may
        be presented on a descendant's behalf.
        """
        vaddr = self._page_vaddr(vaddr)
        vmap = self._spaces[space]
        previous = vmap.get(vaddr)
        if previous is not None and previous is not page:
            previous.mappings.discard((space, vaddr))
        self._drop_consumer(space, vaddr)
        self.mmu.map(space, vaddr, page.frame, prot)
        vmap[vaddr] = page
        page.mappings.add((space, vaddr))
        if consumer is None:
            consumer = (page.cache.cache_id, page.offset)
        self._consumers.setdefault(consumer, set()).add((space, vaddr))
        self._consumer_of[(space, vaddr)] = consumer
        self.clock.charge(CostEvent.PAGE_MAP)

    def _drop_consumer(self, space: int, vaddr: int) -> None:
        key = self._consumer_of.pop((space, vaddr), None)
        if key is not None:
            entries = self._consumers.get(key)
            if entries is not None:
                entries.discard((space, vaddr))
                if not entries:
                    del self._consumers[key]

    def _forget_mapping(self, space: int, vaddr: int) -> bool:
        """Bookkeeping half of an unmap: reverse maps, consumers and
        the per-page PAGE_UNMAP charge — but no MMU call.  Returns True
        when a translation was tracked (the caller owes the MMU a
        matching unmap)."""
        page = self._spaces[space].pop(vaddr, None)
        if page is None:
            return False
        page.mappings.discard((space, vaddr))
        self._drop_consumer(space, vaddr)
        self.clock.charge(CostEvent.PAGE_UNMAP)
        return True

    def unmap_page(self, space: int, vaddr: int) -> bool:
        """Drop one translation; True when one existed."""
        vaddr = self._page_vaddr(vaddr)
        page = self._spaces[space].pop(vaddr, None)
        if page is not None:
            page.mappings.discard((space, vaddr))
        self._drop_consumer(space, vaddr)
        existed = self.mmu.unmap(space, vaddr)
        if existed:
            self.clock.charge(CostEvent.PAGE_UNMAP)
        return existed

    def _unmap_grouped(self, mappings: Iterable[Tuple[int, int]]) -> int:
        """Unmap a set of (space, vaddr) translations, batched per
        space.  Bookkeeping and PAGE_UNMAP charges stay per page; the
        MMU sees one ``unmap_batch`` per space."""
        by_space: Dict[int, List[int]] = {}
        for space, vaddr in mappings:
            if self._forget_mapping(space, vaddr):
                by_space.setdefault(space, []).append(vaddr)
        count = 0
        for space, vaddrs in by_space.items():
            count += self.mmu.unmap_batch(space, vaddrs)
        return count

    def shootdown_served(self, cache, offset: int) -> int:
        """Unmap every translation serving (cache, offset), whatever
        frame backs it.  Called when the cache gains its own version of
        the page and ancestor-frame read mappings would go stale."""
        return self._unmap_grouped(
            list(self._consumers.get((cache.cache_id, offset), ())))

    def unmap_range(self, space: int, vaddr: int, size: int) -> int:
        """Drop all translations overlapping [vaddr, vaddr+size).

        Charges one REGION_INVALIDATE_PAGE per *virtual* page in the
        range — invalidating a region costs work proportional to its
        size even when nothing is resident (section 5.3.2's observed
        create/destroy scaling) — and one PAGE_UNMAP per translation
        actually dropped, interleaved exactly as the per-page loop
        interleaved them (gap pages are bulk-charged with
        :meth:`~repro.kernel.clock.VirtualClock.charge_each`, which is
        bit-identical).  Bookkeeping cost is O(translations actually
        resident in the range), never O(range): the resident set comes
        from the per-space index, so invalidating a million-page region
        with three translations touches three entries and makes one
        batched MMU call.
        """
        end = vaddr + size
        start = self._page_vaddr(vaddr)
        page_size = self.page_size
        if end <= start:
            return 0
        total_pages = (end - start + page_size - 1) // page_size
        victims = self.resident_addresses(space, vaddr, size)
        cursor = start
        for addr in victims:
            gap = (addr - cursor) // page_size
            if gap:
                self.clock.charge_each(CostEvent.REGION_INVALIDATE_PAGE, gap)
            self._forget_mapping(space, addr)
            self.clock.charge(CostEvent.REGION_INVALIDATE_PAGE)
            cursor = addr + page_size
        trailing = total_pages - (cursor - start) // page_size
        if trailing:
            self.clock.charge_each(CostEvent.REGION_INVALIDATE_PAGE, trailing)
        if victims:
            self.mmu.unmap_batch(space, victims)
        return len(victims)

    def resident_addresses(self, space: int, vaddr: int,
                           size: int) -> List[int]:
        """Page-aligned addresses in [vaddr, vaddr+size) holding a
        translation, ascending — O(min(resident, span)) via the
        per-space index, never O(span) alone."""
        end = vaddr + size
        start = self._page_vaddr(vaddr)
        if end <= start:
            return []
        vmap = self._spaces.get(space)
        if not vmap:
            return []
        page_size = self.page_size
        span = (end - start + page_size - 1) // page_size
        if len(vmap) <= span:
            return sorted(a for a in vmap if start <= a < end)
        return [a for a in range(start, end, page_size) if a in vmap]

    def resident_count(self, space: int, vaddr: int, size: int) -> int:
        """How many pages of [vaddr, vaddr+size) hold a translation."""
        return len(self.resident_addresses(space, vaddr, size))

    def protect_mapping(self, space: int, vaddr: int, prot: Prot) -> None:
        """Change protection of one existing translation."""
        self.mmu.protect(space, self._page_vaddr(vaddr), prot)

    def mapping_of(self, space: int, vaddr: int) -> Optional[RealPageDescriptor]:
        """Page currently translated at (space, vaddr), if any."""
        vmap = self._spaces.get(space)
        if vmap is None:
            return None
        return vmap.get(self._page_vaddr(vaddr))

    # -- page-centric operations ------------------------------------------------------

    def shootdown(self, page: RealPageDescriptor) -> int:
        """Remove every translation of *page* (eviction, move)."""
        return self._unmap_grouped(list(page.mappings))

    def revoke_write(self, page: RealPageDescriptor) -> None:
        """Clear WRITE, and only WRITE, from every translation of
        *page* (a page cleaned in place).

        Free on the virtual clock: it stands in for clearing a
        hardware modified bit, which the paper's cost model does not
        price.  The store that re-dirties the page pays its protection
        fault as usual.
        """
        mmu = self.mmu
        by_space: Dict[int, List[Tuple[int, Prot]]] = {}
        for space, vaddr in page.mappings:
            mapping = mmu.peek(space, mmu.vpn(vaddr))
            if mapping is not None and mapping.prot & Prot.WRITE:
                by_space.setdefault(space, []).append(
                    (vaddr, mapping.prot & ~Prot.WRITE))
        for space, items in by_space.items():
            mmu.protect_batch(space, items)

    def downgrade_page(self, page: RealPageDescriptor, prot: Prot = Prot.READ) -> None:
        """Set every translation of *page* to *prot* (typically
        read-only, when the page becomes a deferred-copy source).

        Charges one PAGE_PROTECT for the page, matching the paper's
        per-page protection accounting; the MMU sees one protect batch
        per space that maps the page.
        """
        by_space: Dict[int, List[Tuple[int, Prot]]] = {}
        for space, vaddr in page.mappings:
            by_space.setdefault(space, []).append((vaddr, prot))
        for space, items in by_space.items():
            self.mmu.protect_batch(space, items)
        self.clock.charge(CostEvent.PAGE_PROTECT)
