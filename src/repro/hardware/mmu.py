"""Abstract MMU interface and hardware protection bits.

This is the boundary that, in the real PVM, separates the
machine-independent layer from the per-MMU machine-dependent layer
(the part the paper says takes "about one man-month" to port).  Three
ports are provided: :class:`~repro.hardware.paged_mmu.PagedMMU`
(run-length two-level tables, Sun-3 style),
:class:`~repro.hardware.inverted_mmu.InvertedMMU` (hashed inverted
table, custom-MMU style) and
:class:`~repro.hardware.segmented_mmu.SegmentedMMU` (descriptor check
plus page table, iAPX 386 style).  Every operation's semantics are
implemented once, in :class:`MMU`; a port supplies only its storage
organisation and its walk, so only the walk statistics differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import InvalidOperation, PageFault, ProtectionViolation
from repro.kernel import EventCounter
from repro.units import is_power_of_two


class Prot(enum.IntFlag):
    """Hardware page protection bits."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXECUTE = 4
    #: supervisor-only: user-mode access traps regardless of R/W bits.
    SYSTEM = 8

    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE

    def allows(self, write: bool, supervisor: bool = True) -> bool:
        """True when this protection permits the given access kind."""
        if self & Prot.SYSTEM and not supervisor:
            return False
        if write:
            return bool(self & Prot.WRITE)
        return bool(self & Prot.READ)


@dataclass
class FaultRecord:
    """The paper's "hardware page fault descriptor" (section 4.1.2)."""

    space: int
    address: int
    write: bool
    protection_violation: bool
    #: True when the access executed in supervisor mode.
    supervisor: bool = False

    @property
    def kind(self) -> str:
        """Either "protection" or "translation"."""
        return "protection" if self.protection_violation else "translation"


@dataclass
class Mapping:
    """One virtual-page-to-frame translation.

    ``bits`` caches the protection as a plain int so the translation
    hot path checks access with integer masks instead of constructing
    ``IntFlag`` instances per page (measurably the dominant cost of a
    software table walk).
    """

    frame: int
    prot: Prot
    bits: int = 0

    def __post_init__(self):
        self.bits = int(self.prot)


#: Plain-int mirrors of the Prot bits for the translation fast path.
_READ_BIT = int(Prot.READ)
_WRITE_BIT = int(Prot.WRITE)
_SYSTEM_BIT = int(Prot.SYSTEM)


class MMU:
    """Abstract memory management unit.

    An MMU manages any number of hardware *address spaces* (one per
    context), each a partial map from virtual page number to
    (frame, protection).  Subclasses implement the storage organisation
    via the per-page ``_entry`` / ``_set_entry`` / ``_del_entry`` /
    ``_iter_space`` / ``_space_size`` hooks, and may override the run
    hooks ``_set_run`` / ``_clear_run`` / ``_protect_run``, whose
    defaults loop the per-page ones; all semantics live here.
    """

    #: Human-readable port name, e.g. ``"paged"`` or ``"inverted"``.
    port_name = "abstract"

    #: The walk statistics ``_entry`` charges when the vpn is *mapped*
    #: — constant per port organisation, which lets the vectorized bus
    #: charge ``misses x each`` in aggregate instead of walking per
    #: access.  Ports that override :meth:`peek` must define it.
    walk_stats_mapped: Optional[Tuple[str, ...]] = None

    def __init__(self, page_size: int, tlb=None):
        if not is_power_of_two(page_size):
            raise InvalidOperation(f"page size {page_size} not a power of two")
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._next_space = 1
        self._live_spaces: set = set()
        self.tlb = tlb
        #: Walk statistics.  Labeled by port so that, once bound into a
        #: shared registry, each statistic appears both as the plain
        #: ``mmu.<name>`` rollup and as ``mmu.<name>{port=...}``.
        self.stats = EventCounter(namespace="mmu.",
                                  labels={"port": self.port_name})

    def bind_registry(self, registry) -> None:
        """Re-home the walk statistics (and the TLB's, if attached)
        into *registry*, preserving accumulated counts.  Called when an
        MMU built before its VM is adopted into the VM's shared metrics
        registry."""
        self.stats.rebind(registry)
        if self.tlb is not None:
            self.tlb.bind_registry(registry)

    # -- address-space lifecycle -----------------------------------------------

    def create_space(self) -> int:
        """Create an empty hardware address space; return its id."""
        space = self._next_space
        self._next_space += 1
        self._live_spaces.add(space)
        self._init_space(space)
        return space

    def destroy_space(self, space: int) -> None:
        """Drop every translation of *space* and invalidate it."""
        self._check_space(space)
        if self.tlb is not None:
            self.tlb.flush_space(space)
        self._drop_space(space)
        self._live_spaces.remove(space)

    def space_exists(self, space: int) -> bool:
        """True while *space* is live."""
        return space in self._live_spaces

    def _check_space(self, space: int) -> None:
        if space not in self._live_spaces:
            raise InvalidOperation(f"address space {space} does not exist")

    # -- mapping operations ------------------------------------------------------

    def vpn(self, vaddr: int) -> int:
        """Virtual page number of *vaddr*."""
        return vaddr >> self._page_shift

    def map(self, space: int, vaddr: int, frame: int, prot: Prot) -> None:
        """Install a translation for the page containing *vaddr*."""
        self._check_space(space)
        _check_access(prot)
        vpn = self.vpn(vaddr)
        self._set_entry(space, vpn, Mapping(frame, prot))
        if self.tlb is not None:
            self.tlb.invalidate(space, vpn)

    def unmap(self, space: int, vaddr: int) -> bool:
        """Remove the translation for the page of *vaddr*; True if present."""
        self._check_space(space)
        vpn = self.vpn(vaddr)
        existed = self._del_entry(space, vpn)
        if existed and self.tlb is not None:
            self.tlb.invalidate(space, vpn)
        return existed

    def protect(self, space: int, vaddr: int, prot: Prot) -> None:
        """Change the protection of an existing translation."""
        self._check_space(space)
        vpn = self.vpn(vaddr)
        self._protect_page(space, vpn, prot)
        if self.tlb is not None:
            self.tlb.invalidate(space, vpn)

    # -- run, range and batch operations ------------------------------------------
    #
    # Each is implemented once, here.  All but protect_batch (which
    # walks each entry, as protect does) go through the run hooks
    # (``_set_run`` / ``_clear_run`` / ``_protect_run``), which a
    # run-aware port overrides to stay O(runs).  Semantics are those of
    # the per-page operations applied in order: when an entry is
    # rejected, the entries before it stay applied, and their TLB
    # entries are shot down before the error propagates.

    def map_run(self, space: int, vaddr: int, count: int, frame: int,
                prot: Prot) -> None:
        """Install *count* translations for consecutive pages starting
        at *vaddr*, backed by consecutive frames starting at *frame*,
        all with *prot* — the extent-granular port call."""
        self._map_runs(space, [(self.vpn(vaddr), count, frame, prot)])

    def map_batch(self, space: int, entries) -> None:
        """Install many translations at once.

        *entries* iterates (vaddr, frame, prot) triples, each installed
        as a one-page run.
        """
        shift = self._page_shift
        self._map_runs(space, ((vaddr >> shift, 1, frame, prot)
                               for vaddr, frame, prot in entries))

    def unmap_range(self, space: int, vaddr: int, size: int) -> int:
        """Unmap every page overlapping [vaddr, vaddr+size); return count."""
        self._check_space(space)
        if size <= 0:
            return 0
        start_vpn = self.vpn(vaddr)
        return self._unmap_runs(
            space, [(start_vpn, self.vpn(vaddr + size - 1) - start_vpn + 1)])

    def unmap_batch(self, space: int, vaddrs) -> int:
        """Remove many translations at once; return how many existed.
        Adjacent pages coalesce into range clears."""
        self._check_space(space)
        shift = self._page_shift
        runs: List[List[int]] = []
        for vpn in sorted({vaddr >> shift for vaddr in vaddrs}):
            if runs and vpn == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([vpn, 1])
        return self._unmap_runs(space, runs)

    def protect_range(self, space: int, vaddr: int, count: int,
                      prot: Prot) -> None:
        """Change the protection of *count* consecutive existing
        translations starting at *vaddr*; a missing translation is an
        error."""
        self._check_space(space)
        vpn = self.vpn(vaddr)
        try:
            self._protect_run(space, vpn, count, prot)
        finally:
            self._invalidate(space, [(vpn, count)])

    def protect_batch(self, space: int, items) -> None:
        """Change the protection of many existing translations.

        *items* iterates (vaddr, prot) pairs; like :meth:`protect`,
        each entry walks the table and a missing translation is an
        error.
        """
        self._check_space(space)
        touched = []
        try:
            for vaddr, prot in items:
                vpn = self.vpn(vaddr)
                self._protect_page(space, vpn, prot)
                touched.append(vpn)
        finally:
            if touched and self.tlb is not None:
                self.tlb.invalidate_batch(space, touched)

    def _map_runs(self, space: int, runs) -> None:
        """Install (vpn, count, frame, prot) runs in order."""
        self._check_space(space)
        touched = []
        try:
            for vpn, count, frame, prot in runs:
                _check_access(prot)
                touched.append((vpn, count))
                self._set_run(space, vpn, count, frame, prot)
        finally:
            self._invalidate(space, touched)

    def _unmap_runs(self, space: int, runs) -> int:
        """Clear (vpn, count) runs; return how many translations went."""
        dropped = 0
        for vpn, count in runs:
            dropped += self._clear_run(space, vpn, count)
        if dropped:
            self._invalidate(space, runs)
        return dropped

    def _invalidate(self, space: int, runs) -> None:
        """Shoot down the TLB entries of (vpn, count) runs."""
        if self.tlb is not None:
            for vpn, count in runs:
                self.tlb.invalidate_range(space, vpn, count)

    def _protect_page(self, space: int, vpn: int, prot: Prot) -> None:
        mapping = self._entry(space, vpn)
        if mapping is None:
            raise self._unmapped(space, vpn)
        self._set_entry(space, vpn, Mapping(mapping.frame, prot))

    def _unmapped(self, space: int, vpn: int) -> InvalidOperation:
        return InvalidOperation(
            f"protect: no mapping at {vpn << self._page_shift:#x} "
            f"in space {space}")

    def lookup(self, space: int, vaddr: int) -> Optional[Mapping]:
        """Return the mapping of the page of *vaddr*, if any (no fault)."""
        self._check_space(space)
        return self._entry(space, self.vpn(vaddr))

    def peek(self, space: int, vpn: int) -> Optional[Mapping]:
        """Statistic-free translation probe: the :class:`Mapping` of
        *vpn* in *space*, or None when unmapped.

        Unlike ``_entry`` this charges **no** walk statistics and moves
        no TLB state — it answers "what would a table walk find?"
        without simulating one.  The vectorized bus
        (:mod:`repro.hardware.vbus`) classifies whole batches with it
        and then replays the *observable* walk/TLB accounting exactly;
        any port that wants the vectorized path must override it (the
        three in-tree ports do).
        """
        raise NotImplementedError(
            f"MMU port {self.port_name!r} does not implement peek(); "
            "the vectorized bus path requires it")

    def mapped_pages(self, space: int) -> List[Tuple[int, Mapping]]:
        """All (vpn, mapping) pairs of *space*, unordered."""
        self._check_space(space)
        return list(self._iter_space(space))

    # -- translation ---------------------------------------------------------------

    def translate(self, space: int, vaddr: int, write: bool,
                  supervisor: bool = True) -> int:
        """Translate *vaddr*; raise PageFault / ProtectionViolation.

        Returns the physical address.  Consults the TLB first when one
        is attached; a successful table walk refills the TLB.  A
        user-mode (*supervisor* False) access to a SYSTEM-protected
        page violates, whatever its R/W bits say.
        """
        self._check_space(space)
        vpn = self.vpn(vaddr)
        page_off = vaddr - (vpn << self._page_shift)
        mapping = None
        if self.tlb is not None:
            mapping = self.tlb.probe(space, vpn)
        if mapping is None:
            mapping = self._entry(space, vpn)
            if mapping is not None and self.tlb is not None:
                self.tlb.fill(space, vpn, mapping)
        if mapping is None:
            raise PageFault(vaddr, write)
        bits = mapping.bits
        if (bits & _SYSTEM_BIT and not supervisor) \
                or not bits & (_WRITE_BIT if write else _READ_BIT):
            raise ProtectionViolation(vaddr, write)
        return mapping.frame * self.page_size + page_off

    def translate_batch(self, space: int, vaddrs, write: bool,
                        supervisor: bool = True) -> List[int]:
        """Translate many addresses of one space in order.

        Semantics are those of :meth:`translate` per address — same TLB
        probe/fill sequence, same PageFault / ProtectionViolation on
        the first offending address — with the space check and the
        attribute chases hoisted out of the loop.  The bus and the IPC
        copy path use this for multi-page transfers.
        """
        self._check_space(space)
        shift = self._page_shift
        page_size = self.page_size
        tlb = self.tlb
        access_bit = _WRITE_BIT if write else _READ_BIT
        results: List[int] = []
        append = results.append
        for vaddr in vaddrs:
            vpn = vaddr >> shift
            mapping = tlb.probe(space, vpn) if tlb is not None else None
            if mapping is None:
                mapping = self._entry(space, vpn)
                if mapping is None:
                    raise PageFault(vaddr, write)
                if tlb is not None:
                    tlb.fill(space, vpn, mapping)
            bits = mapping.bits
            if (bits & _SYSTEM_BIT and not supervisor) \
                    or not bits & access_bit:
                raise ProtectionViolation(vaddr, write)
            append(mapping.frame * page_size + (vaddr - (vpn << shift)))
        return results

    # -- storage hooks (implemented by each port) -----------------------------------

    def _init_space(self, space: int) -> None:
        raise NotImplementedError

    def _drop_space(self, space: int) -> None:
        raise NotImplementedError

    def _entry(self, space: int, vpn: int) -> Optional[Mapping]:
        raise NotImplementedError

    def _set_entry(self, space: int, vpn: int, mapping: Mapping) -> None:
        raise NotImplementedError

    def _del_entry(self, space: int, vpn: int) -> bool:
        raise NotImplementedError

    def _iter_space(self, space: int) -> Iterator[Tuple[int, Mapping]]:
        raise NotImplementedError

    def _space_size(self, space: int) -> int:
        """Resident-translation count of *space*, in O(1)."""
        raise NotImplementedError

    # -- run hooks (per-page defaults; run-aware ports override) -----------------

    def _set_run(self, space: int, vpn: int, count: int, frame: int,
                 prot: Prot) -> None:
        for index in range(count):
            self._set_entry(space, vpn + index, Mapping(frame + index, prot))

    def _clear_run(self, space: int, vpn: int, count: int) -> int:
        """Drop the translations of [vpn, vpn+count); return how many
        existed.  When the run dwarfs the resident set the walk flips
        to the space's own entries, so invalidating a huge sparse
        window costs work proportional to what is actually mapped."""
        end = vpn + count
        if self._space_size(space) < count:
            vpns = [key for key, _ in self._iter_space(space)
                    if vpn <= key < end]
        else:
            vpns = range(vpn, end)
        return sum(self._del_entry(space, key) for key in vpns)

    def _protect_run(self, space: int, vpn: int, count: int,
                     prot: Prot) -> None:
        for index in range(count):
            self._protect_page(space, vpn + index, prot)


def _check_access(prot: Prot) -> None:
    if prot == Prot.NONE:
        raise InvalidOperation("mapping with no access bits; use unmap")
