"""Virtual clock and cost model.

The paper's evaluation (section 5.3) was run on a Sun-3/60: about
3 MIPS, 8 Kbyte pages, ``bcopy`` of a page = 1.4 ms, ``bzero`` of a
page = 0.87 ms.  Re-running the benchmarks on modern hardware in Python
would measure the Python interpreter, not the algorithms.  Instead, the
simulation charges a **virtual clock** with calibrated unit costs per
mechanism event: every page fault dispatched, frame allocated, page
mapped, page protected, object created and page copied or zeroed is an
event *produced by actually executing the mechanism*; the cost model
merely prices the events.

Two pricing profiles are provided (see :mod:`repro.bench.costmodel`):
one calibrated from the paper's Chorus figures, one from its Mach
figures, so that Tables 6 and 7 can be regenerated with the measured
event streams of our PVM (history objects) and our Mach-style baseline
(shadow objects).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional

from repro.obs.metrics import EventCounter, MetricsRegistry


class CostEvent(enum.Enum):
    """Mechanism events priced by a :class:`CostModel`.

    The decomposition follows the paper's own accounting in
    section 5.3.2 (fault dispatch, page protection, history-tree
    management, per-page copy / zero-fill).
    """

    # Data movement (priced directly from the paper's microprimitives).
    BCOPY_PAGE = "bcopy_page"            # copy one page of real memory
    BZERO_PAGE = "bzero_page"            # zero-fill one page of real memory
    BCOPY_BYTE = "bcopy_byte"            # sub-page copies (IPC small path)

    # Address-space management.
    REGION_CREATE = "region_create"
    REGION_DESTROY = "region_destroy"
    REGION_INVALIDATE_PAGE = "region_invalidate_page"
    CONTEXT_CREATE = "context_create"
    CONTEXT_SWITCH = "context_switch"

    # Fault path.
    FAULT_DISPATCH = "fault_dispatch"        # trap + region + global-map lookup
    FRAME_ALLOC = "frame_alloc"
    FRAME_FREE = "frame_free"
    PAGE_MAP = "page_map"                    # enter a translation in the MMU
    PAGE_UNMAP = "page_unmap"
    PAGE_PROTECT = "page_protect"            # change protection of one mapping
    PROT_FAULT_RESOLVE = "prot_fault_resolve"  # COW bookkeeping on write violation
    FIRST_TOUCH = "first_touch"              # first fault in a region (object init)

    # Deferred-copy machinery.
    HISTORY_TREE_SETUP = "history_tree_setup"    # link one history object
    HISTORY_LOOKUP = "history_lookup"            # one hop up the history tree
    SHADOW_CREATE = "shadow_create"              # create one Mach shadow object
    SHADOW_LOOKUP = "shadow_lookup"              # one hop down a shadow chain
    SHADOW_MERGE_PAGE = "shadow_merge_page"      # move one page during merge GC
    HISTORY_MERGE_PAGE = "history_merge_page"    # collapse GC of dead history chains
    CACHE_CREATE = "cache_create"
    COW_STUB_INSERT = "cow_stub_insert"          # per-virtual-page stub (4.3)
    COW_STUB_RESOLVE = "cow_stub_resolve"

    # Segment / mapper traffic.
    PULL_IN = "pull_in"                  # upcall overhead (not data movement)
    PUSH_OUT = "push_out"
    DISK_READ_PAGE = "disk_read_page"
    DISK_WRITE_PAGE = "disk_write_page"

    # IPC.
    IPC_SEND = "ipc_send"
    IPC_RECEIVE = "ipc_receive"
    TRANSIT_SLOT = "transit_slot"

    # Misc kernel work.
    SYSCALL = "syscall"
    TLB_FILL = "tlb_fill"


class CostModel:
    """Maps :class:`CostEvent` to a cost in virtual milliseconds.

    Unpriced events cost zero; this lets functional tests run with an
    empty model while benchmarks install a calibrated profile.
    """

    def __init__(self, prices: Optional[Dict[CostEvent, float]] = None,
                 name: str = "free"):
        self.name = name
        self._prices: Dict[CostEvent, float] = dict(prices or {})

    def price(self, event: CostEvent) -> float:
        """Return the cost of one occurrence of *event*, in virtual ms."""
        return self._prices.get(event, 0.0)

    def with_overrides(self, overrides: Dict[CostEvent, float],
                       name: Optional[str] = None) -> "CostModel":
        """Return a copy of this model with some prices replaced."""
        merged = dict(self._prices)
        merged.update(overrides)
        return CostModel(merged, name=name or self.name)

    def priced_events(self) -> Iterable[CostEvent]:
        """Events with a non-zero price."""
        return [event for event, cost in self._prices.items() if cost]

    def __repr__(self) -> str:
        return f"CostModel({self.name!r}, {len(self._prices)} prices)"


class VirtualClock:
    """Accumulates virtual time from priced mechanism events.

    The clock also counts every charged event, so experiments can report
    both virtual milliseconds *and* raw mechanism counts (faults taken,
    frames allocated, shadow objects created, ...).  Counts land in a
    :class:`~repro.obs.metrics.MetricsRegistry` — by default a fresh
    one, but a memory manager shares a single registry between its
    clock, TLB, probe and reporting tools, which is what makes
    ``vm.metrics_snapshot()`` one coherent document.

    Listeners registered with :meth:`add_listener` observe every charge
    as ``(time_before_charge_ms, event, count)``; the probe's per-span
    event attribution is built on this hook.  With no listeners the
    charge path pays only an empty-tuple truth test.
    """

    def __init__(self, model: Optional[CostModel] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.model = model or CostModel()
        self._now_ms = 0.0
        self.registry = registry or MetricsRegistry()
        self.counter = EventCounter(registry=self.registry)
        self._listeners = ()

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def charge(self, event: CostEvent, count: int = 1) -> float:
        """Record *count* occurrences of *event*; return the cost added."""
        if count <= 0:
            return 0.0
        start = self._now_ms
        counter = self.counter
        if counter.registry.enabled:
            # A paused registry drops the increment inside inc()
            # anyway; skipping the whole view hop keeps the idle fast
            # path to one attribute check per charge.
            counter.add(event.value, count)
        cost = self.model.price(event) * count
        self._now_ms = start + cost
        if self._listeners:
            for listener in self._listeners:
                listener(start, event, count)
        return cost

    def charge_each(self, event: CostEvent, count: int) -> float:
        """Charge *count* occurrences of *event* exactly as *count*
        sequential :meth:`charge` calls would — bit-identical virtual
        time — while moving the counter once.

        ``charge(event, count)`` advances time by ``price * count`` in
        one float operation; N sequential unit charges accumulate
        ``now += price`` N times, which is *not* the same float (IEEE
        addition is not associative).  Bulk paths that replace a
        per-page loop use this so the Table 6/7 goldens stay
        bit-identical.  The per-unit accumulation still runs, but with
        no dict lookups or listener checks per unit; when the event is
        unpriced only the counter moves.  With listeners attached it
        falls back to literal unit charges so observers see the same
        stream they always did.
        """
        if count <= 0:
            return 0.0
        if self._listeners:
            total = 0.0
            for _ in range(count):
                total += self.charge(event)
            return total
        start = self._now_ms
        self.counter.add(event.value, count)
        price = self.model.price(event)
        if price:
            now = start
            for _ in range(count):
                now += price
            self._now_ms = now
        return self._now_ms - start

    # -- charge listeners ----------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(time_ms, event, count)`` for every charge."""
        self._listeners = (*self._listeners, listener)

    def remove_listener(self, listener) -> None:
        """Unregister a charge listener (no-op when absent)."""
        # == not `is`: bound methods are re-created on each attribute
        # access, so identity would never match.
        self._listeners = tuple(
            registered for registered in self._listeners
            if registered != listener
        )

    def advance(self, milliseconds: float) -> None:
        """Advance virtual time directly (e.g. simulated disk latency)."""
        if milliseconds < 0:
            raise ValueError("cannot move virtual time backwards")
        self._now_ms += milliseconds

    # -- bookkeeping ----------------------------------------------------------

    def count(self, event: CostEvent) -> int:
        """Number of times *event* has been charged."""
        return self.counter.get(event.value)

    def reset(self) -> None:
        """Zero the clock and all event counts."""
        self._now_ms = 0.0
        self.counter.reset()

    def snapshot(self) -> Dict[str, int]:
        """Copy of all event counts, keyed by event value."""
        return self.counter.snapshot()

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now_ms:.3f}ms, model={self.model.name})"


class ClockRegion:
    """Context manager measuring virtual time elapsed in a block.

    >>> clock = VirtualClock()
    >>> with ClockRegion(clock) as region:
    ...     clock.advance(2.5)
    >>> region.elapsed
    2.5
    """

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "ClockRegion":
        self.start = self.clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = self.clock.now() - self.start
