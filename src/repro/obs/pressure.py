"""Per-space pressure accounting: ledgers and PSI-style stall tracking.

The fault path and the cache engine can both say *what* happened
(``cache.pull_in``, ``cache.writeback``); neither of them
can say *who paid for it*.  This module is the attribution plane the
working-set balancer will read:

* a :class:`SpaceAccount` ledger per address space — faults, pull/push
  bytes, in-flight waits, evictions caused vs suffered, resident pages
  — surfaced as ``space.*{space=N}`` labeled series with the usual
  plain-name rollups;
* PSI-style stall tracking (the Linux ``/proc/pressure/memory`` idea
  transplanted onto the **virtual** clock): every blocking point
  brackets itself in a :class:`StallWindow`, and sliding 10/60/300
  virtual-millisecond windows answer "what fraction of recent virtual
  time did *some* task spend stalled on memory?" as ``psi.memory.*``
  gauges, globally and per space.

Determinism contract — the reason this module is shaped the way it is:

* it **never charges or advances** the virtual clock; it only reads
  ``now()``.  Table 6/7 goldens and bench virtual times are therefore
  bit-identical with the board active (the +0.000 vdrift acceptance
  gate);
* ledger **counters** record only mechanism events (faults, pulls,
  pushes, evictions), which are identical however the access path is
  configured, so the parity suites can compare them exactly;
* stall **durations** depend on scheduling, so they are published as
  *gauges* at snapshot time, never as counters.

Layering: this module may import only :mod:`repro.obs.metrics` —
no backends, no hardware, no cache subsystem (``check_layers`` rule 7).
Callers hand in primitives (space ids, page counts), not kernel
objects.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, series_name

#: The PSI averaging windows, in virtual milliseconds.  Linux uses
#: 10/60/300 seconds of wall time; one virtual millisecond of simulated
#: mechanism work is the natural unit here.
STALL_WINDOWS_MS = (10.0, 60.0, 300.0)

#: History kept by a :class:`StallWindow` — the largest window.
_HORIZON_MS = 300.0


class StallWindow:
    """Merged stall intervals over virtual time, with windowed averages.

    ``enter``/``exit`` calls may nest (a backpressure stall inside a
    pull stall): a depth counter merges them into one interval, so
    overlapping stalls are never double-counted.  Closed intervals are
    kept in a deque pruned past the 300 ms horizon; ``avg`` answers the
    stalled fraction of the trailing window at query time — nothing is
    computed while the kernel is running.
    """

    __slots__ = ("total_ms", "count", "_intervals", "_depth",
                 "_open_start")

    def __init__(self):
        #: cumulative stalled virtual ms over the whole run.
        self.total_ms = 0.0
        #: stall events (interval openings plus zero-duration notes).
        self.count = 0
        #: merged, disjoint, closed ``(start, end)`` intervals.
        self._intervals: Deque[Tuple[float, float]] = deque()
        self._depth = 0
        self._open_start = 0.0

    def enter(self, now: float) -> None:
        """A stall begins at virtual time *now* (nestable)."""
        self._depth += 1
        if self._depth == 1:
            self._open_start = now

    def exit(self, now: float) -> None:
        """The matching stall ends at *now* (no-op when unbalanced)."""
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth:
            return
        start = self._open_start
        self.count += 1
        self.total_ms += now - start
        if now > start:
            intervals = self._intervals
            if intervals and start <= intervals[-1][1]:
                # Touching/overlapping the previous interval: extend it.
                last = intervals[-1]
                if now > last[1]:
                    intervals[-1] = (last[0], now)
            else:
                intervals.append((start, now))
            horizon = now - _HORIZON_MS
            while intervals and intervals[0][1] <= horizon:
                intervals.popleft()

    def note(self) -> None:
        """Record a zero-duration stall event (counted, no time)."""
        self.count += 1

    def stalled_ms(self, window_ms: float, now: float) -> float:
        """Stalled virtual ms inside ``[now - window_ms, now]``."""
        lo = now - window_ms
        total = 0.0
        for start, end in self._intervals:
            if end <= lo:
                continue
            if start >= now:
                break
            total += min(end, now) - max(start, lo)
        if self._depth:
            start = max(self._open_start, lo)
            if now > start:
                total += now - start
        return total

    def avg(self, window_ms: float, now: float) -> float:
        """Stalled fraction (0.0–1.0) of the trailing *window_ms*."""
        if window_ms <= 0.0:
            return 0.0
        fraction = self.stalled_ms(window_ms, now) / window_ms
        return fraction if fraction < 1.0 else 1.0

    def __repr__(self) -> str:
        return (f"StallWindow(total={self.total_ms:.3f}ms, "
                f"count={self.count}, depth={self._depth})")


class SpaceAccount:
    """The per-address-space ledger: who consumed what, who stalled.

    Series keys are precomputed at construction (the labeled-series
    idiom of the fault path) so recording is one dict probe plus a
    registry increment — no per-event string formatting.
    """

    __slots__ = ("space", "faults_read", "faults_write", "pull_bytes",
                 "push_bytes", "inflight_waits", "evictions_caused",
                 "evictions_suffered", "resident_pages", "stall",
                 "series", "gauges")

    def __init__(self, space: int):
        self.space = space
        self.faults_read = 0
        self.faults_write = 0
        self.pull_bytes = 0
        self.push_bytes = 0
        self.inflight_waits = 0
        self.evictions_caused = 0
        self.evictions_suffered = 0
        #: last published residency (pages); a snapshot-time gauge.
        self.resident_pages = 0
        self.stall = StallWindow()
        label = {"space": space}
        self.series: Dict[str, str] = {
            "fault.read": series_name("space.fault.read", label),
            "fault.write": series_name("space.fault.write", label),
            "pull_bytes": series_name("space.pull_bytes", label),
            "push_bytes": series_name("space.push_bytes", label),
            "inflight_wait": series_name("space.inflight_wait", label),
            "evict.caused": series_name("space.evict.caused", label),
            "evict.suffered": series_name("space.evict.suffered", label),
        }
        self.gauges: Dict[str, str] = {
            "resident_pages": series_name("space.resident_pages", label),
            "mapped_pages": series_name("space.mapped_pages", label),
            "stall_ms": series_name("space.stall_ms", label),
            "avg10": series_name("psi.memory.some.avg10", label),
            "avg60": series_name("psi.memory.some.avg60", label),
            "avg300": series_name("psi.memory.some.avg300", label),
        }

    def __repr__(self) -> str:
        return (f"SpaceAccount(space={self.space}, "
                f"faults={self.faults_read + self.faults_write}, "
                f"stall={self.stall.total_ms:.3f}ms)")


class _StallScope:
    """Context manager bracketing one blocking point.

    Charges the interval into the global ``some`` window, the global
    ``full`` window when every active task is stalled, and the current
    task's space window.
    """

    __slots__ = ("board", "kind", "entered_full", "acct")

    def __init__(self, board: "PressureBoard", kind: str):
        self.board = board
        self.kind = kind
        self.entered_full = False
        self.acct: Optional[SpaceAccount] = None

    def __enter__(self) -> "_StallScope":
        board = self.board
        now = board.now()
        board._stall_depth += 1
        board.some.enter(now)
        # "full" = every active task is stalled.  With no tracked task
        # (an explicit read/flush stalling outside a fault) the one
        # stalling activity is everything that is running.
        tasks = len(board._tasks)
        self.entered_full = board._stall_depth >= (tasks if tasks else 1)
        if self.entered_full:
            board.full.enter(now)
        space = board.current_space()
        if space is not None:
            self.acct = board.account(space)
            self.acct.stall.enter(now)
        counts = board.stall_counts
        counts[self.kind] = counts.get(self.kind, 0) + 1
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        board = self.board
        now = board.now()
        if board._stall_depth:
            board._stall_depth -= 1
        board.some.exit(now)
        if self.entered_full:
            board.full.exit(now)
        if self.acct is not None:
            self.acct.stall.exit(now)
        return False


class PressureBoard:
    """The per-manager pressure plane: ledgers plus stall windows.

    Constructed with the manager's shared registry and a ``now``
    callable (the virtual clock's ``now`` bound method — the board
    never sees the clock object, let alone charges it).  The ledger
    fields, stall windows and ``stall_counts`` are recorded whatever
    the registry's state: the balancer reads them as policy inputs, so
    pausing metrics must not change pressure policy.  Only the series
    writes pause with the registry (``registry.inc`` is a no-op then).
    """

    def __init__(self, registry: MetricsRegistry, now,
                 page_size: int = 1):
        self.registry = registry
        self.now = now
        self.page_size = page_size
        self.accounts: Dict[int, SpaceAccount] = {}
        #: stall time while *some* task waited on memory.
        self.some = StallWindow()
        #: stall time while *all* active tasks waited on memory.
        self.full = StallWindow()
        #: stall events by blocking point ("pull", "inflight", ...).
        self.stall_counts: Dict[str, int] = {}
        #: attribution stack: space ids of the tasks being served.
        self._tasks: List[int] = []
        self._stall_depth = 0

    # -- accounts ------------------------------------------------------------

    def account(self, space: int) -> SpaceAccount:
        """The ledger for *space*, created zeroed on first use."""
        acct = self.accounts.get(space)
        if acct is None:
            acct = self.accounts[space] = SpaceAccount(space)
        return acct

    def drop_space(self, space: int) -> None:
        """Forget a destroyed space: its labeled series leave the
        registry (rollups adjusted, generation bumped), its gauges are
        removed, and a recycled id starts from a zeroed ledger."""
        acct = self.accounts.pop(space, None)
        if acct is None:
            return
        self.registry.drop_counters(acct.series.values())
        self.registry.drop_gauges(acct.gauges.values())

    # -- task attribution ----------------------------------------------------

    def begin_task(self, space: int) -> None:
        """A fault (or other attributable work) for *space* begins;
        the frame arbiter charges residency to the current task's
        space.  The cost is one list append per fault."""
        self._tasks.append(space)

    def end_task(self) -> None:
        """The innermost attributable task finished."""
        if self._tasks:
            self._tasks.pop()

    def current_space(self) -> Optional[int]:
        """The space being served right now, or None."""
        return self._tasks[-1] if self._tasks else None

    # -- ledger verbs --------------------------------------------------------

    def fault(self, space: int, write: bool) -> None:
        """One resolved fault in *space*."""
        acct = self.account(space)
        if write:
            acct.faults_write += 1
            self.registry.inc(acct.series["fault.write"])
        else:
            acct.faults_read += 1
            self.registry.inc(acct.series["fault.read"])

    def pulled(self, pages: int) -> None:
        """*pages* pulled in on behalf of the current task's space."""
        space = self.current_space()
        if space is None:
            return
        acct = self.account(space)
        nbytes = pages * self.page_size
        acct.pull_bytes += nbytes
        self.registry.inc(acct.series["pull_bytes"], nbytes)

    def pushed(self, pages: int) -> None:
        """*pages* pushed out on behalf of the current task's space
        (daemon/unattributed pushes only reach the global rollups)."""
        space = self.current_space()
        if space is None:
            return
        acct = self.account(space)
        nbytes = pages * self.page_size
        acct.push_bytes += nbytes
        self.registry.inc(acct.series["push_bytes"], nbytes)

    def inflight_wait(self) -> None:
        """The current task joined another fault's in-flight pull."""
        space = self.current_space()
        if space is None:
            return
        acct = self.account(space)
        acct.inflight_waits += 1
        self.registry.inc(acct.series["inflight_wait"])

    def eviction(self, suffered_spaces: Iterable[int]) -> None:
        """One page evicted: caused by the current task's space (if
        any), suffered by every space that had it mapped."""
        space = self.current_space()
        if space is not None:
            acct = self.account(space)
            acct.evictions_caused += 1
            self.registry.inc(acct.series["evict.caused"])
        for victim in suffered_spaces:
            acct = self.account(victim)
            acct.evictions_suffered += 1
            self.registry.inc(acct.series["evict.suffered"])

    # -- stalls --------------------------------------------------------------

    def stall(self, kind: str):
        """Bracket one blocking point (``with board.stall("pull"):``)."""
        return _StallScope(self, kind)

    def note_stall(self, kind: str) -> None:
        """A blocking point outside the memory-stall windows (the
        admission gate's throttle: the task is parked, not stalled on
        memory): count the event without opening an interval."""
        self.some.note()
        space = self.current_space()
        if space is not None:
            self.account(space).stall.note()
        counts = self.stall_counts
        counts[kind] = counts.get(kind, 0) + 1

    # -- publication ---------------------------------------------------------

    def set_residency(self, space: int, resident_pages: int,
                      mapped_pages: Optional[int] = None) -> None:
        """Publish snapshot-time residency gauges for *space*."""
        if not self.registry.enabled:
            return
        acct = self.account(space)
        acct.resident_pages = resident_pages
        self.registry.set_gauge(acct.gauges["resident_pages"],
                                resident_pages)
        if mapped_pages is not None:
            self.registry.set_gauge(acct.gauges["mapped_pages"],
                                    mapped_pages)

    def publish(self) -> None:
        """Write the ``psi.*`` and per-space stall gauges.

        Called at snapshot time only: stall fractions depend on
        scheduling, so they are last-write gauges, never counters the
        parity suites compare.
        """
        registry = self.registry
        if not registry.enabled:
            return
        now = self.now()
        for name, window in (("psi.memory.some", self.some),
                             ("psi.memory.full", self.full)):
            for window_ms in STALL_WINDOWS_MS:
                registry.set_gauge(f"{name}.avg{int(window_ms)}",
                                   window.avg(window_ms, now))
            registry.set_gauge(f"{name}.total_ms", window.total_ms)
            registry.set_gauge(f"{name}.count", float(window.count))
        for kind, count in self.stall_counts.items():
            registry.set_gauge(series_name("psi.stall.count",
                                           {"kind": kind}), float(count))
        for acct in self.accounts.values():
            gauges = acct.gauges
            registry.set_gauge(gauges["stall_ms"], acct.stall.total_ms)
            stall = acct.stall
            registry.set_gauge(gauges["avg10"], stall.avg(10.0, now))
            registry.set_gauge(gauges["avg60"], stall.avg(60.0, now))
            registry.set_gauge(gauges["avg300"], stall.avg(300.0, now))

    def __repr__(self) -> str:
        return (f"PressureBoard({len(self.accounts)} spaces, "
                f"some={self.some.total_ms:.3f}ms, "
                f"full={self.full.total_ms:.3f}ms)")
