"""Vectorized access path: retire whole trace batches in one pass.

:class:`VectorBus` is the bulk front end of :class:`~repro.hardware.
bus.MemoryBus`: given a *compiled trace* — column arrays of page
indices and write flags (see :mod:`repro.workloads.tracecomp`) — it
classifies every access against the page tables in one pass (numpy
bit tests when available, a dict-cached loop otherwise), retires the
*hits* in bulk, and falls into the ordinary scalar bus — and thus the
whole trap/resolve/retry fault machinery — only for the accesses that
would trap, in first-touch order.

The contract is **observational equivalence** with the scalar loop::

    for page, is_write in trace:
        bus.write(space, base + page * page_size, b"\\x01")   # or read

Every observable is bit-identical afterwards:

* the fault sequence — each blocking access executes through the
  unchanged ``MemoryBus``, so every fault, in-flight join and arbiter
  decision fires exactly as under scalar replay, and
  the virtual clock (charged only by the fault engine) advances by the
  same unit-at-a-time accumulation;
* TLB state and statistics — hit runs retire through
  :meth:`~repro.hardware.tlb.TLB.retire_run`, which either applies the
  run's final LRU order directly (all pages resident) or replays the
  exact probe/fill/evict sequence; the port's walk statistics are
  charged per TLB miss in aggregate (constant per port for a mapped
  vpn — ``MMU.walk_stats_mapped``);
* bus counters (``reads``/``writes`` move in aggregate) and physical
  memory bytes (a written page gets its fill byte once — idempotent,
  because the scalar loop writes the same constant byte every time).

What makes bulk retirement safe: a *hit* (mapped page whose protection
admits the access) has **no** side effects on the manager above the
hardware — no clock charges, no descriptor updates, no residency
changes — so hits commute with each other and only their aggregate
counts are observable.  Mappings can change *only* inside fault
handling (the manager mutates tables exclusively while resolving a
trap), so the classification cache is dropped after every scalar
fallback and is otherwise trustworthy.

Layering: this module is part of ``repro.hardware`` and, like the rest
of the hardware layer, imports no backend, engine or cache code
(`check_layers` rule 9) — it speaks to the manager only through the
installed fault handler, exactly as the scalar bus does.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from repro.errors import InvalidOperation
from repro.fastpath import get_numpy
from repro.hardware.bus import MemoryBus
from repro.hardware.mmu import MMU, _READ_BIT, _SYSTEM_BIT, _WRITE_BIT
from repro.kernel import Counter

#: Accesses classified per vectorized round (bounds temporary arrays).
BATCH = 1 << 16

#: Dense classification tables are only worth it up to this page span;
#: a sparser trace falls back to the dict-cached engine.
MAX_DENSE_PAGES = 1 << 24


class VectorBus:
    """Bulk resolver over a :class:`MemoryBus`.

    Parameters
    ----------
    bus:
        The scalar bus to accelerate; its MMU port must implement the
        stat-free :meth:`~repro.hardware.mmu.MMU.peek` probe and
        declare ``walk_stats_mapped``.
    registry:
        Metrics registry that reads the ``vbus.*`` counts (None keeps
        them private).  Duck-typed: only its ``register`` is called.
    use_numpy:
        Per-instance override of the :mod:`repro.fastpath` gate.
    """

    def __init__(self, bus: MemoryBus, registry=None, *,
                 use_numpy: Optional[bool] = None):
        self.bus = bus
        self.mmu = bus.mmu
        self.memory = bus.memory
        if type(self.mmu).peek is MMU.peek \
                or self.mmu.walk_stats_mapped is None:
            raise InvalidOperation(
                f"MMU port {self.mmu.port_name!r} lacks peek() or "
                "walk_stats_mapped; the vectorized bus cannot classify "
                "against it")
        self._np = get_numpy(use_numpy)
        self.stats = Counter()
        if registry is not None:
            registry.register(self.stats, "vbus.")

    @property
    def backend(self) -> str:
        """``"numpy"`` or ``"python"`` — which engine replay() uses."""
        return "numpy" if self._np is not None else "python"

    # -- entry point ----------------------------------------------------------

    def replay(self, space: int, pages, writes, *, spaces=None,
               base_vpn: int = 0, supervisor: bool = False,
               fill: int = 0x01) -> int:
        """Replay a compiled trace; returns the accesses executed.

        *pages* and *writes* are parallel columns (page index relative
        to *base_vpn*; write flag as 0/1).  Each access touches byte 0
        of its page: reads read one byte, writes store the constant
        *fill* byte — the same access shape the scalar ``replay()``
        loop performs, which is what makes bulk write retirement
        idempotent.  With *spaces* (a third parallel column of
        hardware space ids) the trace is replayed segment by segment;
        otherwise every access targets *space*.
        """
        n = len(pages)
        if len(writes) != n:
            raise InvalidOperation(
                f"column length mismatch: {n} pages, {len(writes)} writes")
        if spaces is not None and len(spaces) != n:
            raise InvalidOperation(
                f"column length mismatch: {n} pages, {len(spaces)} spaces")
        self.stats.add("replays")
        fill_bytes = bytes((fill,))
        if n == 0:
            return 0
        if spaces is None:
            return self._segment(space, pages, writes, 0, n,
                                 base_vpn, supervisor, fill_bytes)
        done = 0
        for seg_space, start, end in self._segments(spaces, n):
            done += self._segment(seg_space, pages, writes, start, end,
                                  base_vpn, supervisor, fill_bytes)
        return done

    def _segments(self, spaces, n: int):
        """(space, start, end) runs of equal space id, in trace order."""
        np = self._np
        if np is not None:
            arr = self._as_i64(spaces)
            bounds = (np.flatnonzero(arr[1:] != arr[:-1]) + 1).tolist()
            starts = [0] + bounds
            ends = bounds + [n]
            for start, end in zip(starts, ends):
                yield int(arr[start]), start, end
            return
        start = 0
        current = spaces[0]
        for index in range(1, n):
            if spaces[index] != current:
                yield current, start, index
                start, current = index, spaces[index]
        yield current, start, n

    # -- classification -------------------------------------------------------

    def _classify(self, space: int, vpn: int,
                  supervisor: bool) -> Tuple[bool, bool, object]:
        """(read ok, write ok, mapping) for one page — stat-free."""
        mmu = self.mmu
        mmu._check_space(space)
        mapping = mmu.peek(space, vpn)
        if mapping is None:
            return (False, False, None)
        bits = mapping.bits
        if bits & _SYSTEM_BIT and not supervisor:
            return (False, False, mapping)
        return (bool(bits & _READ_BIT), bool(bits & _WRITE_BIT), mapping)

    # -- shared retirement pieces ---------------------------------------------

    def _retire_tlb(self, space: int, run, walk, count: int,
                    base: int = 0) -> None:
        """Replay the translation-side accounting of a run of hits:
        the TLB leg via ``retire_run`` plus the port walk statistics,
        charged per miss (per access when there is no TLB, since the
        scalar path then walks the tables every time)."""
        mmu = self.mmu
        tlb = mmu.tlb
        if tlb is not None:
            walks = tlb.retire_run(space, run, walk, base)
        else:
            walks = count
        if walks:
            stats_add = mmu.stats.add
            for name in mmu.walk_stats_mapped:
                stats_add(name, walks)

    def _scalar_access(self, space: int, vpn: int, write, shift: int,
                       supervisor: bool, fill_bytes: bytes) -> None:
        """One blocking access through the unchanged scalar bus."""
        vaddr = vpn << shift
        if write:
            self.bus.write(space, vaddr, fill_bytes, supervisor=supervisor)
        else:
            self.bus.read(space, vaddr, 1, supervisor=supervisor)

    def _flush(self, reads: int, writes_n: int, batches: int, fast: int,
               fallback: int) -> None:
        """Aggregate counter updates (guarded: never create a counter
        the scalar loop would not have created)."""
        bus_stats = self.bus.stats
        if reads:
            bus_stats.add("reads", reads)
        if writes_n:
            bus_stats.add("writes", writes_n)
        stats = self.stats
        if batches:
            stats.add("batches", batches)
        if fast:
            stats.add("fast", fast)
        if fallback:
            stats.add("fallback", fallback)

    # -- engines --------------------------------------------------------------

    def _segment(self, space: int, pages, writes, start: int, end: int,
                 base_vpn: int, supervisor: bool,
                 fill_bytes: bytes) -> int:
        self.mmu._check_space(space)
        if self._np is not None:
            done = self._segment_numpy(space, pages, writes, start, end,
                                       base_vpn, supervisor, fill_bytes)
            if done is not None:
                return done
        return self._segment_python(space, pages, writes, start, end,
                                    base_vpn, supervisor, fill_bytes)

    def _segment_python(self, space: int, pages, writes, start: int,
                        end: int, base_vpn: int, supervisor: bool,
                        fill_bytes: bytes) -> int:
        """Fallback engine: dict-cached classification, one pass."""
        memory = self.memory
        page_size = self.mmu.page_size
        shift = self.mmu._page_shift
        classify = self._classify
        cls: dict = {}
        cls_get = cls.get
        written: set = set()
        walk = lambda vpn: cls[vpn - base_vpn][2]  # noqa: E731
        reads = writes_n = fast = fallback = batches = 0
        i = start
        try:
            while i < end:
                # 1. extend a maximal run of allowed accesses.
                j = i
                while j < end:
                    vpn_rel = pages[j]
                    info = cls_get(vpn_rel)
                    if info is None:
                        info = classify(space, vpn_rel + base_vpn,
                                        supervisor)
                        cls[vpn_rel] = info
                    if not (info[1] if writes[j] else info[0]):
                        break
                    j += 1
                if j > i:
                    # 2. retire the hit run in bulk.
                    self._retire_tlb(space, pages[i:j], walk, j - i,
                                     base_vpn)
                    # Write pass: C-speed scan for the set flags, one
                    # fill-byte store per page not yet written.
                    wcount = 0
                    wflags = bytes(writes[i:j])
                    pos = wflags.find(1)
                    while pos >= 0:
                        wcount += 1
                        vpn_rel = pages[i + pos]
                        if vpn_rel not in written:
                            written.add(vpn_rel)
                            memory.write(
                                cls[vpn_rel][2].frame * page_size,
                                fill_bytes)
                        pos = wflags.find(1, pos + 1)
                    reads += (j - i) - wcount
                    writes_n += wcount
                    fast += j - i
                    batches += 1
                    i = j
                if i < end:
                    # 3. the blocking access goes through the scalar
                    # bus (fault machinery included); whatever the
                    # handler changed, the caches are now suspect.
                    self._scalar_access(space, pages[i] + base_vpn,
                                        writes[i], shift, supervisor,
                                        fill_bytes)
                    fallback += 1
                    i += 1
                    cls.clear()
                    written.clear()
        finally:
            self._flush(reads, writes_n, batches, fast, fallback)
        return end - start

    # -- numpy engine ---------------------------------------------------------

    def _as_i64(self, seq):
        np = self._np
        if isinstance(seq, np.ndarray):
            return seq if seq.dtype == np.int64 else seq.astype(np.int64)
        if isinstance(seq, array) and seq.typecode == "q":
            return np.frombuffer(seq, dtype=np.int64)
        return np.asarray(seq, dtype=np.int64)

    def _as_u8(self, seq):
        np = self._np
        if isinstance(seq, np.ndarray):
            return seq if seq.dtype == np.uint8 else seq.astype(np.uint8)
        if isinstance(seq, (bytes, bytearray)):
            return np.frombuffer(seq, dtype=np.uint8)
        return np.asarray(seq, dtype=np.uint8)

    def _segment_numpy(self, space: int, pages, writes, start: int,
                       end: int, base_vpn: int, supervisor: bool,
                       fill_bytes: bytes) -> Optional[int]:
        """Vectorized engine; returns None to defer to the fallback
        when the trace's page span is too sparse for dense tables."""
        np = self._np
        memory = self.memory
        page_size = self.mmu.page_size
        shift = self.mmu._page_shift
        classify = self._classify
        seg_pages = self._as_i64(pages)[start:end]
        seg_writes = self._as_u8(writes)[start:end]
        lo = int(seg_pages.min())
        if lo < 0:
            raise InvalidOperation("negative page index in compiled trace")
        span = int(seg_pages.max()) + 1
        if span > MAX_DENSE_PAGES:
            return None
        # Dense classification tables indexed by relative page number:
        # ok_* hold -1 (unknown) / 0 (deny) / 1 (allow).  The Mapping
        # objects themselves (for TLB fills and write frames) live in a
        # dict keyed the same way.
        ok_read = np.full(span, -1, dtype=np.int8)
        ok_write = np.zeros(span, dtype=np.int8)
        written = np.zeros(span, dtype=bool)
        mappings: dict = {}
        walk = lambda vpn: mappings[vpn - base_vpn]  # noqa: E731
        reads = writes_n = fast = fallback = batches = 0
        n = int(seg_pages.shape[0])
        i = 0
        try:
            while i < n:
                take = min(BATCH, n - i)
                rel = seg_pages[i:i + take]
                wfl = seg_writes[i:i + take]
                unknown = np.unique(rel[ok_read[rel] < 0])
                for vpn_rel in unknown.tolist():
                    okr, okw, mapping = classify(space, vpn_rel + base_vpn,
                                                 supervisor)
                    ok_read[vpn_rel] = 1 if okr else 0
                    ok_write[vpn_rel] = 1 if okw else 0
                    mappings[vpn_rel] = mapping
                allowed = np.where(wfl != 0, ok_write[rel],
                                   ok_read[rel]) == 1
                blocked = np.flatnonzero(~allowed)
                run_len = int(blocked[0]) if blocked.size else take
                if run_len:
                    run_rel = rel[:run_len]
                    run_abs = (run_rel + base_vpn if base_vpn
                               else run_rel).tolist()
                    self._retire_tlb(space, run_abs, walk, run_len)
                    wcount = int(wfl[:run_len].sum())
                    if wcount:
                        wpages = np.unique(run_rel[wfl[:run_len] != 0])
                        fresh = wpages[~written[wpages]]
                        if fresh.size:
                            written[fresh] = True
                            for vpn_rel in fresh.tolist():
                                memory.write(
                                    mappings[vpn_rel].frame * page_size,
                                    fill_bytes)
                    reads += run_len - wcount
                    writes_n += wcount
                    fast += run_len
                    batches += 1
                    i += run_len
                if run_len < take:
                    self._scalar_access(space,
                                        int(seg_pages[i]) + base_vpn,
                                        int(seg_writes[i]), shift,
                                        supervisor, fill_bytes)
                    fallback += 1
                    i += 1
                    ok_read.fill(-1)
                    written.fill(False)
                    mappings.clear()
        finally:
            self._flush(reads, writes_n, batches, fast, fallback)
        return n
