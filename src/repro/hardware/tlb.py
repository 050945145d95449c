"""A small fully-associative TLB with LRU replacement.

Optional: an MMU works without one.  When attached, ``translate``
consults it first; map/unmap/protect shoot down the affected entry.
Hit/miss statistics feed the MMU-port ablation benchmark.

Internally the TLB is **generation-tagged**: each entry carries the
generation its space had when it was filled, and ``flush_space`` just
bumps the space's generation and drops the space's key index — O(1)
in the TLB capacity instead of a linear scan.  Stale entries (older
generation than their space) are invisible to ``probe`` and are
reaped lazily when encountered; because a stale entry is exactly one
the eager implementation would already have deleted, every observable
counter (hit/miss/evict/shootdown/space_flush/full_flush) and
``occupancy`` matches the eager behaviour bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.hardware.mmu import Mapping
from repro.kernel import Counter


class TLB:
    """Translation lookaside buffer: (space, vpn) -> Mapping, LRU."""

    def __init__(self, entries: int = 64):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        # key -> (mapping, generation-at-fill); insertion order is LRU.
        self._entries: "OrderedDict[Tuple[int, int], Tuple[Mapping, int]]" \
            = OrderedDict()
        self._space_gen: Dict[int, int] = {}
        # Live keys per space: what an eager TLB would actually hold.
        self._space_keys: Dict[int, Set[Tuple[int, int]]] = {}
        self._live = 0
        #: hit/miss/evict/shootdown/flush counts; a manager registers
        #: them with its metrics registry as ``tlb.*``.
        self.stats = Counter()

    def probe(self, space: int, vpn: int) -> Optional[Mapping]:
        """Look up a translation; None on miss."""
        key = (space, vpn)
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] == self._space_gen.get(space, 0):
                self._entries.move_to_end(key)
                self.stats.add("hit")
                return entry[0]
            # Stale: a flushed-away entry the eager TLB no longer had.
            del self._entries[key]
        self.stats.add("miss")
        return None

    def fill(self, space: int, vpn: int, mapping: Mapping) -> None:
        """Install a translation after a successful table walk."""
        key = (space, vpn)
        gen = self._space_gen.get(space, 0)
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] == gen:
                self._entries.move_to_end(key)
                self._entries[key] = (mapping, gen)
                return
            # Stale: the eager TLB had already dropped it, so this is
            # a fresh install — including the capacity eviction.
            del self._entries[key]
        if self._live >= self.capacity:
            self._evict_one()
        self._track_live(space, key)
        self._entries[key] = (mapping, gen)

    def fill_batch(self, space: int,
                   entries: Iterable[Tuple[int, Mapping]]) -> None:
        """Install several translations of one space in order."""
        for vpn, mapping in entries:
            self.fill(space, vpn, mapping)

    def access_run(self, space: int, vpns: Iterable[int], walk,
                   base: int = 0) -> int:
        """Replay the probe/fill sequence of ``MMU.translate`` for a
        run of same-space *vpns* (each offset by *base*) known to be
        mapped; returns the number of TLB misses (table walks
        performed).

        This is the vectorized bus's TLB leg: for every vpn it performs
        exactly the state transitions :meth:`probe` (+ :meth:`fill` on
        a miss) would — LRU reordering, lazy stale reaping, capacity
        eviction — with the fill inlined (the key is known absent at
        fill time: a hit was taken or the stale entry reaped) and the
        hit/miss/evict counters batched into at most three adds.
        *walk* is called on each miss with the vpn and must return the
        :class:`Mapping` a table walk finds; it must be statistic-free
        — the caller charges the port's per-miss walk statistics in
        aggregate from the returned miss count (constant per port for a
        mapped vpn; see ``MMU.walk_stats_mapped``).

        Counter totals, entry order and occupancy are bit-identical to
        a per-vpn ``probe``/``fill`` loop; only the number of counter
        adds differs.
        """
        gen = self._space_gen.get(space, 0)
        space_gen_get = self._space_gen.get
        entries = self._entries
        entries_get = entries.get
        move_to_end = entries.move_to_end
        popitem = entries.popitem
        space_keys = self._space_keys
        keys_add = space_keys.setdefault(space, set()).add
        capacity = self.capacity
        live = self._live
        if base:
            vpns = [vpn + base for vpn in vpns]
        hits = misses = evicts = 0
        try:
            for vpn in vpns:
                key = (space, vpn)
                entry = entries_get(key)
                if entry is not None:
                    if entry[1] == gen:
                        move_to_end(key)
                        hits += 1
                        continue
                    # Stale: the eager TLB would already have dropped it.
                    del entries[key]
                misses += 1
                # Inlined fill() fresh-install branch (the key is known
                # absent here): evict the LRU live entry when full,
                # shedding stale ones silently on the way.
                if live >= capacity:
                    while entries:
                        old_key, (_, old_gen) = popitem(last=False)
                        if old_gen == space_gen_get(old_key[0], 0):
                            space_keys[old_key[0]].discard(old_key)
                            live -= 1
                            evicts += 1
                            break
                keys_add(key)
                live += 1
                entries[key] = (walk(vpn), gen)
        finally:
            self._live = live
            # Guarded adds: a counter the scalar loop never created
            # must not appear here as a zero-valued series.
            if hits:
                self.stats.add("hit", hits)
            if misses:
                self.stats.add("miss", misses)
            if evicts:
                self.stats.add("evict", evicts)
        return misses

    def retire_run(self, space: int, vpns, walk, base: int = 0) -> int:
        """Bulk-retire a run of same-space mapped accesses (page
        numbers offset by *base*); returns the number of TLB misses.

        Fast path: when every distinct page of the run is already a
        *live* entry (the common steady state), no access can miss, so
        the per-access replay collapses to its final effect — each
        touched entry moves to most-recently-used position in order of
        its **last** access (untouched entries keep their relative
        order below them, exactly as repeated ``move_to_end`` leaves
        them) and the hit counter moves once.  That retires an
        arbitrarily long run in O(distinct pages).  The residency scan
        aborts at the first non-resident page and defers to
        :meth:`access_run`, so a thrashing run pays almost nothing for
        the attempt.
        """
        keys = self._space_keys.get(space)
        if keys:
            seen: Set[int] = set()
            seen_add = seen.add
            order_rev: List[int] = []
            append = order_rev.append
            for vpn in reversed(vpns):
                if vpn not in seen:
                    if (space, vpn + base) not in keys:
                        return self.access_run(space, vpns, walk, base)
                    seen_add(vpn)
                    append(vpn)
            move_to_end = self._entries.move_to_end
            for vpn in reversed(order_rev):
                move_to_end((space, vpn + base))
            if len(vpns):
                self.stats.add("hit", len(vpns))
            return 0
        return self.access_run(space, vpns, walk, base)

    def _track_live(self, space: int, key: Tuple[int, int]) -> None:
        self._space_keys.setdefault(space, set()).add(key)
        self._live += 1

    def _evict_one(self) -> None:
        """Pop LRU entries until a *live* one goes (counted); stale
        entries shed on the way are dropped silently — the eager TLB
        would already have removed them."""
        while self._entries:
            key, (_, gen) = self._entries.popitem(last=False)
            if gen == self._space_gen.get(key[0], 0):
                self._space_keys[key[0]].discard(key)
                self._live -= 1
                self.stats.add("evict")
                return

    # -- invalidation ------------------------------------------------------------

    def invalidate(self, space: int, vpn: int) -> None:
        """Shoot down one entry (after map/unmap/protect)."""
        key = (space, vpn)
        entry = self._entries.pop(key, None)
        if entry is not None and entry[1] == self._space_gen.get(space, 0):
            self._space_keys[space].discard(key)
            self._live -= 1
            self.stats.add("shootdown")

    def invalidate_batch(self, space: int, vpns: Iterable[int]) -> None:
        """Shoot down several entries of one space (one call from the
        MMU batch ops instead of a per-page loop)."""
        gen = self._space_gen.get(space, 0)
        keys = self._space_keys.get(space)
        entries = self._entries
        dropped = 0
        for vpn in vpns:
            key = (space, vpn)
            entry = entries.pop(key, None)
            if entry is not None and entry[1] == gen:
                keys.discard(key)
                dropped += 1
        if dropped:
            self._live -= dropped
            self.stats.add("shootdown", dropped)

    def invalidate_range(self, space: int, start_vpn: int,
                         count: int) -> int:
        """Shoot down every entry in ``[start_vpn, start_vpn+count)``
        with one call — the extent-granular shootdown.  Cost is
        O(min(count, live entries of the space)), never O(count) alone,
        so invalidating a million-page range with three cached
        translations touches three entries.  Returns how many live
        entries were dropped (counted as ``shootdown``s, exactly as the
        per-page batch would)."""
        if count <= 0:
            return 0
        end_vpn = start_vpn + count
        keys = self._space_keys.get(space)
        dropped = 0
        if keys:
            if len(keys) <= count:
                victims = [key for key in keys
                           if start_vpn <= key[1] < end_vpn]
                for key in victims:
                    # Keys index only live entries, so each victim is a
                    # guaranteed drop (stale ones reap lazily, as ever).
                    del self._entries[key]
                    keys.discard(key)
                dropped = len(victims)
            else:
                gen = self._space_gen.get(space, 0)
                entries = self._entries
                for vpn in range(start_vpn, end_vpn):
                    key = (space, vpn)
                    entry = entries.pop(key, None)
                    if entry is not None and entry[1] == gen:
                        keys.discard(key)
                        dropped += 1
        if dropped:
            self._live -= dropped
            self.stats.add("shootdown", dropped)
        return dropped

    def flush_space(self, space: int) -> None:
        """Drop every entry belonging to *space* — O(1) in capacity:
        bump the space generation and forget its key index; the now-
        stale entries are reaped lazily."""
        keys = self._space_keys.pop(space, None)
        if keys:
            self._space_gen[space] = self._space_gen.get(space, 0) + 1
            self._live -= len(keys)
            self.stats.add("space_flush")

    def flush(self) -> None:
        """Drop everything."""
        self._entries.clear()
        self._space_keys.clear()
        self._space_gen.clear()
        self._live = 0
        self.stats.add("full_flush")

    @property
    def occupancy(self) -> int:
        """Entries currently cached (live — stale ones are already
        gone as far as any observer is concerned)."""
        return self._live

    def hit_rate(self) -> float:
        """Fraction of probes that hit (0.0 when never probed)."""
        hits = self.stats.get("hit")
        misses = self.stats.get("miss")
        total = hits + misses
        return hits / total if total else 0.0
