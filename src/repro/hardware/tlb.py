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

    def access_run(self, space: int, vpns, walk, base: int = 0) -> int:
        """Replay the probe/fill sequence of ``MMU.translate`` for a
        run of same-space *vpns* (a sequence; each offset by *base*)
        known to be mapped; returns the number of TLB misses (table
        walks performed).

        The run is replayed in **one recency-threshold pass**.  An LRU
        cache of C entries always holds exactly the C most recently
        used distinct keys (the LRU inclusion property), so an access
        hits if and only if fewer than C other distinct keys were
        touched since that key's previous access.  Number the free
        slots ``-C … -live-1``, the live entries in LRU order
        ``-live … -1`` and the run's accesses ``0, 1, …``; the
        threshold *T* is the position of the least recently used entry
        still cached.  An access whose key was last seen above *T*
        hits; at *T* it hits and *T* advances; below *T*, or never
        seen, it misses and *T* advances (evicting the entry at *T*, or
        taking a free slot).  Advancing skips every position whose key
        has been accessed again since.  Live entries are numbered only
        when *T* reaches them, so a run costs O(accesses), not
        O(capacity).

        The TLB is then left as the per-access loop would leave it: the
        untouched entries above *T* in their old order, then the run's
        keys still cached, in order of last access.  *walk* is called
        with the absolute vpn once for each of those final entries that
        a miss filled — at most ``capacity`` times per run, not once
        per miss — and must return the :class:`Mapping` a table walk
        finds; an entry that only ever hit keeps its old Mapping.
        *walk* must be statistic-free: the caller charges the port's
        per-miss walk statistics in aggregate from the returned miss
        count (constant per port for a mapped vpn; see
        ``MMU.walk_stats_mapped``).  All walks happen before the TLB
        changes, so a raising *walk* leaves it untouched.

        Stale entries (of flushed spaces) end where the per-access loop
        leaves them: one the run touches is dropped, and each eviction
        sheds those ahead of the entry it pops.  Counter totals
        (``hit``/``miss``/``evict``, each moved once), the entry order
        and occupancy are bit-identical to a per-vpn ``probe``
        (+ ``fill`` on a miss) loop.
        """
        if not len(vpns):
            return 0
        capacity = self.capacity
        gen_get = self._space_gen.get
        gen = gen_get(space, 0)
        live = self._live
        entries = self._entries
        cached = self._space_keys.get(space, ())
        initial = iter(entries.items())
        # Live entries numbered so far, as (key, position), and the
        # stale entries met on the way, as (position being reached, key).
        reached: List[Tuple[Tuple[int, int], int]] = []
        stale: List[Tuple[int, Tuple[int, int]]] = []
        pos: Dict[int, int] = {}         # vpn - base -> last position
        pos_get = pos.get
        missed: Set[int] = set()
        never = -capacity - 1

        def reach(t: int) -> bool:
            """Number the next live entry *t* (noting the stale ones
            before it); False if the run has already moved it up."""
            key, entry = next(initial)
            while entry[1] != gen_get(key[0], 0):
                stale.append((t, key))
                key, entry = next(initial)
            reached.append((key, t))
            if key[0] != space:
                return True
            r = key[1] - base
            if r in pos:
                return False
            pos[r] = t
            return True

        T = -capacity
        if live == capacity:
            reach(T)
        # moved[p] is set once the key at run position p is accessed
        # again, so advancing T skips it.
        moved = [0] * len(vpns)
        misses = 0
        last = never                      # T at the last miss
        # While T is below the run, a key may still be an untouched
        # live entry, and advancing may have to number the next one.
        for q, v in enumerate(vpns):
            p = pos_get(v, never)
            if p > T or p == never and (space, v + base) in cached:
                pos[v] = q                # a hit above the LRU entry
                if p >= 0:
                    moved[p] = 1
                continue
            pos[v] = q
            # p == T: a hit on the LRU entry, which moves up.  Else a
            # miss, which evicts the LRU entry (or takes a free slot).
            if p != T:
                misses += 1
                missed.add(v)
                last = T
            T += 1
            while T < 0 and T >= -live and not reach(T):
                T += 1
            if T >= 0:
                break
        if T >= 0:
            # Every live entry is numbered, so an unseen key misses.
            # This loop drops the tests above, which makes the whole
            # pass about 8% faster on a run that thrashes the TLB.
            while moved[T]:
                T += 1
            before = misses
            missed_add = missed.add
            for q, v in enumerate(vpns[q + 1:], q + 1):
                p = pos_get(v, never)
                pos[v] = q
                if p > T:
                    moved[p] = 1
                    continue
                if p != T:
                    misses += 1
                    missed_add(v)
                T += 1
                while moved[T]:
                    T += 1
            if misses > before:
                last = T

        # An eviction sheds the stale entries ahead of the one it pops;
        # one of a run entry (last >= 0) sheds every stale entry.
        if last >= 0:
            stale.extend((0, key) for key, _ in initial)
        # The final entries above T: the run's keys still cached, in
        # order of last access, each miss-filled one walked once.
        lo = T if T > 0 else 0
        tail = [v for v, p in pos.items() if p >= lo]
        tail.sort(key=pos.__getitem__)
        walked = {v: walk(v + base) for v in tail if v in missed}
        space_keys = self._space_keys
        for key, t in reached:
            if t >= T:
                break
            if key[0] == space and pos[key[1] - base] >= 0:
                continue                  # the run touched it: see below
            del entries[key]              # untouched and passed: evicted
            space_keys[key[0]].discard(key)
        for t, key in stale:
            if t <= last:
                del entries[key]
        # A run without misses only hit live keys, so the set exists.
        keys = space_keys.setdefault(space, set())
        for v, p in pos.items():
            if 0 <= p < lo:               # touched, then evicted
                key = (space, v + base)
                entries.pop(key, None)
                keys.discard(key)
        for v in tail:
            key = (space, v + base)
            if v in walked:
                entries.pop(key, None)    # a stale entry, if any
                entries[key] = (walked[v], gen)
                keys.add(key)
            else:
                entries.move_to_end(key)
        free = capacity - live
        evicts = misses - free if misses > free else 0
        self._live = live + misses - evicts
        # Guarded adds: a counter the scalar loop never created must
        # not appear here as a zero-valued series.
        hits = len(vpns) - misses
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
        the run collapses to its final effect — each touched entry
        moves to most-recently-used position in order of its **last**
        access (untouched entries keep their relative order below
        them, exactly as repeated ``move_to_end`` leaves them) and the
        hit counter moves once.  That retires an arbitrarily long run
        in O(distinct pages) without calling *walk*.  The residency
        scan aborts at the first non-resident page and hands the run to
        :meth:`access_run`'s one-pass replay, which calls *walk* once
        per final entry that a miss filled (at most ``capacity``
        times), not once per miss.
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
