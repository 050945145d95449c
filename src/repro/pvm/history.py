"""History objects: the paper's deferred-copy technique (section 4.2).

The history tree links cache descriptors through two mirror-image
fragment lists:

* a copy *destination* holds **parent links** — where to find pages it
  does not hold (looking upwards, towards the root);
* a copy *source* holds **guard links** — which of its fragments must
  preserve the original page value into its *history object* before
  being overwritten.

Shape invariant (4.2.1): the tree is binary and each source of a copy
has a single immediate descendant, its history object.  The first copy
makes the destination itself the history; a further copy from the same
source splices a *working object* between the source and its previous
descendant (Figures 3.c / 3.d).

This module is a mixin of :class:`repro.pvm.pvm.PagedVirtualMemory`;
it provides ``cache_copy`` / ``cache_move`` and the page-lookup /
write-resolution machinery shared with the fault path.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidOperation
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import AccessMode
from repro.kernel.clock import CostEvent
from repro.pvm.cache import Link, PvmCache
from repro.pvm.page import CowStub, RealPageDescriptor, SyncStub
from repro.units import page_range


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of ``[start, end)`` ranges as sorted disjoint ranges."""
    if not ranges:
        return []
    spans = sorted(ranges)
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class HistoryMixin:
    """Deferred copy via history trees, grafted onto the PVM."""

    # ------------------------------------------------------------------
    # Copy entry points (Table 1)
    # ------------------------------------------------------------------

    def cache_copy(self, src: PvmCache, src_offset: int, dst: PvmCache,
                   dst_offset: int, size: int,
                   policy: CopyPolicy = CopyPolicy.AUTO,
                   on_reference: bool = False) -> None:
        """Copy [src_offset, +size) of *src* into *dst* at *dst_offset*."""
        if size <= 0:
            raise InvalidOperation("copy size must be positive")
        with self.lock:
            policy = self._effective_policy(src, src_offset, dst, dst_offset,
                                            size, policy)
            if policy is CopyPolicy.HISTORY:
                self._deferred_copy_history(src, src_offset, dst, dst_offset,
                                            size, on_reference)
            elif policy is CopyPolicy.PER_PAGE:
                self._deferred_copy_per_page(src, src_offset, dst, dst_offset,
                                             size)
            else:
                self._eager_copy(src, src_offset, dst, dst_offset, size)

    def cache_move(self, src: PvmCache, src_offset: int, dst: PvmCache,
                   dst_offset: int, size: int) -> None:
        """Move data: source contents become undefined, which lets the
        PVM re-assign real pages to the destination cache instead of
        copying, whenever alignment allows (section 3.3.1)."""
        if size <= 0:
            raise InvalidOperation("move size must be positive")
        with self.lock:
            aligned = (
                src_offset % self.page_size == 0
                and dst_offset % self.page_size == 0
                and size % self.page_size == 0
            )
            if not aligned:
                self._eager_copy(src, src_offset, dst, dst_offset, size)
                self._discard_range(src, src_offset, size)
                return
            self._move_pages(src, src_offset, dst, dst_offset, size)

    def _effective_policy(self, src: PvmCache, src_offset: int, dst: PvmCache,
                          dst_offset: int, size: int,
                          policy: CopyPolicy) -> CopyPolicy:
        """Resolve AUTO and veto deferral when it cannot apply."""
        aligned = (
            src_offset % self.page_size == 0
            and dst_offset % self.page_size == 0
            and size % self.page_size == 0
        )
        if policy is CopyPolicy.AUTO:
            if not aligned or src is dst:
                return CopyPolicy.EAGER
            if size <= self.per_page_threshold:
                return CopyPolicy.PER_PAGE
            policy = CopyPolicy.HISTORY
        if policy is CopyPolicy.EAGER:
            return policy
        if not aligned:
            raise InvalidOperation(
                "deferred copies require page-aligned offsets and size"
            )
        if src is dst:
            raise InvalidOperation("deferred copy within one cache")
        if policy is CopyPolicy.HISTORY and self._is_ancestor(dst, src):
            # Linking dst under src would create a cycle in the tree
            # (copying a child's data back up to its ancestor).
            return CopyPolicy.EAGER
        return policy

    def _is_ancestor(self, candidate: PvmCache, cache: PvmCache) -> bool:
        """True when *candidate* appears in *cache*'s parent closure."""
        seen = set()
        stack = [cache]
        while stack:
            current = stack.pop()
            if current is candidate:
                return True
            if id(current) in seen:
                continue
            seen.add(id(current))
            stack.extend(link.cache for link in current.parents.values())
        return False

    # ------------------------------------------------------------------
    # History-tree construction (sections 4.2.2 - 4.2.4)
    # ------------------------------------------------------------------

    def _deferred_copy_history(self, src: PvmCache, src_offset: int,
                               dst: PvmCache, dst_offset: int, size: int,
                               on_reference: bool) -> None:
        self.clock.charge(CostEvent.HISTORY_TREE_SETUP)
        self._prepare_destination(dst, dst_offset, size)

        if src.guards.overlapping(src_offset, src_offset + size):
            # Second (third, ...) copy from this source: splice a
            # working object between src and its present descendant
            # (Figure 3.c), so the shape invariant is preserved.
            parent = self._insert_working_object(src, src_offset, size)
        else:
            # Simple case (Figure 3.a): the destination itself becomes
            # the history object of the source for this fragment.
            src.guards.add(src_offset, src_offset + size,
                           Link(dst, dst_offset))
            parent = src

        mode = "cor" if on_reference else "cow"
        dst.parents.add(dst_offset, dst_offset + size,
                        Link(parent, src_offset, mode))
        parent.children.add(dst)

        # Write-protect the source's resident pages of the fragment so
        # that the next write faults and preserves the original.
        for offset in page_range(src_offset, size, self.page_size):
            page = src.pages.get(offset)
            if page is not None:
                self.hw.downgrade_page(page)

    def _insert_working_object(self, src: PvmCache, src_offset: int,
                               size: int) -> PvmCache:
        """Splice a working cache *w* between *src* and its children.

        After this, *w* is src's history object and the parent of the
        previous descendant(s); all existing guards of *src* are merged
        with the new fragment and point at *w* (identity offsets: a
        working object mirrors its source's offset space).
        """
        working = self._create_internal_cache(name_hint=f"w({src.name})")

        # Children of src re-parent to w, fragment offsets unchanged.
        for child in list(src.children):
            for start, end, link in child.parents.items():
                if link.cache is src:
                    child.parents.remove(start)
                    child.parents.add(start, end,
                                      Link(working, link.offset, link.mode))
            src.children.discard(child)
            working.children.add(child)

        # w reads through to src over the whole span it may be asked
        # about: the union of the old guard ranges and the new fragment.
        ranges = [(start, end) for start, end, _ in src.guards.items()]
        ranges.append((src_offset, src_offset + size))
        merged = _merge_ranges(ranges)

        src.guards.clear()
        for start, end in merged:
            src.guards.add(start, end, Link(working, start))
            working.parents.add(start, end, Link(src, start))
        src.children.add(working)
        return working

    def _create_internal_cache(self, name_hint: str) -> PvmCache:
        """Create a cache unilaterally (a history/working object) and
        declare it to the upper layer via the segmentCreate upcall so
        that it can be swapped out (section 3.3.3)."""
        cache = self.cache_create(self.default_provider, name=name_hint,
                                  is_history=True)
        cache.segment = self.default_provider.segment_create(cache)
        return cache

    def _prepare_destination(self, dst: PvmCache, dst_offset: int,
                             size: int) -> None:
        """Make [dst_offset, +size) of *dst* ready to receive a copy.

        The destination may already hold data (copy into an existing
        segment, section 4.2.4): its own pages in the range are
        discarded, but first (a) any history descendant of *dst* gets
        the pre-image it is owed, and (b) per-page stubs hanging off
        those pages are materialized.
        """
        for offset in page_range(dst_offset, size, self.page_size):
            # Translations serving this (dst, offset) — including read
            # mappings of ancestor/stub-source frames — go stale with
            # the content change: shoot them down now.
            self.hw.shootdown_served(dst, offset)
            # Detached per-page stubs referencing (dst, offset) pin the
            # pre-copy value: materialize them before it changes hands.
            for stub in list(dst.incoming_stubs):
                if stub.src_page is None and stub.src_cache is dst \
                        and offset <= stub.src_offset < offset + self.page_size:
                    self._resolve_cow_stub_write(stub)
            if dst.guards.get(offset) is not None:
                self._ensure_history_version(dst, offset)
            entry = self.global_map.lookup(dst, offset)
            if isinstance(entry, SyncStub):
                self._wait_stub(entry)
                entry = self.global_map.lookup(dst, offset)
            if isinstance(entry, RealPageDescriptor):
                self._break_stubs(entry)
                self._drop_page(entry, save=False)
            elif isinstance(entry, CowStub):
                entry.unthread()
                self.global_map.discard(dst, offset)
            dst.owned.discard(offset)

        removed = dst.parents.cut(dst_offset, dst_offset + size)
        for start, end, link in removed:
            # Dissolve the mirror guard: if dst served as this parent's
            # history object over the removed span, the parent must stop
            # pushing pre-images there — dst's content is being replaced
            # and no longer preserves the parent's originals.
            parent = link.cache
            link_end = link.offset + (end - start)
            for guard_start, guard_end, guard in \
                    parent.guards.overlapping(link.offset, link_end):
                if guard.cache is dst:
                    parent.guards.cut(max(guard_start, link.offset),
                                      min(guard_end, link_end))
        touched_parents = {link.cache for _, _, link in removed}
        for parent in touched_parents:
            if not any(link.cache is parent
                       for link in dst.parents.values()):
                parent.children.discard(dst)
                self._reap_if_dead(parent)

    # ------------------------------------------------------------------
    # Page lookup and write resolution (sections 4.2.2 - 4.2.3)
    # ------------------------------------------------------------------

    def _get_page_for_read(self, cache: PvmCache, offset: int
                           ) -> RealPageDescriptor:
        """Resident page holding the current value of (cache, offset),
        possibly an ancestor's (cache misses are found looking upwards
        in the tree), pulling from the segment when nowhere resident."""
        current, current_offset = cache, offset
        hops = 0
        while True:
            entry = self.global_map.lookup(current, current_offset)
            if isinstance(entry, SyncStub):
                self._wait_stub(entry)
                continue
            if isinstance(entry, CowStub):
                if entry.src_page is not None:
                    return entry.src_page
                current, current_offset = entry.src_cache, entry.src_offset
                continue
            if isinstance(entry, RealPageDescriptor):
                entry.referenced = True
                # Depth samples feed the history.depth histogram only
                # while a sink is attached: the disabled path must stay
                # a plain integer increment.
                if hops and self.probe.enabled:
                    self.probe.observe("history.depth", hops,
                                       backend=self.name)
                return entry
            hit = current.parents.interval_at(current_offset)
            if hit is not None and current_offset not in current.owned:
                start, _, link = hit
                current_offset = link.offset + (current_offset - start)
                current = link.cache
                hops += 1
                self.clock.charge(self.LOOKUP_EVENT)
                continue
            self._pull_in(current, current_offset, AccessMode.READ)

    def _get_writable_page(self, cache: PvmCache, offset: int
                           ) -> RealPageDescriptor:
        """Resolve a write to (cache, offset): break per-page stubs,
        preserve the pre-image into the history object, materialize a
        private copy when the current value lives in an ancestor, and
        return the cache's own page, marked dirty."""
        while True:
            entry = self.global_map.lookup(cache, offset)
            if isinstance(entry, SyncStub):
                self._wait_stub(entry)
                continue
            if isinstance(entry, CowStub):
                page = self._resolve_cow_stub_write(entry)
                # Fall through to the guard check below with an owned page.
                entry = page
            if isinstance(entry, RealPageDescriptor):
                if entry.cow_stubs:
                    self._break_stubs(entry)
                if cache.guards.get(offset) is not None:
                    self._ensure_history_version(cache, offset)
                if not entry.write_granted:
                    cache.provider.get_write_access(cache, offset,
                                                    self.page_size)
                    entry.write_granted = True
                entry.dirty = True
                entry.referenced = True
                return entry
            if cache.parents.get(offset) is not None \
                    and offset not in cache.owned:
                page = self._materialize_private(cache, offset)
                if cache.guards.get(offset) is not None:
                    # 4.2.3's complication: the history object must also
                    # get its own copy (same original value).
                    self._ensure_history_version(cache, offset)
                page.dirty = True
                return page
            self._pull_in(cache, offset, AccessMode.WRITE)

    def _materialize_private(self, cache: PvmCache, offset: int
                             ) -> RealPageDescriptor:
        """Allocate a private frame for (cache, offset), initialised
        from the current value found up the tree."""
        source = self._get_page_for_read_through_parent(cache, offset)
        frame = self._allocate_frame()
        self.memory.copy_frame(source.frame, frame)
        self.clock.charge(CostEvent.BCOPY_PAGE)
        page = RealPageDescriptor(cache, offset, frame)
        self.global_map.insert(cache, offset, page)
        cache.owned.add(offset)
        # Readers elsewhere may still map the ancestor's frame for this
        # (cache, offset): they must refault onto the private copy.
        self.hw.shootdown_served(cache, offset)
        self.cache_engine.insert(page)
        return page

    def _get_page_for_read_through_parent(self, cache: PvmCache, offset: int
                                          ) -> RealPageDescriptor:
        """Current value of (cache, offset) via the parent chain,
        assuming the cache has no own version at that offset."""
        hit = cache.parents.interval_at(offset)
        if hit is None:
            raise InvalidOperation("no parent fragment to read through")
        start, _, link = hit
        self.clock.charge(self.LOOKUP_EVENT)
        return self._get_page_for_read(
            link.cache, link.offset + (offset - start)
        )

    def _ensure_history_version(self, cache: PvmCache, offset: int) -> None:
        """Guarantee the history object holds the original value of
        (cache, offset), copying it there if it does not yet."""
        hit = cache.guards.interval_at(offset)
        if hit is None:
            return
        start, _, link = hit
        history = link.cache
        history_offset = link.offset + (offset - start)
        if history_offset in history.pages or history_offset in history.owned:
            return
        # Skip as well when a stub marks the slot as occupied/in transit.
        entry = self.global_map.lookup(history, history_offset)
        if entry is not None:
            return
        # Locating the history slot is one hop in the tree.
        self.clock.charge(self.LOOKUP_EVENT)
        source = self._current_value_page(cache, offset)
        frame = self._allocate_frame()
        self.memory.copy_frame(source.frame, frame)
        self.clock.charge(CostEvent.BCOPY_PAGE)
        page = RealPageDescriptor(history, history_offset, frame)
        page.dirty = True
        self.global_map.insert(history, history_offset, page)
        history.owned.add(history_offset)
        self.cache_engine.insert(page)
        cache.stats.copy_faults += 1

    def _current_value_page(self, cache: PvmCache, offset: int
                            ) -> RealPageDescriptor:
        """Page holding the current logical value of (cache, offset):
        the cache's own page when resident, else found up the tree,
        else pulled in."""
        own = cache.pages.get(offset)
        if own is not None:
            return own
        return self._get_page_for_read(cache, offset)

    # ------------------------------------------------------------------
    # Eager copy and page moves
    # ------------------------------------------------------------------

    def _eager_copy(self, src: PvmCache, src_offset: int, dst: PvmCache,
                    dst_offset: int, size: int) -> None:
        """Copy data now, page by page (byte-accurate, any alignment)."""
        remaining = size
        so, do = src_offset, dst_offset
        while remaining > 0:
            src_page_base = so - (so % self.page_size)
            chunk = min(self.page_size - (so - src_page_base), remaining)
            data = self.cache_read_locked(src, so, chunk)
            self.cache_write_locked(dst, do, data)
            if chunk == self.page_size:
                self.clock.charge(CostEvent.BCOPY_PAGE)
            else:
                self.clock.charge(CostEvent.BCOPY_BYTE, chunk)
            so += chunk
            do += chunk
            remaining -= chunk

    def _move_pages(self, src: PvmCache, src_offset: int, dst: PvmCache,
                    dst_offset: int, size: int) -> None:
        """Re-assign page frames from *src* to *dst* when possible."""
        self._prepare_destination(dst, dst_offset, size)
        for index, offset in enumerate(
                page_range(src_offset, size, self.page_size)):
            dst_page_offset = dst_offset + index * self.page_size
            page = src.pages.get(offset)
            if page is not None and not page.cow_stubs and not page.pinned \
                    and src.guards.get(offset) is None:
                # Re-assign the frame: no data movement at all.
                self.hw.shootdown(page)
                src.owned.discard(offset)
                self.global_map.remove(src, offset)
                self.residency.rebind(page, dst, dst_page_offset)
                page.dirty = True
                dst.owned.add(dst_page_offset)
                self.global_map.insert(dst, dst_page_offset, page)
            else:
                # Stubbed / guarded / non-resident page: degrade to copy.
                source = self._current_value_page(src, offset)
                target = self._get_writable_page(dst, dst_page_offset)
                self.memory.copy_frame(source.frame, target.frame)
                self.clock.charge(CostEvent.BCOPY_PAGE)
                self._discard_range(src, offset, self.page_size)

    def _discard_range(self, src: PvmCache, offset: int, size: int) -> None:
        """Make source contents undefined after a move (guards are
        honoured first: the history object keeps the original)."""
        for page_offset in page_range(offset, size, self.page_size):
            self.hw.shootdown_served(src, page_offset)
            for stub in list(src.incoming_stubs):
                if stub.src_page is None and stub.src_cache is src \
                        and stub.src_offset == page_offset:
                    self._resolve_cow_stub_write(stub)
            if src.guards.get(page_offset) is not None:
                self._ensure_history_version(src, page_offset)
            page = src.pages.get(page_offset)
            if page is not None and not page.pinned:
                # Pinned pages keep their frame (the lockInMemory
                # contract); "undefined" content may legally stay put.
                self._break_stubs(page)
                self._drop_page(page, save=False)

    # ------------------------------------------------------------------
    # History-tree garbage collection (section 4.2.5's "should be merged")
    # ------------------------------------------------------------------

    def collapse_history(self, cache: PvmCache) -> int:
        """Merge *cache*'s dead single-child ancestors into it.

        Chains of inactive history objects build up when a process
        forks, exits, and its child repeats the pattern.  The paper
        notes such chains "should be merged"; this optional pass does
        so.  Returns the number of pages re-assigned.
        """
        with self.lock:
            moved = 0
            progress = True
            while progress:
                progress = False
                for link in cache.parents.values():
                    parent = link.cache
                    if not parent.dead or len(parent.children) != 1:
                        continue
                    moved += self._merge_dead_parent(cache, parent)
                    progress = True
                    break
            return moved

    def _merge_dead_parent(self, cache: PvmCache, parent: PvmCache) -> int:
        """Fold one dead, single-child *parent* into *cache*.

        Pages the parent holds (and the child lacks) are re-assigned to
        the child — no data movement; the child then inherits the
        parent's own parent links (spliced with composed offsets), and
        the parent is finally released.
        """
        moved = 0
        fragments = [
            (start, end, link) for start, end, link in cache.parents.items()
            if link.cache is parent
        ]
        for start, end, link in fragments:
            for index in range(0, end - start, self.page_size):
                child_offset = start + index
                parent_offset = link.offset + index
                if (child_offset in cache.pages
                        or child_offset in cache.owned):
                    continue
                page = parent.pages.get(parent_offset)
                if page is None and parent_offset in parent.owned:
                    # The parent's version is swapped out: pull it back,
                    # then hand the frame over.
                    candidate = self._get_page_for_read(parent, parent_offset)
                    if candidate.cache is parent:
                        page = candidate
                if page is None:
                    entry = self.global_map.lookup(parent, parent_offset)
                    if isinstance(entry, CowStub):
                        # A per-page copy the parent received: its
                        # content goes with the merge, so materialize it.
                        page = self._resolve_cow_stub_write(entry)
                if page is None:
                    continue
                self.hw.shootdown(page)
                parent.owned.discard(parent_offset)
                self.global_map.remove(parent, parent_offset)
                self.residency.rebind(page, cache, child_offset)
                cache.owned.add(child_offset)
                self.global_map.insert(cache, child_offset, page)
                self.clock.charge(self.MERGE_EVENT)
                moved += 1

        # Splice: the child inherits the parent's own parent links over
        # each merged fragment's span, with composed offsets.
        splices = []
        for start, end, link in fragments:
            link_end = link.offset + (end - start)
            for sub_start, sub_end, grand in \
                    parent.parents.overlapping(link.offset, link_end):
                lo = max(sub_start, link.offset)
                hi = min(sub_end, link_end)
                splices.append((
                    start + (lo - link.offset),
                    start + (hi - link.offset),
                    Link(grand.cache, grand.offset + (lo - sub_start),
                         link.mode),
                ))

        for start, end, _ in fragments:
            cache.parents.cut(start, end)
        for start, end, new_link in splices:
            cache.parents.add(start, end, new_link)
            new_link.cache.children.add(cache)

        parent.children.discard(cache)
        self._release_cache(parent)
        return moved
