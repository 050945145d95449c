"""Shadow-object deferred copy (Mach's technique, per section 4.2.5).

"When Mach initializes a cache as a copy of an other, the source is
set read-only, and two new memory objects, the shadow objects, are
created.  The shadows are to keep the pages modified by the source and
copy objects respectively; the original pages remain in the source
object."

Model.  Each GMI cache acts as the *top* shadow of its chain: writes
always land in it.  A copy sinks the source cache's accumulated pages
into a freshly created immutable *original* object (so the source
cache becomes an empty shadow of it), and the destination cache starts
life as the second empty shadow of the same original.  Lookups walk
down the chain through parent links towards the original — the
direction is inverted with respect to history trees, which is the
whole point of the comparison.

The two pathologies the paper calls out emerge by construction:

1. pages modified by the parent before a fork stay in chain interiors
   even after the child exits, so repeated fork/exit grows chains
   unless a merge GC collapses them (``auto_merge``, "a major
   complication of the Mach algorithm");
2. the object a cache's lookups start from changes on every copy.
"""

from __future__ import annotations

from repro.kernel.clock import CostEvent
from repro.pvm.cache import Link, PvmCache
from repro.units import page_range


class ShadowMixin:
    """Shadow-chain construction and merge GC."""

    def _deferred_copy_shadow(self, src: PvmCache, src_offset: int,
                              dst: PvmCache, dst_offset: int, size: int,
                              on_reference: bool = False) -> None:
        """Copy by shadowing: sink src's pages, link both caches."""
        # The paper's accounting: two shadow objects per copy (one
        # shields the source, one the copy).  The destination cache
        # plays the second shadow's role directly.
        self.clock.charge(CostEvent.SHADOW_CREATE, 2)
        self._prepare_destination(dst, dst_offset, size)

        original = self._create_internal_cache(name_hint=f"obj({src.name})")
        original.dead = True          # internal: lives only for its children

        # Sink: the source's accumulated pages become the immutable
        # original object's; existing mappings stay valid (the frames
        # do not move) but are write-protected.  Pages whose
        # authoritative copy sits on the source's swap must come back
        # first — their identity moves to the original object (in real
        # Mach the whole memory object, backing store included, changes
        # hands; our per-page transplant needs the bytes resident).
        for offset in page_range(src_offset, size, self.page_size):
            page = src.pages.get(offset)
            if page is None and offset in src.owned:
                candidate = self._get_page_for_read(src, offset)
                if candidate.cache is src:
                    page = candidate
            if page is None:
                continue
            self._break_stubs(page)
            src.owned.discard(offset)
            self.global_map.remove(src, offset)
            self.residency.rebind(page, original, offset)
            original.owned.add(offset)
            self.global_map.insert(original, offset, page)
            self.hw.downgrade_page(page)

        # The original inherits the source's backing chain for the range.
        for start, end, link in src.parents.cut(src_offset,
                                                src_offset + size):
            parent = link.cache
            original.parents.add(start, end, link)
            parent.children.add(original)
            # Outside the copied range src may still reach this parent.
            if not any(other.cache is parent
                       for other in src.parents.values()):
                parent.children.discard(src)

        src.parents.add(src_offset, src_offset + size,
                        Link(original, src_offset))
        mode = "cor" if on_reference else "cow"
        dst.parents.add(dst_offset, dst_offset + size,
                        Link(original, src_offset, mode))
        original.children.update((src, dst))

    # ------------------------------------------------------------------
    # Merge garbage collection
    # ------------------------------------------------------------------

    def _reap_if_dead(self, cache: PvmCache) -> None:
        """Extend reaping with Mach's shadow-merge GC: an interior
        object left with a single child is folded into that child."""
        if cache.destroyed:
            return
        if cache.dead and not cache.children:
            self._release_cache(cache)
            return
        if self.auto_merge and cache.dead and len(cache.children) == 1:
            child = next(iter(cache.children))
            self._merge_dead_parent(child, cache)

    def merge_chains(self, cache: PvmCache) -> int:
        """Explicit merge pass (when ``auto_merge`` is off)."""
        return self.collapse_history(cache)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def chain_depth(self, cache: PvmCache, offset: int = 0) -> int:
        """Number of objects a lookup at *offset* may traverse."""
        return len(cache.ancestry(offset))

    def shadow_object_count(self) -> int:
        """Internal (shadow/original) objects currently alive."""
        return sum(1 for cache in self.caches() if cache.is_history)
