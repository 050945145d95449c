"""Cache access and management operations (Tables 1 and 4).

The unified-cache property of the GMI (section 3.2) lives here: the
same local cache serves explicit ``read``/``write`` *and* mapped
access, so there is no dual-caching inconsistency by construction —
asserted directly by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidOperation
from repro.gmi.types import AccessMode, Protection
from repro.kernel.clock import CostEvent
from repro.pvm.cache import PvmCache
from repro.pvm.page import CowStub, RealPageDescriptor, SyncStub
from repro.units import page_range


@dataclass
class Cap:
    """Payload of a protection-cap fragment (cache.setProtection)."""

    protection: Protection

    def shifted(self, delta: int) -> "Cap":
        """Caps are positionless: splitting returns the same payload."""
        return self


class CacheOpsMixin:
    """Explicit cache access, fill/flush/sync, caps and pinning."""

    # ------------------------------------------------------------------
    # Explicit data access through the cache
    # ------------------------------------------------------------------

    def cache_read(self, cache: PvmCache, offset: int, size: int) -> bytes:
        """Explicit read through the cache (Table 1's unified access)."""
        with self.lock:
            return self.cache_read_locked(cache, offset, size)

    def cache_read_locked(self, cache: PvmCache, offset: int,
                          size: int) -> bytes:
        """Read body; caller holds the manager lock."""
        if size < 0 or offset < 0:
            raise InvalidOperation("negative read bounds")
        self._count_explicit_access(cache, offset, size)
        start_page = offset - (offset % self.page_size)
        if offset + size - start_page > self.page_size \
                and getattr(cache.provider, "batched", False):
            # Multi-page read: batch contiguous missing pages into
            # ranged pullIns before the per-page copy loop.
            self._prefetch_range(cache, start_page,
                                 offset + size - start_page)
        parts = []
        position = offset
        end = offset + size
        while position < end:
            page_offset = position - (position % self.page_size)
            chunk = min(self.page_size - (position - page_offset),
                        end - position)
            page = self._page_for_explicit_read(cache, page_offset)
            base = page.frame * self.page_size
            parts.append(self.memory.read(
                base + (position - page_offset), chunk))
            position += chunk
        return b"".join(parts)

    def _count_explicit_access(self, cache: PvmCache, offset: int,
                               size: int) -> None:
        """Count `cache.hit` for the pages of an explicit access that
        are already resident (misses surface as `cache.miss` from the
        engine's pull path)."""
        if size <= 0 or not self.probe.enabled:
            return
        hits = sum(
            1 for page_offset in page_range(offset, size, self.page_size)
            if page_offset in cache.pages
        )
        if hits:
            self.probe.count("cache.hit", hits, segment=cache.name)

    def _page_for_explicit_read(self, cache: PvmCache,
                                page_offset: int) -> RealPageDescriptor:
        """Resolve one page for explicit reading, honouring the
        copy-on-reference mode (any access materializes a private copy)."""
        fragment = cache.parents.find(page_offset)
        if (fragment is not None and fragment.payload.mode == "cor"
                and page_offset not in cache.owned
                and page_offset not in cache.pages):
            return self._materialize_private(cache, page_offset)
        return self._get_page_for_read(cache, page_offset)

    def cache_write(self, cache: PvmCache, offset: int, data: bytes) -> None:
        """Explicit write through the cache (COW-safe)."""
        with self.lock:
            self.cache_write_locked(cache, offset, data)

    def cache_write_locked(self, cache: PvmCache, offset: int,
                           data: bytes) -> None:
        """Write body; caller holds the manager lock."""
        self._count_explicit_access(cache, offset, len(data))
        position = offset
        index = 0
        end = offset + len(data)
        while position < end:
            page_offset = position - (position % self.page_size)
            chunk = min(self.page_size - (position - page_offset),
                        end - position)
            page = self._get_writable_page(cache, page_offset)
            base = page.frame * self.page_size
            self.memory.write(base + (position - page_offset),
                              data[index:index + chunk])
            position += chunk
            index += chunk

    # ------------------------------------------------------------------
    # Table 4: fillUp / fillZero / copyBack / moveBack
    # ------------------------------------------------------------------

    def cache_fill_up(self, cache: PvmCache, offset: int, data: bytes) -> None:
        """Deliver data for a pullIn (or cache it spontaneously)."""
        if offset % self.page_size:
            raise InvalidOperation("fillUp offsets must be page-aligned")
        with self.lock:
            position = 0
            while position < len(data):
                page_offset = offset + position
                chunk = data[position:position + self.page_size]
                self._fill_one(cache, page_offset, chunk, zero=False)
                position += self.page_size

    def cache_fill_zero(self, cache: PvmCache, offset: int, size: int) -> None:
        """Zero-fill resolution for anonymous memory (bzero-priced)."""
        if offset % self.page_size:
            raise InvalidOperation("fillZero offsets must be page-aligned")
        with self.lock:
            for page_offset in page_range(offset, size, self.page_size):
                self._fill_one(cache, page_offset, b"", zero=True)

    def _fill_one(self, cache: PvmCache, offset: int, data: bytes,
                  zero: bool) -> None:
        if self._cluster_fill is not None \
                and self._cluster_redirect_fill(cache, offset, data, zero):
            # A prefault window is being filled: the frame is parked in
            # the cluster index, invisible until its fault adopts it.
            return
        if self._cluster_index:
            # A spontaneous fill supersedes any parked prefault here.
            self._cluster_cancel_range(cache, offset, self.page_size)
        entry = self.global_map.lookup(cache, offset)
        if isinstance(entry, RealPageDescriptor):
            # Spontaneous refresh of an already-cached page.
            if zero:
                self.memory.zero_frame(entry.frame)
                self.clock.charge(CostEvent.BZERO_PAGE)
            else:
                self.memory.write_frame(entry.frame, data)
                self.clock.charge(CostEvent.BCOPY_PAGE)
            return
        if isinstance(entry, CowStub):
            raise InvalidOperation("fillUp would overwrite a deferred copy")

        frame = self._allocate_frame()
        if zero:
            self.memory.zero_frame(frame)
            self.clock.charge(CostEvent.BZERO_PAGE)
        else:
            self.memory.write_frame(frame, data)
            self.clock.charge(CostEvent.BCOPY_PAGE)

        if isinstance(entry, SyncStub):
            granted = (entry.access_mode is AccessMode.WRITE) or zero
            page = RealPageDescriptor(cache, offset, frame,
                                      write_granted=granted)
            self.global_map.replace(cache, offset, page)
            entry.resolve()
        else:
            # Unsolicited caching: readable; writes will upcall
            # getWriteAccess first.
            page = RealPageDescriptor(cache, offset, frame,
                                      write_granted=zero)
            self.global_map.insert(cache, offset, page)
        cache.owned.add(offset)
        # If ancestor frames were being presented for this offset (a
        # spontaneous fill shadowing a parent), readers must refault.
        self.hw.shootdown_served(cache, offset)
        # Per-page stubs detached to (cache, offset) while the page was
        # out re-thread onto the resident descriptor, so a later write
        # here breaks them before changing the bytes they reference.
        for stub in list(cache.incoming_stubs):
            if stub.src_page is None and stub.src_cache is cache \
                    and stub.src_offset == offset:
                stub.src_page = page
                page.cow_stubs.add(stub)
        self.cache_engine.insert(page)

    def cache_copy_back(self, cache: PvmCache, offset: int, size: int,
                        surrender: bool) -> bytes:
        """Collect the cache's own data for a pushOut.

        Holes (offsets with no resident page of this cache) read as
        zeroes; pushOut is only ever requested for resident fragments.
        With *surrender* (moveBack) the cached copy is given up.
        """
        with self.lock:
            if surrender:
                # The cached copy is being given up: parked prefaults
                # of the range would otherwise outlive the handover.
                self._cluster_cancel_range(cache, offset, size)
            # Frame *views*, not copies: freeing a frame only moves it
            # between allocation sets, so the bytes stay intact until
            # the single materializing join below — one copy per page
            # instead of two, all under the manager lock.
            parts = []
            for page_offset in page_range(offset, size, self.page_size):
                page = cache.pages.get(page_offset)
                if page is None:
                    parts.append(bytes(self.page_size))
                    continue
                parts.append(self.memory.frame_view(page.frame))
                self.clock.charge(CostEvent.BCOPY_PAGE)
                if surrender:
                    page.dirty = False
                    self._detach_stubs_to_segment(page)
                    self._drop_page(page, save=False)
            blob = b"".join(parts)
            return blob[:size]

    # ------------------------------------------------------------------
    # Table 4: flush / sync / invalidate
    # ------------------------------------------------------------------

    def cache_flush(self, cache: PvmCache, offset: int, size: int,
                    keep: bool) -> None:
        """Push dirty pages out; drop them unless *keep* (sync).

        Adjacent dirty pages are written back in one ranged pushOut
        (per-page costs unchanged; batched mappers see fewer calls).
        """
        with self.lock:
            resident = [
                cache.pages[page_offset]
                for page_offset in page_range(offset, size, self.page_size)
                if page_offset in cache.pages
            ]
            run_start = run_pages = 0
            for page in resident:
                if page.dirty and run_pages \
                        and page.offset == run_start \
                        + run_pages * self.page_size:
                    run_pages += 1
                    continue
                if run_pages:
                    self.cache_engine.push(cache, run_start,
                                           run_pages * self.page_size,
                                           reason="flush", keep=keep)
                run_start, run_pages = page.offset, 1 if page.dirty else 0
            if run_pages:
                self.cache_engine.push(cache, run_start,
                                       run_pages * self.page_size,
                                       reason="flush", keep=keep)
            if not keep:
                for page in resident:
                    if not page.pinned:
                        self._detach_stubs_to_segment(page)
                        self._drop_page(page, save=False)

    def cache_invalidate(self, cache: PvmCache, offset: int, size: int) -> None:
        """Drop cached data without saving it.

        Stubs threaded on the dropped pages are materialized first —
        they reference copy-time content that would otherwise vanish.
        """
        with self.lock:
            self._cluster_cancel_range(cache, offset, size)
            for page_offset in page_range(offset, size, self.page_size):
                page = cache.pages.get(page_offset)
                if page is None or page.pinned:
                    continue
                self._break_stubs(page)
                self._drop_page(page, save=False)

    # ------------------------------------------------------------------
    # Table 4: setProtection / lockInMemory / unlock
    # ------------------------------------------------------------------

    def cache_set_protection(self, cache: PvmCache, offset: int, size: int,
                             protection: Protection) -> None:
        """Cap access rights of [offset, offset+size) (DSM control)."""
        with self.lock:
            cache.prot_caps.remove_range(offset, size)
            if protection != Protection.RWX:
                cache.prot_caps.insert(offset, size, Cap(protection))
            hardware = protection.to_hardware()
            for page_offset in page_range(offset, size, self.page_size):
                page = cache.pages.get(page_offset)
                if page is None:
                    continue
                if not protection & Protection.READ:
                    self.hw.shootdown(page)
                elif not protection & Protection.WRITE:
                    self.hw.downgrade_page(page)

    def _prot_cap_at(self, cache: PvmCache, offset: int) -> Protection:
        fragment = cache.prot_caps.find(offset)
        if fragment is None:
            return Protection.RWX
        return fragment.payload.protection

    def cache_lock(self, cache: PvmCache, offset: int, size: int,
                   lock: bool) -> None:
        """Pin (or unpin) cached data in real memory; locking pulls the
        data in first (Table 4: lockInMemory may cause pullIns)."""
        with self.lock:
            for page_offset in page_range(offset, size, self.page_size):
                if lock:
                    page = self._page_for_explicit_read(cache, page_offset)
                    page.pin_count += 1
                else:
                    page = cache.pages.get(page_offset)
                    if page is None:
                        entry = self.global_map.lookup(cache, page_offset)
                        if isinstance(entry, RealPageDescriptor):
                            page = entry
                        else:
                            page = self._page_for_explicit_read(
                                cache, page_offset)
                    if page.pin_count > 0:
                        page.pin_count -= 1

    # ------------------------------------------------------------------
    # pullIn machinery
    # ------------------------------------------------------------------

    def _pull_in(self, cache: PvmCache, offset: int,
                 mode: AccessMode) -> None:
        """Place a synchronization page stub and upcall the segment.

        Synchronous providers resolve the stub before returning; with
        asynchronous providers the caller sleeps on the stub until the
        fillUp arrives (section 4.1.2).
        """
        self._pull_span(cache, offset, self.page_size, mode)

    def _pull_span(self, cache: PvmCache, offset: int, size: int,
                   mode: AccessMode) -> None:
        """Stub every page of ``[offset, offset+size)`` and drive one
        (possibly ranged) pullIn through the cache engine.

        The whole span registers as **one** in-flight extent: its page
        stubs share the entry's condition, so any faulter that lands
        on the range while the pull is outstanding joins the entry's
        waiter queue (one broadcast wakes everyone) instead of issuing
        — and paying for — a second pull."""
        entry = self.inflight.begin(cache, offset, size, mode)
        stubs = []
        for page_offset in page_range(offset, size, self.page_size):
            stub = SyncStub(cache, page_offset, entry.condition,
                            access_mode=mode)
            stub.inflight = entry
            self.global_map.insert(cache, page_offset, stub)
            stubs.append(stub)
        try:
            self.cache_engine.pull(cache, offset, size, mode)
        except BaseException:
            # The mapper failed (e.g. out of frames during fillUp):
            # never leave an unresolvable stub behind — sleepers
            # would hang forever.  Resolving every stub also retires
            # the in-flight entry (its last page_done fires here).
            for stub in stubs:
                if self.global_map.lookup(cache, stub.offset) is stub:
                    self.global_map.remove(cache, stub.offset)
                stub.resolve()
            raise
        for stub in stubs:
            if not stub.done \
                    and self.global_map.lookup(cache, stub.offset) is stub:
                self._wait_stub(stub, leader=True)

    def _prefetch_range(self, cache: PvmCache, offset: int,
                        size: int) -> None:
        """Pull a window resident ahead of use (willneed advice,
        explicit-read batching).

        Contiguous runs of pullable pages become one ranged pullIn
        when the provider supports batching; everything else falls back
        to the ordinary one-page resolution path.
        """
        batched = getattr(cache.provider, "batched", False)
        run_start = run_end = None
        for page_offset in page_range(offset, size, self.page_size):
            pullable = (
                batched
                and self.global_map.lookup(cache, page_offset) is None
                # A parked prefault is not pullable — the per-page
                # path below adopts it instead of re-pulling.
                and self._cluster_index.lookup(cache, page_offset) is None
                and (page_offset in cache.owned
                     or cache.parents.find(page_offset) is None)
            )
            if pullable:
                if run_start is None:
                    run_start = run_end = page_offset
                elif page_offset == run_end + self.page_size:
                    run_end = page_offset
                else:
                    self._pull_span(cache, run_start,
                                    run_end + self.page_size - run_start,
                                    AccessMode.READ)
                    run_start = run_end = page_offset
            else:
                if run_start is not None:
                    self._pull_span(cache, run_start,
                                    run_end + self.page_size - run_start,
                                    AccessMode.READ)
                    run_start = run_end = None
                self._page_for_explicit_read(cache, page_offset)
        if run_start is not None:
            self._pull_span(cache, run_start,
                            run_end + self.page_size - run_start,
                            AccessMode.READ)

    def _wait_stub(self, stub: SyncStub, leader: bool = False) -> None:
        """Sleep until the in-transit page arrives.

        *leader* marks the puller itself waiting for its own fills;
        anyone else arriving here coalesced onto an in-flight pull —
        the fault that would have been a duplicate pullIn became a
        queued waiter (``engine.inflight.coalesced``)."""
        stub.waiters += 1
        stub.cache.stats.stub_waits += 1
        board = self.pressure
        if not leader and stub.inflight is not None:
            self.inflight.join(stub.inflight)
            board.inflight_wait()
        # Sleeping on someone else's (or our own) in-transit page is a
        # memory stall: bracket the wait for the PSI windows.  The
        # bracket only reads the virtual clock — waking and resolving
        # charge exactly what they always did.
        with board.stall("inflight"):
            while not stub.done:
                stub.condition.wait()
