"""Single-writer / multiple-reader invalidation coherence.

Per-page state machine kept by a (logically central) manager:

* ``INVALID`` — no site caches the page; the manager's backing store
  holds the last pushed version;
* ``SHARED`` — one or more sites cache it read-only;
* ``EXCLUSIVE`` — exactly one site holds it writable.

Transitions use only GMI operations on the sites' local caches: a read
miss upcalls ``pullIn`` (the manager syncs the owner first); a write
to a read-capped page upcalls ``getWriteAccess`` (the manager flushes
and invalidates everyone else, then lifts the requester's cap).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.errors import InvalidOperation
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider


class PageState(enum.Enum):
    """Coherence state of one page."""
    INVALID = "invalid"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class PageEntry:
    """Manager-side record for one page."""
    state: PageState = PageState.INVALID
    owner: Optional[str] = None              # EXCLUSIVE holder
    readers: Set[str] = field(default_factory=set)


class CoherenceManager:
    """The central manager of one DSM segment."""

    def __init__(self, segment_pages: int, page_size: int):
        self.segment_pages = segment_pages
        self.page_size = page_size
        self.backing: Dict[int, bytes] = {}
        self.caches: Dict[str, object] = {}
        self.pages: Dict[int, PageEntry] = {}
        self.stats = {"read_misses": 0, "write_grants": 0,
                      "invalidations": 0, "owner_syncs": 0,
                      "downgrades": 0}

    # -- membership ---------------------------------------------------------------

    def attach(self, site: str, cache) -> None:
        """Register *site*'s local cache; pages start read-capped."""
        if site in self.caches:
            raise InvalidOperation(f"site {site} already attached")
        self.caches[site] = cache
        # All pages start read-capped: the first write negotiates.
        cache.set_protection(0, self.segment_pages * self.page_size,
                             Protection.READ)

    def detach(self, site: str) -> None:
        """Remove a site: sync its dirty pages back, drop its claims."""
        cache = self.caches.pop(site, None)
        if cache is None:
            return
        span = self.segment_pages * self.page_size
        cache.sync(0, span)
        for entry in self.pages.values():
            entry.readers.discard(site)
            if entry.owner == site:
                entry.owner = None
                entry.state = (PageState.SHARED if entry.readers
                               else PageState.INVALID)

    def _entry(self, offset: int) -> PageEntry:
        return self.pages.setdefault(offset, PageEntry())

    # -- protocol actions ----------------------------------------------------------

    def serve_pull(self, site: str, cache, offset: int, size: int) -> None:
        """Read miss at *site*: deliver the current page value."""
        entry = self._entry(offset)
        self.stats["read_misses"] += 1
        if entry.state is PageState.EXCLUSIVE and entry.owner != site:
            # Downgrade the owner to SHARED: push its dirty copy back
            # and cap its writes again.
            owner_cache = self.caches[entry.owner]
            owner_cache.sync(offset, size)
            owner_cache.set_protection(offset, size, Protection.READ)
            self.stats["owner_syncs"] += 1
            self.stats["downgrades"] += 1
            entry.readers.add(entry.owner)
            entry.owner = None
            entry.state = PageState.SHARED
        data = self.backing.get(offset)
        if data is None:
            cache.fill_zero(offset, size)
        else:
            cache.fill_up(offset, data[:size])
        entry.readers.add(site)
        if entry.state is PageState.INVALID:
            entry.state = PageState.SHARED

    def grant_write(self, site: str, cache, offset: int, size: int) -> None:
        """Write fault at *site* on a read-capped page."""
        entry = self._entry(offset)
        self.stats["write_grants"] += 1
        if entry.state is PageState.EXCLUSIVE and entry.owner == site:
            cache.set_protection(offset, size, Protection.RWX)
            return
        if entry.state is PageState.EXCLUSIVE:
            owner_cache = self.caches[entry.owner]
            owner_cache.flush(offset, size)
            owner_cache.set_protection(offset, size, Protection.READ)
            self.stats["owner_syncs"] += 1
        for reader in list(entry.readers):
            if reader == site:
                continue
            self.caches[reader].invalidate(offset, size)
            self.stats["invalidations"] += 1
        entry.readers = {site}
        entry.owner = site
        entry.state = PageState.EXCLUSIVE
        cache.set_protection(offset, size, Protection.RWX)

    def store(self, cache, offset: int, size: int) -> None:
        """A pushOut landed: record the authoritative bytes."""
        self.backing[offset] = cache.copy_back(offset, size)

    # -- introspection ----------------------------------------------------------------

    def state_of(self, page_index: int) -> PageState:
        """Coherence state of page *page_index*."""
        return self._entry(page_index * self.page_size).state

    def owner_of(self, page_index: int) -> Optional[str]:
        """Exclusive owner of page *page_index*, or None."""
        return self._entry(page_index * self.page_size).owner


class SiteProvider(SegmentProvider):
    """Per-site GMI provider forwarding upcalls to the manager."""

    def __init__(self, manager: CoherenceManager, site: str):
        self.manager = manager
        self.site = site

    def pull_in(self, cache, offset: int, size: int,
                access_mode: AccessMode) -> None:
        self.manager.serve_pull(self.site, cache, offset, size)

    def get_write_access(self, cache, offset: int, size: int) -> None:
        self.manager.grant_write(self.site, cache, offset, size)

    def push_out(self, cache, offset: int, size: int) -> None:
        self.manager.store(cache, offset, size)

    def segment_create(self, cache) -> object:
        return f"dsm:{self.site}"
