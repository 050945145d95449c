#!/usr/bin/env python3
"""Distributed shared virtual memory over the GMI cache-control ops.

The paper motivates the Table 4 interface with exactly this use case:
"A segment server may need to control some aspects of caching.  For
instance, to implement distributed coherent virtual memory [Li &
Hudak], it needs to flush and/or lock the cache at times."

This example runs two Chorus sites (two Nuclei, two PVMs) that map the
same logical segment.  A coherence manager implements a single-writer/
multiple-reader protocol using only the GMI surface:

* ``pullIn``   — serve a page, syncing the current owner's dirty copy first;
* ``getWriteAccess`` — invalidate the other site's cached page, then
  lift the write cap on the requester's;
* ``setProtection`` / ``invalidate`` / ``sync`` — the enforcement tools.

Run:  python examples/distributed_shared_memory.py
"""

from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider
from repro.nucleus import Nucleus
from repro.units import KB, MB

PAGE = 8 * KB
SEGMENT_PAGES = 4


class CoherenceManager:
    """Page-granular single-writer protocol across sites' local caches."""

    def __init__(self):
        self.backing = {}                 # offset -> latest pushed bytes
        self.caches = {}                  # site -> local cache
        self.writer = {}                  # offset -> site owning write access
        self.invalidations = 0
        self.write_grants = 0

    def attach(self, site: str, cache) -> None:
        self.caches[site] = cache
        # Start read-only everywhere: first write must negotiate.
        cache.set_protection(0, SEGMENT_PAGES * PAGE, Protection.READ)

    def serve_pull(self, site: str, cache, offset: int, size: int) -> None:
        owner = self.writer.get(offset)
        if owner is not None and owner != site:
            # The owner's copy is the truth: sync it back first.
            self.caches[owner].sync(offset, size)
        data = self.backing.get(offset)
        if data is None:
            cache.fill_zero(offset, size)
        else:
            cache.fill_up(offset, data)

    def grant_write(self, site: str, cache, offset: int, size: int) -> None:
        self.write_grants += 1
        owner = self.writer.get(offset)
        if owner is not None and owner != site:
            self.caches[owner].flush(offset, size)      # push + drop
            self.caches[owner].set_protection(offset, size, Protection.READ)
        # Readers elsewhere must not keep stale copies once this site
        # starts writing.
        for other_site, other_cache in self.caches.items():
            if other_site != site:
                other_cache.invalidate(offset, size)
                self.invalidations += 1
        self.writer[offset] = site
        cache.set_protection(offset, size, Protection.RWX)

    def store(self, cache, offset: int, size: int) -> None:
        self.backing[offset] = cache.copy_back(offset, size)


class SiteProvider(SegmentProvider):
    """The per-site GMI provider, forwarding to the manager."""

    def __init__(self, manager: CoherenceManager, site: str):
        self.manager = manager
        self.site = site

    def pull_in(self, cache, offset, size, access_mode: AccessMode):
        self.manager.serve_pull(self.site, cache, offset, size)

    def get_write_access(self, cache, offset, size):
        self.manager.grant_write(self.site, cache, offset, size)

    def push_out(self, cache, offset, size):
        self.manager.store(cache, offset, size)

    def segment_create(self, cache):
        return f"dsm:{self.site}"


def main():
    manager = CoherenceManager()
    sites = {}
    for name in ("siteA", "siteB"):
        nucleus = Nucleus(memory_size=4 * MB)
        cache = nucleus.vm.cache_create(SiteProvider(manager, name),
                                        name=f"{name}.shared")
        actor = nucleus.create_actor(name)
        actor.context.region_create(0x100000, SEGMENT_PAGES * PAGE,
                                    protection=Protection.RW, cache=cache)
        manager.attach(name, cache)
        sites[name] = (nucleus, actor, cache)

    _, actor_a, cache_a = sites["siteA"]
    _, actor_b, cache_b = sites["siteB"]

    # Site A writes: the write fault negotiates ownership of page 0.
    actor_a.write(0x100000, b"A owns page 0")
    print("A wrote:", actor_a.read(0x100000, 13))
    print("writer of page 0:", manager.writer[0])

    # Site B reads the same page: A's dirty copy is synced back first.
    print("B reads:", actor_b.read(0x100000, 13))

    # Now B writes: ownership migrates, A's stale copy is invalidated.
    actor_b.write(0x100000, b"B stole it...")
    print("B wrote:", actor_b.read(0x100000, 13))
    print("writer of page 0:", manager.writer[0])

    # A reads again and sees B's update (its cached page was dropped).
    print("A reads:", actor_a.read(0x100000, 13))
    assert actor_a.read(0x100000, 13) == b"B stole it..."

    # Different pages can have different writers concurrently.
    actor_a.write(0x100000 + PAGE, b"A on page 1")
    actor_b.write(0x100000 + 2 * PAGE, b"B on page 2")
    print("\nconcurrent writers:",
          {offset // PAGE: site for offset, site in manager.writer.items()})
    print(f"protocol work: {manager.write_grants} write grants, "
          f"{manager.invalidations} invalidations")


if __name__ == "__main__":
    main()
