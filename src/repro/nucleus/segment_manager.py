"""The segment manager (sections 5.1.2 and 5.1.3).

"The segment manager maps each segment used on the site to a GMI
local-cache. ... the segment manager transforms a GMI upcall into IPC
upcalls to the corresponding segment mapper."

Two provider classes carry the upcall traffic:

* :class:`MapperProvider` — a permanent segment behind a mapper port:
  ``pullIn`` becomes an IPC read request to that port, ``pushOut`` a
  write request.
* :class:`TemporaryProvider` — a temporary cache (rgnAllocate, working
  objects, stacks): zero-filled until the first ``pushOut``, at which
  point a swap segment is allocated from the default mapper (5.1.2).

The manager also implements **segment caching** (5.1.3): local caches
of unreferenced segments are retained while table space lasts, which
makes re-``exec`` of a recently-run program hit warm memory instead of
the (slow) mapper — the "large make" effect.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import CapabilityError, InvalidOperation
from repro.gmi.types import AccessMode
from repro.cache.provider import SegmentProvider
from repro.segments.capability import Capability
from repro.units import IPC_MESSAGE_LIMIT


def _ipc_windows(size: int):
    """``(start, length)`` windows of at most one IPC message each
    covering ``[0, size)``; an empty range is still one request."""
    return [(start, min(IPC_MESSAGE_LIMIT, size - start))
            for start in range(0, size, IPC_MESSAGE_LIMIT)] or [(0, 0)]


class MapperProvider(SegmentProvider):
    """Upcall adapter: GMI upcalls -> IPC requests to a mapper port.

    ``batched``: a multi-page pullIn becomes *one* IPC round-trip to
    the mapper instead of one per page — the dominant saving for
    sequential segment scans (the cost model charges per page either
    way; only the message count drops).  A range larger than the
    64-Kbyte IPC message limit moves in message-sized windows, one
    round-trip each.
    """

    batched = True

    def __init__(self, manager: "SegmentManager", capability: Capability):
        self.manager = manager
        self.capability = capability

    def pull_in(self, cache, offset: int, size: int,
                access_mode: AccessMode) -> None:
        # "The request contains the segment capability and the
        # local-cache capability, and the start offset, size, and
        # access type of the required data."
        local_cache = self.manager.cache_capability(cache)
        for start, length in _ipc_windows(size):
            reply = self.manager.ipc.send(self.capability.port, header={
                "op": "read",
                "capability": self.capability,
                "local_cache": local_cache,
                "offset": offset + start,
                "size": length,
                "access": access_mode.value,
            })
            cache.fill_up(offset + start, reply.inline)

    def push_out(self, cache, offset: int, size: int) -> None:
        data = cache.copy_back(offset, size)
        local_cache = self.manager.cache_capability(cache)
        for start, length in _ipc_windows(len(data)):
            self.manager.ipc.send(self.capability.port, header={
                "op": "write",
                "capability": self.capability,
                "local_cache": local_cache,
                "offset": offset + start,
            }, data=data[start:start + length])

    def segment_create(self, cache) -> object:
        return self.capability.uid


class TemporaryProvider(SegmentProvider):
    """Temporary local caches: swap allocated on first pushOut."""

    batched = True

    def __init__(self, manager: "SegmentManager"):
        self.manager = manager
        #: cache id -> swap capability (allocated lazily).
        self._swap: Dict[int, Capability] = {}

    def _swap_capability(self, cache) -> Optional[Capability]:
        return self._swap.get(id(cache))

    def pull_in(self, cache, offset: int, size: int,
                access_mode: AccessMode) -> None:
        swap = self._swap_capability(cache)
        if swap is None:
            cache.fill_zero(offset, size)
            return
        mapper = self.manager.default_mapper
        io = getattr(self.manager.vm, "io", None)
        if io is not None:
            data = io.read_segment(mapper, swap.key, offset, size)
        else:
            data = mapper.read_segment(swap.key, offset, size)
        cache.fill_up(offset, data)

    def push_out(self, cache, offset: int, size: int) -> None:
        swap = self._swap_capability(cache)
        if swap is None:
            # "The segment manager waits for the first pushOut upcall
            # for such a temporary cache to allocate it a 'swap'
            # temporary segment with a default mapper."
            swap = self.manager.default_mapper.create_temporary()
            self._swap[id(cache)] = swap
        data = cache.copy_back(offset, size)
        mapper = self.manager.default_mapper
        io = getattr(self.manager.vm, "io", None)
        if io is not None:
            io.write_segment(mapper, swap.key, offset, data)
        else:
            mapper.write_segment(swap.key, offset, data)

    def segment_create(self, cache) -> object:
        return f"temporary:{id(cache):x}"

    def forget(self, cache) -> None:
        """Release a temporary cache's swap segment, if allocated."""
        swap = self._swap.pop(id(cache), None)
        if swap is not None:
            self.manager.default_mapper.destroy_segment(swap.key)


class SegmentManager:
    """Capability -> local-cache binding with segment caching."""

    PORT = "segment-manager"

    def __init__(self, vm, ipc, default_mapper, max_cached: int = 32):
        self.vm = vm
        self.ipc = ipc
        self.default_mapper = default_mapper
        self.max_cached = max_cached
        #: capability uid -> (cache, refcount) for segments in use.
        self._bound: Dict[str, list] = {}
        #: unreferenced caches retained for re-use, LRU order.
        self._retained: "OrderedDict[str, object]" = OrderedDict()
        #: local-cache capability key -> cache (for control requests).
        self._cache_caps: Dict[int, object] = {}
        self.temporary_provider = TemporaryProvider(self)
        self.stats = {"binds": 0, "warm_hits": 0, "cold_misses": 0,
                      "discards": 0}

    # -- binding (5.1.2) ------------------------------------------------------

    def bind(self, capability: Capability):
        """Find or create the local cache for *capability*."""
        self.stats["binds"] += 1
        uid = capability.uid
        entry = self._bound.get(uid)
        if entry is not None:
            entry[1] += 1
            return entry[0]
        cache = self._retained.pop(uid, None)
        if cache is not None:
            self.stats["warm_hits"] += 1
        else:
            self.stats["cold_misses"] += 1
            provider = MapperProvider(self, capability)
            cache = self.vm.cache_create(provider, segment=uid,
                                         name=f"seg:{uid[:16]}")
        self._bound[uid] = [cache, 1]
        return cache

    def release(self, capability: Capability) -> None:
        """Drop one reference; unreferenced caches are *retained*."""
        uid = capability.uid
        entry = self._bound.get(uid)
        if entry is None:
            raise InvalidOperation(f"release of unbound segment {uid}")
        entry[1] -= 1
        if entry[1] > 0:
            return
        cache = entry[0]
        del self._bound[uid]
        # 5.1.3: keep the unreferenced cache as long as there is table
        # space (and the VM will reclaim its frames under pressure).
        self._retained[uid] = cache
        self._retained.move_to_end(uid)
        while len(self._retained) > self.max_cached:
            _, victim = self._retained.popitem(last=False)
            self._discard(victim)

    def _discard(self, cache) -> None:
        # Drain through the unified eviction path so retained-cache
        # drops are visible in the ``cache.evict`` counters alongside
        # pressure-driven eviction.
        self.stats["discards"] += 1
        self.vm.cache_engine.drain(cache, reason="retained")
        cache.destroy()

    def drop_retained(self) -> int:
        """Flush the retention table (tests / memory pressure)."""
        count = 0
        while self._retained:
            _, victim = self._retained.popitem(last=False)
            self._discard(victim)
            count += 1
        return count

    @property
    def retained_count(self) -> int:
        """Unreferenced caches currently retained (5.1.3)."""
        return len(self._retained)

    # -- temporary caches --------------------------------------------------------

    def create_temporary(self, name: Optional[str] = None):
        """A fresh temporary local cache (rgnAllocate, stacks, ...)."""
        return self.vm.cache_create(self.temporary_provider,
                                    name=name or "temp")

    def destroy_temporary(self, cache) -> None:
        """Destroy a temporary cache and free its swap."""
        self.temporary_provider.forget(cache)
        if not cache.destroyed:
            cache.destroy()

    # -- local-cache capabilities and cache control (5.1.2) -------------------------

    def cache_capability(self, cache) -> Capability:
        """Capability through which a mapper may control *cache*."""
        for key, existing in self._cache_caps.items():
            if existing is cache:
                return Capability(self.PORT, key)
        capability = Capability(self.PORT)
        self._cache_caps[capability.key] = cache
        return capability

    def control(self, capability: Capability, op: str, offset: int = 0,
                size: Optional[int] = None, protection=None) -> None:
        """Cache-control request (Table 4 via IPC, acting as cache server)."""
        if capability.port != self.PORT:
            raise CapabilityError("not a local-cache capability")
        cache = self._cache_caps.get(capability.key)
        if cache is None:
            raise CapabilityError("stale local-cache capability")
        if size is None:
            # Cover through the last resident byte (one page past the
            # highest resident offset, as the per-page form computed).
            extents = cache.resident_extents()
            covered = extents[-1][0] + extents[-1][1] if extents \
                else self.vm.page_size
            size = covered - offset
        if op == "flush":
            cache.flush(offset, size)
        elif op == "sync":
            cache.sync(offset, size)
        elif op == "invalidate":
            cache.invalidate(offset, size)
        elif op == "setProtection":
            cache.set_protection(offset, size, protection)
        elif op == "lock":
            cache.lock_in_memory(offset, size)
        elif op == "unlock":
            cache.unlock(offset, size)
        else:
            raise InvalidOperation(f"unknown cache control op {op!r}")
