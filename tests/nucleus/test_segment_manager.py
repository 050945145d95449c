"""Segment manager: binding, upcall translation, segment caching."""

import pytest

from repro.gmi.types import Protection
from repro.nucleus import Nucleus
from repro.segments import Capability, DiskMapper, MemoryMapper, SimulatedDisk
from repro.units import KB, MB

PAGE = 8 * KB


@pytest.fixture
def nucleus():
    return Nucleus(memory_size=4 * MB, max_cached_segments=4)


@pytest.fixture
def mapper(nucleus):
    mapper = MemoryMapper()
    nucleus.register_mapper(mapper)
    return mapper


class TestBinding:
    def test_bind_creates_cache_once(self, nucleus, mapper):
        cap = mapper.register(b"segment data")
        sm = nucleus.segment_manager
        cache1 = sm.bind(cap)
        cache2 = sm.bind(cap)
        assert cache1 is cache2
        sm.release(cap)
        sm.release(cap)

    def test_pull_in_goes_through_mapper_ipc(self, nucleus, mapper):
        cap = mapper.register(b"mapped bytes here")
        cache = nucleus.segment_manager.bind(cap)
        assert cache.read(0, 12) == b"mapped bytes"
        assert mapper.read_requests == 1

    def test_push_out_writes_through_mapper(self, nucleus, mapper):
        cap = mapper.register(bytes(PAGE))
        cache = nucleus.segment_manager.bind(cap)
        cache.write(0, b"dirty data")
        cache.flush(0, PAGE)
        assert mapper.write_requests == 1
        assert mapper.read_segment(cap.key, 0, 10) == b"dirty data"

    def test_mapped_region_over_mapper_segment(self, nucleus, mapper):
        cap = mapper.register(b"text segment content" + bytes(PAGE))
        actor = nucleus.create_actor()
        nucleus.rgn_map(actor, cap, PAGE, address=0x40000,
                        protection=Protection.READ)
        assert actor.read(0x40000, 4) == b"text"


class TestRangesOverTheIpcLimit:
    """A ranged upcall larger than one 64 KB IPC message moves in
    message-sized windows instead of failing the send."""

    PAGES = 16                      # 128 KB: two messages

    @pytest.fixture
    def disk_file(self, nucleus):
        mapper = DiskMapper(SimulatedDisk(PAGE, clock=nucleus.clock))
        nucleus.register_mapper(mapper)
        payload = b"".join(bytes([index + 1]) * PAGE
                           for index in range(self.PAGES))
        cap = mapper.create_file(payload)
        return mapper, cap, payload

    def test_flush_of_sixteen_dirty_pages(self, nucleus, disk_file):
        mapper, cap, _ = disk_file
        actor = nucleus.create_actor()
        size = self.PAGES * PAGE
        region = nucleus.rgn_map(actor, cap, size, address=0x100000)
        written = b"".join(bytes([0x80 + index]) * PAGE
                           for index in range(self.PAGES))
        actor.write(0x100000, written)
        nucleus.vm.cache_flush(region.cache, 0, size, keep=True)
        assert mapper.read_segment(cap.key, 0, size) == written

    def test_ranged_read_of_sixteen_pages(self, nucleus, disk_file):
        mapper, cap, payload = disk_file
        cache = nucleus.segment_manager.bind(cap)
        assert cache.read(0, len(payload)) == payload
        assert mapper.read_requests == 2


class TestSegmentCaching:
    """Section 5.1.3: unreferenced caches are retained for re-use."""

    def test_rebind_hits_warm_cache(self, nucleus, mapper):
        cap = mapper.register(b"warm data" + bytes(PAGE))
        sm = nucleus.segment_manager
        cache = sm.bind(cap)
        cache.read(0, 4)                      # fault the page in
        sm.release(cap)
        assert sm.retained_count == 1
        again = sm.bind(cap)
        assert again is cache
        assert sm.stats["warm_hits"] == 1
        # The page is still resident: no new mapper read.
        requests_before = mapper.read_requests
        assert again.read(0, 4) == b"warm"
        assert mapper.read_requests == requests_before
        sm.release(cap)

    def test_retention_table_bounded(self, nucleus, mapper):
        sm = nucleus.segment_manager
        caps = [mapper.register(bytes([i]) * 16) for i in range(6)]
        for cap in caps:
            sm.bind(cap)
            sm.release(cap)
        assert sm.retained_count == 4         # max_cached_segments
        assert sm.stats["discards"] == 2

    def test_lru_discard_order(self, nucleus, mapper):
        sm = nucleus.segment_manager
        caps = [mapper.register(bytes([i]) * 16) for i in range(5)]
        for cap in caps:
            sm.bind(cap)
            sm.release(cap)
        # caps[0] was discarded (oldest); caps[1:] retained.
        assert sm.bind(caps[1]) is not None
        assert sm.stats["warm_hits"] == 1
        sm.release(caps[1])
        sm.bind(caps[0])
        assert sm.stats["cold_misses"] == 6   # 5 initial + 1 re-miss

    def test_drop_retained(self, nucleus, mapper):
        sm = nucleus.segment_manager
        cap = mapper.register(b"x")
        sm.bind(cap)
        sm.release(cap)
        assert sm.drop_retained() == 1
        assert sm.retained_count == 0

    def test_discarded_cache_flushes_dirty_data(self, nucleus, mapper):
        sm = nucleus.segment_manager
        cap = mapper.register(bytes(PAGE))
        cache = sm.bind(cap)
        cache.write(0, b"must survive")
        sm.release(cap)
        sm.drop_retained()
        assert mapper.read_segment(cap.key, 0, 12) == b"must survive"


class TestTemporaryCaches:
    def test_temporary_zero_filled(self, nucleus):
        sm = nucleus.segment_manager
        cache = sm.create_temporary()
        assert cache.read(0, 8) == bytes(8)

    def test_swap_allocated_on_first_push_out(self, nucleus):
        sm = nucleus.segment_manager
        swap = nucleus.default_mapper
        cache = sm.create_temporary()
        cache.write(0, b"swap me")
        assert swap.live_segments == 0
        cache.flush(0, PAGE)
        assert swap.live_segments == 1
        # Pull back from swap.
        assert cache.read(0, 7) == b"swap me"

    def test_destroy_temporary_frees_swap(self, nucleus):
        sm = nucleus.segment_manager
        cache = sm.create_temporary()
        cache.write(0, b"x")
        cache.flush(0, PAGE)
        sm.destroy_temporary(cache)
        assert nucleus.default_mapper.live_segments == 0


class TestCacheControl:
    def test_mapper_controls_cache_via_capability(self, nucleus, mapper):
        """5.1.2: cache control ops invoked with a local-cache capability."""
        cap = mapper.register(b"coherent data" + bytes(PAGE))
        sm = nucleus.segment_manager
        cache = sm.bind(cap)
        cache.read(0, 4)
        cache_cap = sm.cache_capability(cache)
        sm.control(cache_cap, "flush")
        assert len(cache.pages) == 0

    def test_control_set_protection(self, nucleus, mapper):
        from repro.errors import AccessViolation
        cap = mapper.register(bytes(PAGE))
        sm = nucleus.segment_manager
        cache = sm.bind(cap)
        actor = nucleus.create_actor()
        nucleus.rgn_map(actor, cap, PAGE, address=0x40000)
        actor.write(0x40000, b"ok")
        cache_cap = sm.cache_capability(cache)
        sm.control(cache_cap, "setProtection", 0, PAGE,
                   protection=Protection.READ)
        with pytest.raises(AccessViolation):
            actor.write(0x40000, b"blocked")

    def test_stale_capability_rejected(self, nucleus):
        from repro.errors import CapabilityError
        with pytest.raises(CapabilityError):
            nucleus.segment_manager.control(
                Capability("segment-manager"), "flush")
