"""Unit tests for the page-fault path (section 4.1.2)."""

import pytest

from repro.errors import AccessViolation, SegmentationFault
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider
from repro.kernel.clock import CostEvent
from repro.units import KB

PAGE = 8 * KB


class RecordingProvider(SegmentProvider):
    """Provider that records upcalls and serves patterned data."""

    def __init__(self, pattern=b"\xab"):
        self.pattern = pattern
        self.pull_log = []
        self.push_log = []
        self.write_access_log = []
        self.store = {}

    def pull_in(self, cache, offset, size, access_mode):
        self.pull_log.append((offset, size, access_mode))
        data = self.store.get(offset, self.pattern * size)
        cache.fill_up(offset, data[:size])

    def get_write_access(self, cache, offset, size):
        self.write_access_log.append((offset, size))

    def push_out(self, cache, offset, size):
        self.push_log.append((offset, size))
        self.store[offset] = cache.copy_back(offset, size)

    def segment_create(self, cache):
        return "recorded"


class TestFaultDispatch:
    def test_unmapped_address_is_segfault(self, pvm, ctx):
        with pytest.raises(SegmentationFault):
            pvm.user_read(ctx, 0xDEAD0000, 1)

    def test_segfault_reports_address(self, pvm, ctx):
        with pytest.raises(SegmentationFault) as exc:
            pvm.user_read(ctx, 0x5000, 1)
        assert exc.value.address == 0x5000

    def test_fault_offset_computation(self, pvm, ctx):
        """Fault offset = region offset + (addr - region start)."""
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                          cache=cache, offset=16 * PAGE)
        pvm.user_read(ctx, 0x40000 + 2 * PAGE + 100, 1)
        assert provider.pull_log == [(16 * PAGE + 2 * PAGE, PAGE,
                                      AccessMode.READ)]

    def test_resident_page_no_second_pull(self, pvm, ctx):
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_read(ctx, 0x40000, 1)
        pvm.user_read(ctx, 0x40010, 1)
        assert len(provider.pull_log) == 1

    def test_write_fault_pulls_with_write_mode(self, pvm, ctx):
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"w")
        assert provider.pull_log[0][2] is AccessMode.WRITE

    def test_read_then_write_upcalls_get_write_access(self, pvm, ctx):
        """Data pulled read-only needs a getWriteAccess upcall (Table 3)."""
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_read(ctx, 0x40000, 1)
        assert provider.write_access_log == []
        pvm.user_write(ctx, 0x40000, b"w")
        assert provider.write_access_log == [(0, PAGE)]

    def test_fault_counters(self, pvm, ctx, make_cache):
        cache = make_cache()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        before = pvm.clock.count(CostEvent.FAULT_DISPATCH)
        pvm.user_write(ctx, 0x40000, b"1")
        pvm.user_write(ctx, 0x40000 + PAGE, b"2")
        assert pvm.clock.count(CostEvent.FAULT_DISPATCH) == before + 2
        assert cache.statistics.write_faults == 2

    def test_zero_fill_content(self, pvm, ctx, make_cache):
        cache = make_cache()
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 64) == bytes(64)

    def test_sparse_region_only_touched_pages_resident(self, pvm, ctx,
                                                       make_cache):
        """Structures scale with touched pages, not region size (4.1)."""
        cache = make_cache()
        region = ctx.region_create(0x40000, 128 * PAGE,
                                   protection=Protection.RW, cache=cache,
                                   offset=0)
        pvm.user_write(ctx, 0x40000 + 77 * PAGE, b"sparse")
        assert region.status().resident_pages == 1
        assert len(cache.pages) == 1

    def test_execute_only_region_readable_as_text(self, pvm, ctx, make_cache):
        cache = make_cache()
        cache.write(0, b"\x90\x90")
        ctx.region_create(0x40000, PAGE, protection=Protection.RX, cache=cache,
                          offset=0)
        assert pvm.user_read(ctx, 0x40000, 2) == b"\x90\x90"

    def test_write_to_rx_region_violates(self, pvm, ctx, make_cache):
        cache = make_cache()
        ctx.region_create(0x40000, PAGE, protection=Protection.RX, cache=cache,
                          offset=0)
        with pytest.raises(AccessViolation):
            pvm.user_write(ctx, 0x40000, b"X")


class TestMultiContext:
    def test_contexts_isolated(self, pvm, make_cache):
        a = pvm.context_create("a")
        b = pvm.context_create("b")
        cache_a = make_cache()
        a.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache_a,
                        offset=0)
        pvm.user_write(a, 0x40000, b"private")
        with pytest.raises(SegmentationFault):
            pvm.user_read(b, 0x40000, 1)

    def test_shared_cache_across_contexts(self, pvm, make_cache):
        """A segment may be mapped into any number of contexts (3.2)."""
        a = pvm.context_create("a")
        b = pvm.context_create("b")
        cache = make_cache()
        a.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                        offset=0)
        b.region_create(0x90000, PAGE, protection=Protection.RW, cache=cache,
                        offset=0)
        pvm.user_write(a, 0x40000, b"both see")
        assert pvm.user_read(b, 0x90000, 8) == b"both see"
        # One physical frame serves both mappings.
        assert len(cache.pages) == 1
        assert len(cache.pages[0].mappings) == 2


class TestPushPullRoundtrip:
    def test_flush_then_refault(self, pvm, ctx):
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"persist me")
        cache.flush(0, PAGE)
        assert provider.push_log == [(0, PAGE)]
        assert len(cache.pages) == 0
        # Refault pulls the saved value back.
        assert pvm.user_read(ctx, 0x40000, 10) == b"persist me"
        assert len(provider.pull_log) == 2

    def test_sync_keeps_page(self, pvm, ctx):
        provider = RecordingProvider()
        cache = pvm.cache_create(provider)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_write(ctx, 0x40000, b"synced")
        cache.sync(0, PAGE)
        assert provider.push_log == [(0, PAGE)]
        assert len(cache.pages) == 1
        # Page is clean now: a second sync pushes nothing.
        cache.sync(0, PAGE)
        assert len(provider.push_log) == 1
