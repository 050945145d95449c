"""Model-based property test of the deferred-copy machinery.

A :class:`hypothesis` state machine drives random interleavings of
writes, deferred copies (history, per-page, eager), mapped access,
flushes, collapses and cache destructions against the PVM — under
real memory pressure (tiny RAM, evictions happen) — and checks every
byte against a trivially-correct reference model (plain bytearrays
with eager copies).

If history trees, per-page stubs, the pageout path or the fault path
ever disagree with copy semantics, this machine finds the sequence.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.pvm import PagedVirtualMemory
from repro.units import KB
from tests.property import scaled_settings

PAGE = 8 * KB
SEGMENT_PAGES = 6
NUM_CACHES = 5
#: Tiny RAM: 24 frames for up to 30 logical pages -> evictions occur.
RAM_FRAMES = 24

cache_ids = st.integers(min_value=0, max_value=NUM_CACHES - 1)
page_indexes = st.integers(min_value=0, max_value=SEGMENT_PAGES - 1)
byte_values = st.integers(min_value=1, max_value=255)
policies = st.sampled_from([CopyPolicy.HISTORY, CopyPolicy.PER_PAGE,
                            CopyPolicy.EAGER])


class CowMachine(RuleBasedStateMachine):
    """Random copy/write/read interleavings vs a reference model."""

    vm_class = PagedVirtualMemory
    ram_frames = RAM_FRAMES

    @initialize()
    def setup(self):
        self.vm = self.vm_class(memory_size=self.ram_frames * PAGE,
                                page_size=PAGE)
        self.context = self.vm.context_create("prop")
        self.caches = {}
        self.model = {}
        self.regions = {}
        for index in range(NUM_CACHES):
            self._make_cache(index)

    def _make_cache(self, index):
        self.caches[index] = self.vm.cache_create(
            ZeroFillProvider(), name=f"c{index}")
        self.model[index] = bytearray(SEGMENT_PAGES * PAGE)

    # -- rules -----------------------------------------------------------------

    @rule(cache=cache_ids, page=page_indexes, value=byte_values)
    def write_page(self, cache, page, value):
        data = bytes([value]) * 64
        self.caches[cache].write(page * PAGE, data)
        self.model[cache][page * PAGE:page * PAGE + 64] = data

    @rule(cache=cache_ids, page=page_indexes, value=byte_values,
          offset=st.integers(min_value=0, max_value=PAGE - 8))
    def write_unaligned(self, cache, page, value, offset):
        data = bytes([value]) * 8
        position = page * PAGE + offset
        self.caches[cache].write(position, data)
        self.model[cache][position:position + 8] = data

    @rule(src=cache_ids, dst=cache_ids, src_page=page_indexes,
          dst_page=page_indexes, pages=st.integers(min_value=1, max_value=3),
          policy=policies)
    def copy(self, src, dst, src_page, dst_page, pages, policy):
        pages = min(pages, SEGMENT_PAGES - src_page,
                    SEGMENT_PAGES - dst_page)
        if src == dst and policy is not CopyPolicy.EAGER:
            return
        if src == dst and self._ranges_overlap(src_page, dst_page, pages):
            return
        self.caches[src].copy(src_page * PAGE, self.caches[dst],
                              dst_page * PAGE, pages * PAGE, policy=policy)
        snapshot = bytes(
            self.model[src][src_page * PAGE:(src_page + pages) * PAGE])
        self.model[dst][dst_page * PAGE:(dst_page + pages) * PAGE] = snapshot

    @staticmethod
    def _ranges_overlap(a, b, pages):
        return a < b + pages and b < a + pages

    @rule(src=cache_ids, dst=cache_ids, src_page=page_indexes,
          dst_page=page_indexes)
    def move(self, src, dst, src_page, dst_page):
        if src == dst:
            return
        self.caches[src].move(src_page * PAGE, self.caches[dst],
                              dst_page * PAGE, PAGE)
        snapshot = bytes(
            self.model[src][src_page * PAGE:(src_page + 1) * PAGE])
        self.model[dst][dst_page * PAGE:(dst_page + 1) * PAGE] = snapshot
        # Source contents become undefined: model them as zeroes and
        # re-establish that in the real cache too (write-after-move is
        # the only defined use).
        self.caches[src].write(src_page * PAGE, bytes(PAGE))
        self.model[src][src_page * PAGE:(src_page + 1) * PAGE] = bytes(PAGE)

    @rule(cache=cache_ids, page=page_indexes)
    def flush_page(self, cache, page):
        self.caches[cache].flush(page * PAGE, PAGE)

    @rule(cache=cache_ids)
    def sync_all(self, cache):
        self.caches[cache].sync(0, SEGMENT_PAGES * PAGE)

    @rule(cache=cache_ids)
    def collapse(self, cache):
        self.vm.collapse_history(self.caches[cache])

    @rule(cache=cache_ids)
    def recycle_cache(self, cache):
        """Destroy and recreate: exercises dead-node retention."""
        region = self.regions.pop(cache, None)
        if region is not None:
            region.destroy()
        self.caches[cache].destroy()
        self._make_cache(cache)

    @rule(cache=cache_ids, page=page_indexes, value=byte_values)
    def mapped_write(self, cache, page, value):
        region = self.regions.get(cache)
        if region is None:
            address = 0x100000 + cache * 0x100000
            region = self.context.region_create(
                address, SEGMENT_PAGES * PAGE, protection=Protection.RW,
                cache=self.caches[cache], offset=0)
            self.regions[cache] = region
        data = bytes([value]) * 32
        self.vm.user_write(self.context,
                           region.address + page * PAGE + 16, data)
        base = page * PAGE + 16
        self.model[cache][base:base + 32] = data

    @rule(src=cache_ids, dst=cache_ids, src_page=page_indexes,
          dst_page=page_indexes,
          pages=st.integers(min_value=1, max_value=2))
    def copy_on_reference(self, src, dst, src_page, dst_page, pages):
        pages = min(pages, SEGMENT_PAGES - src_page,
                    SEGMENT_PAGES - dst_page)
        if src == dst:
            return
        self.caches[src].copy(src_page * PAGE, self.caches[dst],
                              dst_page * PAGE, pages * PAGE,
                              policy=CopyPolicy.HISTORY,
                              on_reference=True)
        snapshot = bytes(
            self.model[src][src_page * PAGE:(src_page + pages) * PAGE])
        self.model[dst][dst_page * PAGE:(dst_page + pages) * PAGE] = snapshot

    @rule(cache=cache_ids, page=page_indexes)
    def lock_unlock_page(self, cache, page):
        self.caches[cache].lock_in_memory(page * PAGE, PAGE)
        self.caches[cache].unlock(page * PAGE, PAGE)

    @rule(cache=cache_ids, page=page_indexes)
    def check_page(self, cache, page):
        expected = bytes(self.model[cache][page * PAGE:(page + 1) * PAGE])
        actual = self.caches[cache].read(page * PAGE, PAGE)
        assert actual == expected

    @rule(cache=cache_ids, page=page_indexes)
    def check_mapped(self, cache, page):
        region = self.regions.get(cache)
        if region is None:
            return
        expected = bytes(self.model[cache][page * PAGE:page * PAGE + 128])
        actual = self.vm.user_read(self.context,
                                   region.address + page * PAGE, 128)
        assert actual == expected

    # -- global invariants --------------------------------------------------------

    @invariant()
    def memory_not_over_committed(self):
        if hasattr(self, "vm"):
            assert self.vm.memory.allocated_frames <= self.ram_frames

    @invariant()
    def global_map_consistent(self):
        if not hasattr(self, "vm"):
            return
        for (cache_id, offset), entry in self.vm.global_map:
            if hasattr(entry, "frame"):
                assert entry.cache.pages.get(offset) is entry

    @invariant()
    def global_map_entries_belong_to_live_caches(self):
        if not hasattr(self, "vm"):
            return
        for key, entry in self.vm.global_map:
            assert not entry.cache.destroyed, (key, entry)


class MachCowMachine(CowMachine):
    """The same semantics must hold for shadow objects."""

    from repro.mach import MachVirtualMemory as vm_class


class RealTimeCowMachine(CowMachine):
    """...and for the eager real-time MM (which never pages, so give
    it enough RAM to hold everything)."""

    from repro.minimal import RealTimeVirtualMemory as vm_class
    ram_frames = NUM_CACHES * SEGMENT_PAGES + 4


_SETTINGS = scaled_settings(60, 40)
_QUICK = scaled_settings(25, 30)

TestCowModel = CowMachine.TestCase
TestCowModel.settings = _SETTINGS
TestMachCowModel = MachCowMachine.TestCase
TestMachCowModel.settings = _QUICK
TestRealTimeCowModel = RealTimeCowMachine.TestCase
TestRealTimeCowModel.settings = _QUICK
