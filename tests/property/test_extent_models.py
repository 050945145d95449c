"""Extent representations vs flat per-page reference models.

The address space is held in extent form: the context's region map and
a cache's parent/guard fragment lists are interval maps, and the paged
MMU's tables are run-length translation runs.  These state machines
drive random map/unmap/split/protect/destroy interleavings against
trivially-correct flat models (a dict per page, a dict per region) and
check that every query — point lookup, range query, size, table and
run counts — agrees after every step.  If run splicing, coalescing,
boundary trimming, the re-basing of split fragments or the O(1)
counters ever drift from the per-page truth, these machines find the
sequence.

The example counts scale with the loaded hypothesis profile
(``--hypothesis-profile=ci`` runs ten times as many).
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.errors import InvalidOperation
from repro.extents import IntervalMap
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.hardware.paged_mmu import TABLE_BITS, PagedMMU
from repro.hardware.mmu import Prot
from repro.pvm import PagedVirtualMemory
from repro.units import KB
from tests.property import scaled_settings

PAGE = 4 * KB

# -- page table vs flat dict ------------------------------------------------------

#: Small vpn universe so runs split, merge and collide often.
VPNS = 48
FRAMES = 64

vpns = st.integers(0, VPNS - 1)
counts = st.integers(1, 12)
frames = st.integers(0, FRAMES - 1)
prots = st.sampled_from([Prot.READ, Prot.READ | Prot.WRITE])


def _model_runs(model):
    """Maximal (vpn, frame, prot)-coalesced runs of a flat dict."""
    runs = 0
    previous = None
    for vpn in sorted(model):
        frame, prot = model[vpn]
        if previous is None or vpn != previous[0] + 1 \
                or frame != previous[1] + 1 or prot != previous[2]:
            runs += 1
        previous = (vpn, frame, prot)
    return runs


class PageTableMachine(RuleBasedStateMachine):
    """Run-length page table vs one dict entry per page."""

    @initialize()
    def setup(self):
        self.mmu = PagedMMU(PAGE)
        self.space = self.mmu.create_space()
        self.model = {}

    @rule(vpn=vpns, frame=frames, prot=prots)
    def map_one(self, vpn, frame, prot):
        self.mmu.map(self.space, vpn * PAGE, frame, prot)
        self.model[vpn] = (frame, prot)

    @rule(vpn=vpns, count=counts, frame=frames, prot=prots)
    def map_run(self, vpn, count, frame, prot):
        self.mmu.map_run(self.space, vpn * PAGE, count, frame, prot)
        for index in range(count):
            self.model[vpn + index] = (frame + index, prot)

    @rule(vpn=vpns, count=counts, frame=frames, prot=prots)
    def map_batch(self, vpn, count, frame, prot):
        self.mmu.map_batch(self.space, [
            (((vpn + 2 * index) % VPNS) * PAGE, frame, prot)
            for index in range(count)])
        for index in range(count):
            self.model[(vpn + 2 * index) % VPNS] = (frame, prot)

    @rule(vpn=vpns)
    def unmap_one(self, vpn):
        existed = self.mmu.unmap(self.space, vpn * PAGE)
        assert existed == (self.model.pop(vpn, None) is not None)

    @rule(vpn=vpns, count=counts)
    def unmap_range(self, vpn, count):
        dropped = self.mmu.unmap_range(self.space, vpn * PAGE, count * PAGE)
        expected = sum(1 for index in range(count)
                       if self.model.pop(vpn + index, None) is not None)
        assert dropped == expected

    @rule(vpn=vpns, count=counts)
    def unmap_batch(self, vpn, count):
        addrs = [((vpn + 3 * index) % VPNS) * PAGE for index in range(count)]
        dropped = self.mmu.unmap_batch(self.space, addrs)
        expected = sum(1 for addr in {a // PAGE for a in addrs}
                       if self.model.pop(addr, None) is not None)
        assert dropped == expected

    @rule(vpn=vpns)
    def protect_one(self, vpn):
        if vpn in self.model:
            self.mmu.protect(self.space, vpn * PAGE, Prot.READ)
            frame, _ = self.model[vpn]
            self.model[vpn] = (frame, Prot.READ)
        else:
            with pytest.raises(InvalidOperation):
                self.mmu.protect(self.space, vpn * PAGE, Prot.READ)

    @rule(vpn=vpns, count=counts, prot=prots)
    def protect_range(self, vpn, count, prot):
        hole = next((index for index in range(count)
                     if vpn + index not in self.model), None)
        if hole is None:
            self.mmu.protect_range(self.space, vpn * PAGE, count, prot)
            changed = count
        else:
            with pytest.raises(InvalidOperation):
                self.mmu.protect_range(self.space, vpn * PAGE, count, prot)
            # The range form re-protects the prefix below the hole,
            # exactly as the per-page loop would leave it.
            changed = hole
        for index in range(changed):
            frame, _ = self.model[vpn + index]
            self.model[vpn + index] = (frame, prot)

    @invariant()
    def lookups_agree(self):
        for vpn in range(VPNS):
            mapping = self.mmu.lookup(self.space, vpn * PAGE)
            expected = self.model.get(vpn)
            if expected is None:
                assert mapping is None
            else:
                assert mapping is not None
                assert (mapping.frame, mapping.prot) == expected

    @invariant()
    def counters_agree(self):
        scan = sum(1 for _ in self.mmu._iter_space(self.space))
        assert self.mmu._space_size(self.space) == len(self.model) == scan
        assert self.mmu.run_count(self.space) == _model_runs(self.model)
        assert self.mmu.table_count(self.space) == \
            len({vpn >> TABLE_BITS for vpn in self.model})


TestPageTableModel = PageTableMachine.TestCase
TestPageTableModel.settings = scaled_settings(40, 30)


# -- region map vs flat region set -------------------------------------------------

SLOTS = 16
BASE = 0x200000

slots = st.integers(0, SLOTS - 1)
spans = st.integers(1, 5)


class RegionMapMachine(RuleBasedStateMachine):
    """Interval-map region index vs a flat {region: (start, end)} dict."""

    @initialize()
    def setup(self):
        self.vm = PagedVirtualMemory(memory_size=64 * PAGE, page_size=PAGE)
        self.context = self.vm.context_create("extents")
        self.cache = self.vm.cache_create(ZeroFillProvider())
        self.model = {}

    def _addr(self, slot):
        return BASE + slot * PAGE

    def _free(self, slot, pages):
        lo, hi = self._addr(slot), self._addr(slot + pages)
        return not any(
            lo < end and start < hi for start, end in self.model.values())

    @precondition(lambda self: len(self.model) < SLOTS)
    @rule(slot=slots, pages=spans)
    def create(self, slot, pages):
        if self._free(slot, pages):
            region = self.context.region_create(
                self._addr(slot), pages * PAGE,
                protection=Protection.RW, cache=self.cache, offset=0)
            self.model[region] = (region.address, region.end)
        else:
            with pytest.raises(InvalidOperation):
                self.context.region_create(
                    self._addr(slot), pages * PAGE,
                    protection=Protection.RW, cache=self.cache, offset=0)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 63), cut=st.integers(1, 4))
    def split(self, pick, cut):
        region = sorted(self.model, key=lambda r: r.address)[
            pick % len(self.model)]
        start, end = self.model[region]
        offset = cut * PAGE
        if not 0 < offset < end - start:
            return
        upper = region.split(offset)
        self.model[region] = (region.address, region.end)
        self.model[upper] = (upper.address, upper.end)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(0, 63))
    def destroy(self, pick):
        region = sorted(self.model, key=lambda r: r.address)[
            pick % len(self.model)]
        region.destroy()
        del self.model[region]

    @invariant()
    def region_list_agrees(self):
        expected = sorted(self.model, key=lambda r: r.address)
        assert self.context.get_region_list() == expected
        assert self.context.regions == expected

    @invariant()
    def point_queries_agree(self):
        for slot in range(SLOTS + 1):
            address = self._addr(slot)
            expected = next(
                (r for r, (start, end) in self.model.items()
                 if start <= address < end), None)
            assert self.context._region_at(address) is expected

    @invariant()
    def range_queries_agree(self):
        for slot in range(0, SLOTS, 3):
            for pages in (1, 2, 5):
                lo, hi = self._addr(slot), self._addr(slot + pages)
                expected = [r for r in sorted(self.model,
                                              key=lambda r: r.address)
                            if self.model[r][0] < hi
                            and lo < self.model[r][1]]
                assert self.context.regions_overlapping(
                    lo, hi - lo) == expected


TestRegionMapModel = RegionMapMachine.TestCase
TestRegionMapModel.settings = scaled_settings(40, 30)


# -- fragment list vs flat per-offset links -------------------------------------

#: Small offset universe so fragments split, abut and collide often.
POINTS = 48

points = st.integers(0, POINTS - 1)
sizes = st.integers(1, 12)
tags = st.sampled_from("abc")


class Target:
    """A link payload: which tree node, and where in it a fragment's
    first offset lands."""

    def __init__(self, tag, offset):
        self.tag = tag
        self.offset = offset

    def shifted(self, delta):
        return Target(self.tag, self.offset + delta)


def _flatten(items):
    """Per-point ``(tag, target offset)`` view of interval triples."""
    return {point: (value.tag, value.offset + (point - start))
            for start, end, value in items
            for point in range(start, end)}


class FragmentMapMachine(RuleBasedStateMachine):
    """A fragment list (section 4.2.4) under insert, splitting removal
    and value filtering vs one ``(tag, target)`` entry per offset."""

    @initialize()
    def setup(self):
        self.fragments = IntervalMap()
        self.model = {}

    @rule(start=points, size=sizes, tag=tags, offset=st.integers(0, 99))
    def add(self, start, size, tag, offset):
        span = range(start, start + size)
        if any(point in self.model for point in span):
            with pytest.raises(ValueError):
                self.fragments.add(start, start + size, Target(tag, offset))
            return
        self.fragments.add(start, start + size, Target(tag, offset))
        for point in span:
            self.model[point] = (tag, offset + (point - start))

    @rule(start=points, size=sizes)
    def cut(self, start, size):
        removed = self.fragments.cut(start, start + size)
        expected = {point: self.model.pop(point)
                    for point in range(start, start + size)
                    if point in self.model}
        assert _flatten(removed) == expected
        bounds = [(lo, hi) for lo, hi, _ in removed]
        assert bounds == sorted(bounds)
        assert all(start <= lo < hi <= start + size for lo, hi in bounds)

    @rule(tag=tags)
    def retain(self, tag):
        before = len(self.fragments)
        tagged = sum(1 for value in self.fragments.values()
                     if value.tag == tag)
        assert self.fragments.retain(lambda value: value.tag != tag) \
            == tagged
        assert len(self.fragments) == before - tagged
        self.model = {point: link for point, link in self.model.items()
                      if link[0] != tag}

    @invariant()
    def per_point_view_agrees(self):
        items = self.fragments.items()
        assert _flatten(items) == self.model
        for (_, left_end, _), (right_start, _, _) in zip(items, items[1:]):
            assert left_end <= right_start

    @invariant()
    def point_lookups_agree(self):
        for point in range(POINTS + 12):
            hit = self.fragments.interval_at(point)
            if point not in self.model:
                assert hit is None
            else:
                start, _, value = hit
                assert (value.tag, value.offset + (point - start)) == \
                    self.model[point]


TestFragmentMapModel = FragmentMapMachine.TestCase
TestFragmentMapModel.settings = scaled_settings(40, 30)
