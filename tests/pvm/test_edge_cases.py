"""PVM edge cases: partial caps, mixed fragments, splits of locked
regions, moves under constraints, address allocation."""

import pytest

from repro.errors import AccessViolation, InvalidOperation
from repro.gmi.interface import CopyPolicy
from repro.gmi.types import Protection
from repro.cache.provider import ZeroFillProvider
from repro.units import KB

PAGE = 8 * KB


@pytest.fixture
def make(pvm):
    def factory(name=None, fill=None, pages=4):
        cache = pvm.cache_create(ZeroFillProvider(), name=name)
        if fill is not None:
            for page in range(pages):
                cache.write(page * PAGE, bytes([fill + page]) * PAGE)
        return cache
    return factory


class TestPartialProtectionCaps:
    def test_cap_applies_only_to_its_range(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        pvm.user_write(ctx, 0x40000, b"a")
        pvm.user_write(ctx, 0x40000 + PAGE, b"b")
        cache.set_protection(0, PAGE, Protection.READ)
        with pytest.raises(AccessViolation):
            pvm.user_write(ctx, 0x40000, b"x")
        pvm.user_write(ctx, 0x40000 + PAGE, b"fine")  # other page untouched

    def test_overlapping_cap_replaces(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        cache.set_protection(0, 2 * PAGE, Protection.READ)
        cache.set_protection(0, PAGE, Protection.RWX)
        pvm.user_write(ctx, 0x40000, b"ok now")
        with pytest.raises(AccessViolation):
            pvm.user_write(ctx, 0x40000 + PAGE, b"still capped")

    def test_read_cap_unmaps(self, pvm, ctx, make):
        cache = make(fill=1)
        ctx.region_create(0x40000, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        pvm.user_read(ctx, 0x40000, 1)
        cache.set_protection(0, PAGE, Protection.NONE)
        assert pvm.mmu.lookup(ctx.space, 0x40000) is None


class TestMixedFragmentReads:
    def test_read_spanning_hole_parent_and_own(self, pvm, make):
        """One read crossing: own page | parent-covered | zero hole."""
        src = make("src", fill=10, pages=2)
        dst = make("dst")
        dst.write(0, b"OWN" * 100)
        src.copy(0, dst, PAGE, PAGE, policy=CopyPolicy.HISTORY)
        blob = dst.read(0, 3 * PAGE)
        assert blob[:3] == b"OWN"
        assert blob[PAGE:PAGE + 4] == bytes([10] * 4)      # via parent
        assert blob[2 * PAGE:2 * PAGE + 4] == bytes(4)     # hole: zeros

    def test_write_through_chain_of_three(self, pvm, make):
        a = make("a", fill=1)
        b = make("b")
        c = make("c")
        a.copy(0, b, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        b.copy(0, c, 0, 2 * PAGE, policy=CopyPolicy.HISTORY)
        c.write(0, b"leafwrite")
        assert a.read(0, 2) == bytes([1, 1])
        assert b.read(0, 2) == bytes([1, 1])
        assert c.read(0, 9) == b"leafwrite"


class TestSplitInteractions:
    def test_split_of_locked_region_keeps_pins(self, pvm, ctx, make):
        cache = make()
        region = ctx.region_create(0x40000, 4 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        upper = region.split(2 * PAGE)
        assert upper.locked
        faults = pvm.bus.stats.get("faults")
        pvm.user_write(ctx, 0x40000 + 3 * PAGE, b"no fault")
        assert pvm.bus.stats.get("faults") == faults

    def test_split_regions_unlock_independently(self, pvm, ctx, make):
        cache = make()
        region = ctx.region_create(0x40000, 2 * PAGE, protection=Protection.RW,
                                   cache=cache, offset=0)
        region.lock_in_memory()
        upper = region.split(PAGE)
        upper.unlock()
        assert cache.pages[0].pinned
        assert not cache.pages[PAGE].pinned


class TestMoveConstraints:
    def test_move_of_pinned_page_copies(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(0, b"pinned data")
        src.lock_in_memory(0, PAGE)
        frame = src.pages[0].frame
        src.move(0, dst, 0, PAGE)
        assert dst.read(0, 11) == b"pinned data"
        # Pinned frame stayed where it was.
        assert src.pages[0].frame == frame

    def test_move_nonresident_source_pulls_through(self, pvm, make):
        src, dst = make("src"), make("dst")
        src.write(0, b"swapped out")
        src.flush(0, PAGE)
        assert 0 not in src.pages
        src.move(0, dst, 0, PAGE)
        assert dst.read(0, 11) == b"swapped out"


class TestAddressAllocation:
    def test_never_allocates_page_zero(self, pvm, ctx):
        assert ctx.allocate_address(PAGE) >= PAGE

    def test_fills_gaps_between_regions(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(PAGE, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        ctx.region_create(4 * PAGE, PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        address = ctx.allocate_address(2 * PAGE)
        assert address == 2 * PAGE

    def test_skips_too_small_gaps(self, pvm, ctx, make):
        cache = make()
        ctx.region_create(PAGE, PAGE, protection=Protection.RW, cache=cache,
                          offset=0)
        ctx.region_create(3 * PAGE, PAGE, protection=Protection.RW,
                          cache=cache, offset=0)
        address = ctx.allocate_address(2 * PAGE)
        assert address >= 4 * PAGE

    def test_hint_respected(self, pvm, ctx):
        address = ctx.allocate_address(PAGE, start_hint=0x700000)
        assert address >= 0x700000


class TestCopyOnReferenceViaNucleus:
    def test_rgn_init_on_reference(self):
        from repro.nucleus import Nucleus
        from repro.segments import MemoryMapper
        from repro.units import MB
        nucleus = Nucleus(memory_size=4 * MB)
        mapper = MemoryMapper()
        nucleus.register_mapper(mapper)
        cap = mapper.register(b"reference me" + bytes(PAGE))
        actor = nucleus.create_actor()
        nucleus.rgn_init(actor, cap, PAGE, address=0x40000,
                         on_reference=True)
        assert actor.read(0x40000, 12) == b"reference me"
        # COR: the read already materialized a private page.
        cache = actor.mappings[-1].cache
        assert 0 in cache.pages


class TestDoubleDestroy:
    def test_cache_double_destroy_rejected(self, pvm, make):
        cache = make()
        cache.destroy()
        from repro.errors import StaleObject
        with pytest.raises(StaleObject):
            cache.destroy()

    def test_operations_on_destroyed_cache_rejected(self, pvm, make):
        from repro.errors import StaleObject
        cache = make()
        cache.destroy()
        with pytest.raises(StaleObject):
            cache.read(0, 1)
        with pytest.raises(StaleObject):
            cache.write(0, b"x")
