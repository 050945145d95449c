"""Unit tests for the virtual clock and cost model."""

import pytest

from repro.kernel.clock import ClockRegion, CostEvent, CostModel, VirtualClock


class TestCostModel:
    def test_unpriced_event_is_free(self):
        model = CostModel()
        assert model.price(CostEvent.BCOPY_PAGE) == 0.0

    def test_priced_event(self):
        model = CostModel({CostEvent.BCOPY_PAGE: 1.4})
        assert model.price(CostEvent.BCOPY_PAGE) == 1.4

    def test_with_overrides_does_not_mutate(self):
        base = CostModel({CostEvent.BCOPY_PAGE: 1.4}, name="base")
        derived = base.with_overrides({CostEvent.BCOPY_PAGE: 2.0}, name="d")
        assert base.price(CostEvent.BCOPY_PAGE) == 1.4
        assert derived.price(CostEvent.BCOPY_PAGE) == 2.0
        assert derived.name == "d"

    def test_priced_events_lists_nonzero(self):
        model = CostModel({CostEvent.BCOPY_PAGE: 1.4, CostEvent.PAGE_MAP: 0.0})
        assert model.priced_events() == [CostEvent.BCOPY_PAGE]


class TestVirtualClock:
    def test_charge_advances_time(self):
        clock = VirtualClock(CostModel({CostEvent.BZERO_PAGE: 0.87}))
        clock.charge(CostEvent.BZERO_PAGE, 3)
        assert clock.now() == pytest.approx(2.61)

    def test_charge_counts_even_when_free(self):
        clock = VirtualClock()
        clock.charge(CostEvent.FAULT_DISPATCH)
        clock.charge(CostEvent.FAULT_DISPATCH)
        assert clock.count(CostEvent.FAULT_DISPATCH) == 2
        assert clock.now() == 0.0

    def test_zero_count_charge_is_noop(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        assert clock.charge(CostEvent.PAGE_MAP, 0) == 0.0
        assert clock.count(CostEvent.PAGE_MAP) == 0

    def test_advance_direct(self):
        clock = VirtualClock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_reset(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        clock.charge(CostEvent.PAGE_MAP)
        clock.reset()
        assert clock.now() == 0.0
        assert clock.count(CostEvent.PAGE_MAP) == 0

    def test_snapshot(self):
        clock = VirtualClock()
        clock.charge(CostEvent.FRAME_ALLOC, 4)
        snap = clock.snapshot()
        assert snap == {"frame_alloc": 4}

    def test_clock_region_measures_elapsed(self):
        clock = VirtualClock(CostModel({CostEvent.BCOPY_PAGE: 1.4}))
        clock.charge(CostEvent.BCOPY_PAGE)
        with ClockRegion(clock) as region:
            clock.charge(CostEvent.BCOPY_PAGE, 2)
        assert region.elapsed == pytest.approx(2.8)


class TestChargeEach:
    """charge_each must be bit-identical to N sequential unit charges
    (float addition is not associative, so price*N is NOT the same)."""

    PRICE = 0.087            # deliberately not exactly representable

    def test_bit_identical_to_unit_charges(self):
        model = CostModel({CostEvent.REGION_INVALIDATE_PAGE: self.PRICE})
        bulk, loop = VirtualClock(model), VirtualClock(model)
        bulk.charge_each(CostEvent.REGION_INVALIDATE_PAGE, 1000)
        for _ in range(1000):
            loop.charge(CostEvent.REGION_INVALIDATE_PAGE)
        assert bulk.now() == loop.now()          # exact, not approx
        assert bulk.count(CostEvent.REGION_INVALIDATE_PAGE) == 1000

    def test_differs_from_grouped_charge(self):
        # Sanity: the whole reason charge_each exists.
        model = CostModel({CostEvent.REGION_INVALIDATE_PAGE: self.PRICE})
        grouped, each = VirtualClock(model), VirtualClock(model)
        grouped.charge(CostEvent.REGION_INVALIDATE_PAGE, 1000)
        each.charge_each(CostEvent.REGION_INVALIDATE_PAGE, 1000)
        assert grouped.now() != each.now()

    def test_unpriced_event_moves_only_the_counter(self):
        clock = VirtualClock()
        assert clock.charge_each(CostEvent.PAGE_UNMAP, 5) == 0.0
        assert clock.now() == 0.0
        assert clock.count(CostEvent.PAGE_UNMAP) == 5

    def test_nonpositive_count_is_a_noop(self):
        clock = VirtualClock(CostModel({CostEvent.PAGE_MAP: 1.0}))
        assert clock.charge_each(CostEvent.PAGE_MAP, 0) == 0.0
        assert clock.charge_each(CostEvent.PAGE_MAP, -3) == 0.0
        assert clock.now() == 0.0

    def test_listeners_see_unit_charges(self):
        model = CostModel({CostEvent.PAGE_MAP: 1.0})
        clock = VirtualClock(model)
        seen = []
        clock.add_listener(lambda t, e, c: seen.append((t, e, c)))
        clock.charge_each(CostEvent.PAGE_MAP, 3)
        assert seen == [(0.0, CostEvent.PAGE_MAP, 1),
                        (1.0, CostEvent.PAGE_MAP, 1),
                        (2.0, CostEvent.PAGE_MAP, 1)]
