"""Unit tests for the Orion-style energy model."""

import pytest

from repro import (
    DEFAULT_ENERGY_PARAMETERS,
    Design,
    EnergyBreakdown,
    EnergyParameters,
    NetworkConfig,
    OrionEnergyMeter,
)


class FakeRouter:
    """Duck-typed router for static-energy integration."""

    def __init__(self, capacity=64, gated=False, ports=4):
        self.buffer_capacity_flits = capacity
        self.buffers_power_gated = gated
        self.in_channels = {i: None for i in range(ports)}


def meter(design=Design.BACKPRESSURED, params=DEFAULT_ENERGY_PARAMETERS):
    return OrionEnergyMeter(NetworkConfig(), design, params)


class TestWidths:
    def test_effective_bits_uses_activity_factor(self):
        m = meter(Design.AFC)
        expected = 32 + DEFAULT_ENERGY_PARAMETERS.control_activity * 17
        assert m.effective_bits == pytest.approx(expected)

    def test_physical_bits_are_full_width(self):
        assert meter(Design.AFC).physical_bits == 49
        assert meter(Design.BACKPRESSURED).physical_bits == 41

    def test_wider_flits_cost_more_dynamic_energy(self):
        narrow, wide = meter(Design.BACKPRESSURED), meter(Design.AFC)
        narrow.link(0)
        wide.link(0)
        assert wide.totals.link > narrow.totals.link


class TestDynamicEvents:
    def test_buffer_write_price(self):
        m = meter()
        m.buffer_write(0)
        expected = (
            DEFAULT_ENERGY_PARAMETERS.buffer_write_pj_per_bit
            * m.effective_bits
        )
        assert m.totals.buffer_dynamic == pytest.approx(expected)

    def test_counts_scale_linearly(self):
        m = meter()
        m.crossbar(0, flits=5)
        single = meter()
        single.crossbar(0)
        assert m.totals.crossbar == pytest.approx(5 * single.totals.crossbar)

    def test_arbiter_and_credit_are_flat(self):
        m = meter()
        m.arbiter(0)
        m.credit(0)
        assert m.totals.arbiter == DEFAULT_ENERGY_PARAMETERS.arbiter_pj
        assert m.totals.credit == DEFAULT_ENERGY_PARAMETERS.credit_pj

    def test_latch_event(self):
        m = meter(Design.BACKPRESSURELESS)
        m.latch(0)
        expected = (
            DEFAULT_ENERGY_PARAMETERS.latch_pj_per_bit * m.effective_bits
        )
        assert m.totals.latch == pytest.approx(expected)


class TestIdealBypass:
    def test_elides_all_buffer_dynamic(self):
        m = meter(Design.BACKPRESSURED_IDEAL_BYPASS)
        m.buffer_write(0)
        m.buffer_read(0)
        assert m.totals.buffer_dynamic == 0.0

    def test_keeps_leakage(self):
        m = meter(Design.BACKPRESSURED_IDEAL_BYPASS)
        m.static_cycle([FakeRouter()])
        assert m.totals.buffer_static > 0.0

    def test_keeps_other_dynamic(self):
        m = meter(Design.BACKPRESSURED_IDEAL_BYPASS)
        m.crossbar(0)
        m.link(0)
        assert m.totals.crossbar > 0
        assert m.totals.link > 0


class TestStaticIntegration:
    def test_buffer_leakage_scales_with_bits(self):
        m = meter()
        m.static_cycle([FakeRouter(capacity=64)])
        expected = (
            64
            * 41
            * DEFAULT_ENERGY_PARAMETERS.buffer_leak_pj_per_bit_cycle
        )
        assert m.totals.buffer_static == pytest.approx(expected)

    def test_power_gating_reduces_leakage_by_90_percent(self):
        gated, hot = meter(Design.AFC), meter(Design.AFC)
        gated.static_cycle([FakeRouter(capacity=32, gated=True)])
        hot.static_cycle([FakeRouter(capacity=32, gated=False)])
        assert gated.totals.buffer_static == pytest.approx(
            0.1 * hot.totals.buffer_static
        )

    def test_no_buffers_no_buffer_leakage(self):
        m = meter(Design.BACKPRESSURELESS)
        m.static_cycle([FakeRouter(capacity=0)])
        assert m.totals.buffer_static == 0.0
        assert m.totals.logic_static > 0.0

    def test_logic_leakage_scales_with_ports(self):
        big, small = meter(), meter()
        big.static_cycle([FakeRouter(ports=4)])
        small.static_cycle([FakeRouter(ports=2)])
        # ports + 1 local each: 5 vs 3
        assert big.totals.logic_static == pytest.approx(
            small.totals.logic_static * 5 / 3
        )


class TestBreakdown:
    def test_total_is_sum_of_components(self):
        b = EnergyBreakdown(
            buffer_dynamic=1,
            buffer_static=2,
            link=3,
            crossbar=4,
            arbiter=5,
            latch=6,
            credit=7,
            logic_static=8,
        )
        assert b.buffer == 3
        assert b.other == 4 + 5 + 6 + 7 + 8
        assert b.total == 36

    def test_minus_is_componentwise(self):
        a = EnergyBreakdown(link=10, crossbar=4)
        b = EnergyBreakdown(link=3, crossbar=1)
        diff = a.minus(b)
        assert diff.link == 7
        assert diff.crossbar == 3

    def test_snapshot_is_independent(self):
        m = meter()
        m.link(0)
        snap = m.snapshot()
        m.link(0)
        assert m.since(snap).link == pytest.approx(snap.link)


class TestParameters:
    def test_activity_bounds(self):
        with pytest.raises(ValueError):
            EnergyParameters(control_activity=1.5)

    def test_gating_bounds(self):
        with pytest.raises(ValueError):
            EnergyParameters(power_gating_effectiveness=-0.1)

    @pytest.mark.parametrize(
        "name",
        [
            "buffer_write_pj_per_bit",
            "buffer_read_pj_per_bit",
            "crossbar_pj_per_bit",
            "link_pj_per_bit",
            "latch_pj_per_bit",
            "arbiter_pj",
            "credit_pj",
            "buffer_leak_pj_per_bit_cycle",
            "logic_leak_pj_per_port_cycle",
        ],
    )
    def test_energies_must_be_finite_and_non_negative(self, name):
        # A negative energy once reported -8078 pJ of link energy for a
        # plain run; NaN and infinity poison every total they touch.
        for bad in (-0.4, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                EnergyParameters(**{name: bad})
        assert getattr(EnergyParameters(**{name: 0.0}), name) == 0.0

    def test_custom_parameters_flow_through(self):
        params = EnergyParameters(link_pj_per_bit=1.0, control_activity=0.0)
        m = meter(params=params)
        m.link(0)
        assert m.totals.link == pytest.approx(32.0)  # 32 data bits x 1 pJ
