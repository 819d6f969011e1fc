"""Report/meter odds and ends not covered elsewhere."""

import pytest

from repro import Design
from repro.analysis import simulation_report
from repro.network.energy_hooks import NullEnergyMeter
from repro.traffic.synthetic import uniform_random_traffic

from conftest import make_network, offer_random_burst


class TestNullEnergyMeter:
    def test_all_hooks_are_noops(self):
        meter = NullEnergyMeter()
        meter.buffer_write(0)
        meter.buffer_read(0, flits=5)
        meter.crossbar(0)
        meter.arbiter(0, requests=2)
        meter.link(0)
        meter.latch(0, flits=3)
        meter.credit(0)
        meter.static_cycle([])
        # The hooks count (the sanitizer checks counts on any meter)...
        assert meter.counts() == (1, 5, 1, 1, 2, 3, 1)
        # ...but nothing is ever priced.
        net = make_network(Design.AFC, with_energy=False)
        offer_random_burst(net, 30)
        net.drain(max_cycles=20_000)
        assert net.energy.links > 0
        assert net.measured_energy().total == 0.0

    def test_network_without_energy_runs(self):
        net = make_network(Design.AFC, with_energy=False)
        offer_random_burst(net, 30)
        net.drain(max_cycles=20_000)
        assert net.stats.packets_completed == 30


class TestReportWithDrops:
    def test_dropping_run_reports_drop_count(self):
        net = make_network(Design.BACKPRESSURELESS_DROPPING)
        src = uniform_random_traffic(
            net, 0.6, seed=3, source_queue_limit=300
        )
        src.run(400)
        net.begin_measurement()
        src.run(1_200)
        report = simulation_report(net)
        assert "drops" in report

    def test_clean_run_omits_drop_count(self):
        net = make_network(Design.BACKPRESSURED)
        offer_random_burst(net, 30)
        net.drain()
        assert "drops" not in simulation_report(net)


class TestChannelRepr:
    def test_repr_is_informative(self):
        net = make_network(Design.BACKPRESSURED)
        text = repr(net.channels[0])
        assert "Channel(" in text and "L=2" in text


class TestBufferCapacityAccounting:
    @pytest.mark.parametrize(
        "design,expected_center_port_capacity",
        [
            (Design.BACKPRESSURED, 64 * 5),  # 4 network + local ports
            (Design.AFC, 32 * 5),
            (Design.BACKPRESSURELESS, 0),
            (Design.BACKPRESSURELESS_DROPPING, 0),
        ],
    )
    def test_center_router_capacity(
        self, design, expected_center_port_capacity
    ):
        net = make_network(design)
        assert (
            net.router(4).buffer_capacity_flits
            == expected_center_port_capacity
        )
