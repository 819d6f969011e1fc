"""Unit tests for the statistics collector."""

import pytest

from repro import Design, Packet, StatsCollector, VirtualNetwork
from repro.network.stats import RouterModeStats


def packet(num_flits=2, created_at=0, src=0, dst=1):
    return Packet(
        src=src,
        dst=dst,
        vnet=VirtualNetwork.CONTROL_REQ,
        num_flits=num_flits,
        created_at=created_at,
    )


class TestCounters:
    def test_initial_state(self):
        s = StatsCollector(num_nodes=9)
        assert s.flits_injected == 0
        assert s.avg_packet_latency == 0.0
        assert s.injection_rate == 0.0
        assert s.throughput == 0.0

    def test_injection_counts_flits(self):
        s = StatsCollector(9)
        s.record_injection(packet(num_flits=18))
        s.record_injection(packet(num_flits=2))
        assert s.packets_injected == 2
        assert s.flits_injected == 20

    def test_injection_rate(self):
        s = StatsCollector(num_nodes=10)
        s.record_injection(packet(num_flits=5))
        for _ in range(10):
            s.tick()
        assert s.injection_rate == pytest.approx(5 / (10 * 10))

    def test_throughput(self):
        s = StatsCollector(num_nodes=4)
        for _ in range(8):
            s.record_flit_ejected(node=0)
        for _ in range(2):
            s.tick()
        assert s.throughput == pytest.approx(8 / (4 * 2))


class TestLatency:
    def test_packet_latency(self):
        s = StatsCollector(9)
        p = packet(num_flits=2, created_at=10)
        s.record_packet_complete(
            p, completed_at=50, first_injected_at=15, total_hops=6,
            total_deflections=1,
        )
        assert s.avg_packet_latency == 40
        assert s.avg_network_latency == 35
        assert s.avg_hops == 3.0  # 6 hops over 2 flits
        assert s.deflections == 1

    def test_deflection_rate(self):
        s = StatsCollector(9)
        s.record_packet_complete(
            packet(), completed_at=5, first_injected_at=0, total_hops=10,
            total_deflections=2,
        )
        assert s.deflection_rate == pytest.approx(0.2)

    def test_percentiles(self):
        s = StatsCollector(9)
        for lat in (10, 20, 30, 40, 100):
            s.record_packet_complete(
                packet(created_at=0),
                completed_at=lat,
                first_injected_at=0,
                total_hops=2,
                total_deflections=0,
            )
        assert s.latency_percentile(50) == 30
        assert s.latency_percentile(100) == 100

    def test_per_node_latency(self):
        s = StatsCollector(9)
        p = packet(dst=3, created_at=0)
        s.record_packet_complete(
            p, completed_at=12, first_injected_at=0, total_hops=2,
            total_deflections=0,
        )
        assert s.per_node_latency_sum[3] == 12
        assert s.per_node_completed[3] == 1


class TestMeasurementWindow:
    def test_reset_clears_counters(self):
        s = StatsCollector(9)
        s.record_injection(packet())
        s.tick()
        s.reset_measurement(cycle=100)
        assert s.flits_injected == 0
        assert s.cycles == 0
        assert s.window_start == 100


class TestModeStats:
    def test_fraction_counts_transition_as_non_backpressured(self):
        m = RouterModeStats(
            backpressureless_cycles=50,
            backpressured_cycles=40,
            transition_cycles=10,
        )
        assert m.observed_cycles == 100
        assert m.backpressured_fraction == pytest.approx(0.40)

    def test_empty_fraction_is_zero(self):
        assert RouterModeStats().backpressured_fraction == 0.0

    def test_network_aggregate(self):
        s = StatsCollector(2)
        s.mode(0).backpressured_cycles = 100
        s.mode(1).backpressureless_cycles = 100
        assert s.network_backpressured_fraction == pytest.approx(0.5)

    def test_gossip_totals(self):
        s = StatsCollector(2)
        s.mode(0).gossip_switches = 2
        s.mode(1).gossip_switches = 3
        assert s.total_gossip_switches == 5


def _closed_loop(design):
    from repro import Network, NetworkConfig
    from repro.memsys.system import MemorySystem
    from repro.traffic.workloads import WORKLOADS

    net = Network(NetworkConfig(), design, seed=3)
    MemorySystem(net, WORKLOADS["apache"], seed=3).run(800)
    return net


def _saturated_8x8(design):
    from repro import Network, NetworkConfig
    from repro.traffic.synthetic import uniform_random_traffic

    net = Network(NetworkConfig(width=8, height=8), design, seed=3)
    uniform_random_traffic(net, 0.6, seed=3, source_queue_limit=60).run(200)
    return net


@pytest.mark.parametrize("run", [_closed_loop, _saturated_8x8],
                         ids=["apache_3x3", "saturated_8x8"])
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_switch_traversals_equal_link_and_ejection_recount(design, run):
    """Routers report switch traversals as one count per step, not
    one call per flit; the count must equal what actually crossed a switch — a flit sent
    on a link or handed to the ejection port — with no measurement
    reset in between, so a missed ejection (single-flit path, ejection
    draw) or a double count shows.  The energy meter's event counts,
    also added once per step, must match the same independent
    counters, and its link energy must be exactly their product."""
    net = run(design)
    traversals = sum(ch.flit_traversals for ch in net.channels)
    ejected = sum(ni.flits_ejected_total for ni in net.interfaces)
    assert traversals > 0 and ejected > 0
    assert net.stats.dispatched_flit_hops == traversals + ejected
    meter = net.energy
    assert meter.links == traversals
    assert meter.crossings == meter.links + ejected
    assert meter.writes - meter.reads == sum(
        router.buffered_flits() for router in net.routers
    )
    if design.is_backpressureless:
        in_flight = sum(ch.flits_in_flight for ch in net.channels)
        assert meter.latches == meter.links - in_flight
    per_flit = meter.params.link_pj_per_bit * meter.effective_bits
    assert net.energy.totals.link == traversals * per_flit
