"""Tests for network construction and the cycle loop."""

import pytest

from repro import Design, Network, NetworkConfig, Packet, VirtualNetwork

from conftest import (
    DATAPATH_DESIGNS,
    assert_occupancy_mirrors,
    make_network,
    offer_random_burst,
)


class TestConstruction:
    def test_router_and_interface_per_node(self):
        net = make_network(Design.BACKPRESSURED)
        assert len(net.routers) == 9
        assert len(net.interfaces) == 9

    def test_channel_count_matches_mesh(self):
        net = make_network(Design.AFC)
        assert len(net.channels) == len(net.mesh.links())

    def test_wiring_is_symmetric(self):
        net = make_network(Design.BACKPRESSURED)
        for channel in net.channels:
            up = net.router(channel.upstream)
            down = net.router(channel.downstream)
            assert up.out_channels[channel.direction] is channel
            assert (
                down.in_channels[channel.direction.opposite] is channel
            )

    def test_each_design_builds_its_router(self):
        from repro.core.afc_router import AfcRouter
        from repro.routers import (
            BackpressuredRouter,
            BackpressurelessRouter,
        )

        expected = {
            Design.BACKPRESSURED: BackpressuredRouter,
            Design.BACKPRESSURED_IDEAL_BYPASS: BackpressuredRouter,
            Design.BACKPRESSURELESS: BackpressurelessRouter,
            Design.AFC: AfcRouter,
            Design.AFC_ALWAYS_BACKPRESSURED: AfcRouter,
        }
        for design, cls in expected.items():
            net = make_network(design)
            assert all(isinstance(r, cls) for r in net.routers)
            assert all(r.design is design for r in net.routers)

    def test_larger_mesh(self):
        net = Network(NetworkConfig(width=8, height=8), Design.AFC, seed=0)
        assert len(net.routers) == 64


class TestCycleLoop:
    def test_run_advances_cycles(self):
        net = make_network(Design.BACKPRESSURED)
        net.run(10)
        assert net.cycle == 10
        assert net.stats.cycles == 10

    def test_drain_empty_network_is_instant(self):
        net = make_network(Design.AFC)
        assert net.drain() == 0

    def test_drain_timeout_raises(self):
        net = make_network(Design.BACKPRESSURED)
        offer_random_burst(net, 50)
        with pytest.raises(RuntimeError, match="drain"):
            net.drain(max_cycles=2)


class TestConservation:
    @pytest.mark.parametrize("design", DATAPATH_DESIGNS)
    def test_conservation_holds_throughout(self, design):
        net = make_network(design)
        offer_random_burst(net, 100)
        for _ in range(40):
            net.run(25)
            net.check_flit_conservation()
        net.drain(max_cycles=30_000)
        net.check_flit_conservation()
        assert net.flits_in_network == 0

    def test_every_packet_delivered_exactly_once(self):
        net = make_network(Design.AFC)
        packets = offer_random_burst(net, 80)
        delivered = []
        for ni in net.interfaces:
            ni.on_packet = lambda done, _d=delivered: _d.append(
                done.packet.pid
            )
        net.drain(max_cycles=30_000)
        assert sorted(delivered) == sorted(p.pid for p in packets)


class TestDeterminism:
    @pytest.mark.parametrize("design", DATAPATH_DESIGNS)
    def test_same_seed_same_results(self, design):
        results = []
        for _ in range(2):
            from repro.network.flit import reset_packet_ids

            reset_packet_ids()
            net = make_network(design, seed=42)
            offer_random_burst(net, 80, seed=9)
            net.drain(max_cycles=30_000)
            results.append(
                (
                    net.cycle,
                    net.stats.avg_packet_latency,
                    net.stats.deflections,
                    net.measured_energy().total,
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        cycles = set()
        for seed in range(3):
            from repro.network.flit import reset_packet_ids

            reset_packet_ids()
            net = make_network(Design.BACKPRESSURELESS, seed=seed)
            offer_random_burst(net, 80, seed=9)
            net.drain(max_cycles=30_000)
            cycles.add(
                (net.cycle, net.stats.deflections)
            )
        assert len(cycles) > 1


class TestMeasurementWindows:
    def test_begin_measurement_zeroes_stats_and_energy(self):
        net = make_network(Design.BACKPRESSURED)
        offer_random_burst(net, 30)
        net.run(50)
        net.begin_measurement()
        assert net.stats.flits_injected == 0
        assert net.measured_energy().total == 0.0
        net.run(10)
        assert net.measured_energy().total > 0.0

    def test_energy_disabled_network(self):
        net = make_network(Design.BACKPRESSURED, with_energy=False)
        offer_random_burst(net, 10)
        net.drain()
        assert net.measured_energy().total == 0.0

    def test_on_packet_callback_wiring(self):
        seen = []
        net = Network(
            NetworkConfig(),
            Design.BACKPRESSURED,
            seed=0,
            on_packet=lambda node, done: seen.append((node, done.packet.pid)),
        )
        p = Packet(
            src=0, dst=3, vnet=VirtualNetwork.CONTROL_REQ, num_flits=1,
            created_at=0,
        )
        net.interface(0).offer(p)
        net.drain()
        assert seen == [(3, p.pid)]


class TestAwakeList:
    """The active-set loop walks ``Network._awake`` instead of scanning
    the ``_asleep`` flags; the list must equal the clear flags after
    every cycle, including wakes raised from inside the step phase."""

    @pytest.mark.parametrize("design", DATAPATH_DESIGNS, ids=lambda d: d.value)
    def test_matches_flags_with_mid_phase_wakes(self, design):
        def build(engine):
            replies = iter(range(40))

            def reply(node, done):
                # A completion at ``node`` makes it answer one sleeping
                # node the step loop has passed and one it has not.
                if next(replies, None) is None:
                    return
                for dst in (0, net.mesh.num_nodes - 1):
                    if dst != node:
                        net.interface(node).offer(
                            Packet(
                                src=node, dst=dst,
                                vnet=VirtualNetwork.CONTROL_RESP,
                                num_flits=2, created_at=net.cycle,
                            )
                        )

            net = Network(
                NetworkConfig(width=4, height=4), design, seed=3,
                on_packet=reply, engine=engine,
            )
            return net

        outcomes = []
        for engine in ("active", "naive"):
            net = build(engine)
            if engine == "active":
                net.subscribe(
                    "cycle_end", lambda cycle: assert_occupancy_mirrors(net)
                )
            offer_random_burst(net, 12, seed=5)
            net.drain(max_cycles=20_000)
            net.run(50)  # everyone back to sleep
            outcomes.append(
                (net.cycle, net.stats.packets_completed, net.stats.hops_sum,
                 vars(net.energy.totals).copy())
            )
            if engine == "active":
                assert net._awake == []
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 12  # replies really were generated
