"""Cross-design integration tests: the paper's qualitative claims on
small, fast runs.

These are deliberately coarse (short windows, generous tolerances); the
full-scale numbers live in the benchmark harness.

Each distinct simulation below runs once per session
(``functools.cache``) and is shared by every test that reads it; the
tests only read those runs, and a test that drives a network further
builds its own.
"""

import functools

import pytest

from repro import Design, Mode, Network, NetworkConfig
from repro.memsys import MemorySystem
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource, uniform_random_traffic
from repro.traffic.workloads import WORKLOADS

from conftest import make_network


@functools.cache
def closed_loop_perf(design, workload, seed=1, warm=2000, measure=5000):
    net = make_network(design, seed=seed)
    system = MemorySystem(net, WORKLOADS[workload], seed=seed + 40)
    system.run(warm)
    system.begin_measurement()
    system.run(measure)
    return net, system


class TestLowLoadEquivalence:
    """Figure 2(a): flow control has no meaningful performance impact
    at low loads."""

    def test_performance_parity_at_low_load(self):
        perfs = {}
        for design in (
            Design.BACKPRESSURED,
            Design.BACKPRESSURELESS,
            Design.AFC,
        ):
            _, system = closed_loop_perf(design, "water")
            perfs[design] = system.transactions_per_kilocycle_per_core
        base = perfs[Design.BACKPRESSURED]
        for perf in perfs.values():
            assert perf == pytest.approx(base, rel=0.08)

    def test_afc_stays_backpressureless_at_low_load(self):
        net, _ = closed_loop_perf(Design.AFC, "water")
        assert net.stats.network_backpressured_fraction < 0.05


class TestHighLoadSeparation:
    """Figures 2(c)/(d): deflection suffers at high load; AFC follows
    the backpressured router."""

    def test_backpressureless_loses_performance(self):
        _, bp = closed_loop_perf(Design.BACKPRESSURED, "apache")
        _, bless = closed_loop_perf(Design.BACKPRESSURELESS, "apache")
        assert (
            bless.transactions_per_kilocycle_per_core
            < 0.97 * bp.transactions_per_kilocycle_per_core
        )

    def test_afc_tracks_backpressured(self):
        _, bp = closed_loop_perf(Design.BACKPRESSURED, "apache")
        _, afc = closed_loop_perf(Design.AFC, "apache")
        assert (
            afc.transactions_per_kilocycle_per_core
            > 0.88 * bp.transactions_per_kilocycle_per_core
        )

    def test_afc_goes_backpressured_at_high_load(self):
        net, _ = closed_loop_perf(Design.AFC, "apache")
        assert net.stats.network_backpressured_fraction > 0.90


class TestEnergyShapes:
    """Figure 2(b)/(d) orderings on small runs."""

    def _energy_per_txn(self, design, workload):
        net, system = closed_loop_perf(design, workload)
        return net.measured_energy().total / max(
            1, system.transactions_completed
        )

    def test_low_load_ordering(self):
        bp = self._energy_per_txn(Design.BACKPRESSURED, "water")
        bless = self._energy_per_txn(Design.BACKPRESSURELESS, "water")
        afc = self._energy_per_txn(Design.AFC, "water")
        bypass = self._energy_per_txn(
            Design.BACKPRESSURED_IDEAL_BYPASS, "water"
        )
        assert bless < afc < bypass < bp  # the Figure 2(b) ordering

    def test_high_load_ordering(self):
        bp = self._energy_per_txn(Design.BACKPRESSURED, "apache")
        bless = self._energy_per_txn(Design.BACKPRESSURELESS, "apache")
        afc = self._energy_per_txn(Design.AFC, "apache")
        assert bless > 1.1 * bp  # deflection wastes link energy
        assert afc == pytest.approx(bp, rel=0.10)  # AFC tracks baseline

    def test_buffer_energy_significant_in_baseline_at_low_load(self):
        """Section I: buffers are ~30-40% of network energy."""
        net, _ = closed_loop_perf(Design.BACKPRESSURED, "water")
        energy = net.measured_energy()
        assert 0.25 < energy.buffer / energy.total < 0.55


@functools.cache
def _throughput(design, rate):
    net = make_network(design)
    src = uniform_random_traffic(net, rate, seed=3, source_queue_limit=400)
    src.run(1500)
    net.begin_measurement()
    src.run(3000)
    return net.stats.throughput


class TestOpenLoopSaturation:
    """Section V 'Other results'."""

    def test_equal_low_load_throughput(self):
        for design in (
            Design.BACKPRESSURED,
            Design.BACKPRESSURELESS,
            Design.AFC,
        ):
            assert _throughput(design, 0.25) == pytest.approx(
                0.25, rel=0.15
            )

    def test_backpressureless_saturates_first(self):
        bp = _throughput(Design.BACKPRESSURED, 0.95)
        bless = _throughput(Design.BACKPRESSURELESS, 0.95)
        assert bless < 0.95 * bp

    def test_afc_matches_backpressured_saturation(self):
        bp = _throughput(Design.BACKPRESSURED, 0.95)
        afc = _throughput(Design.AFC, 0.95)
        assert afc > 0.90 * bp


class TestMixedModeCorrectness:
    """Corner cases of Section III-D exercised end-to-end."""

    def test_hotspot_traffic_with_mode_mixture(self):
        net = make_network(Design.AFC)
        source = OpenLoopSource(
            net,
            rate=0.45,
            pattern=Hotspot(net.mesh, hotspot=4, fraction=0.6),
            seed=11,
            source_queue_limit=400,
        )
        source.run(4000)
        # Mixed modes must have occurred (hotspot high, fringe low).
        modes = {r.mode for r in net.routers}
        stats = net.stats
        assert stats.network_backpressured_fraction > 0.0
        assert stats.network_backpressured_fraction < 1.0
        net.check_flit_conservation()
        # and the network still drains completely
        net.drain(max_cycles=60_000)
        net.check_flit_conservation()

    def test_oscillating_load_switches_both_ways(self):
        net = make_network(Design.AFC)
        for phase in range(3):
            burst = OpenLoopSource(
                net, rate=0.7, seed=20 + phase, source_queue_limit=400
            )
            burst.run(900)
            net.drain(max_cycles=60_000)
            net.run(900)  # idle: EWMA decays, reverse switches happen
        modes = net.stats.mode_stats.values()
        assert sum(m.forward_switches for m in modes) >= 2
        assert sum(m.reverse_switches for m in modes) >= 2
        net.check_flit_conservation()
        assert all(r.mode is Mode.BACKPRESSURELESS for r in net.routers)


class TestModeDutyCycle:
    """Section V-A text: four of six workloads are >=99% single-mode."""

    def test_barnes_water_stay_backpressureless(self):
        for workload in ("barnes", "water"):
            net, _ = closed_loop_perf(Design.AFC, workload)
            assert net.stats.network_backpressured_fraction < 0.03

    def test_apache_specjbb_stay_backpressured(self):
        for workload in ("apache", "specjbb"):
            net, _ = closed_loop_perf(Design.AFC, workload)
            assert net.stats.network_backpressured_fraction > 0.95
