"""Section V-B: open-loop spatial load variation (consolidation).

An 8x8 mesh mimicking a consolidation workload: one quadrant injects at
a fixed high rate (0.9 flits/node/cycle), the other three at 0.1, with
destinations confined to the source's quadrant "except possibly due to
misrouting".

Paper's findings: with spatial variation AFC is the *best* energy
configuration — backpressured spends ~9 % more and backpressureless
~30 % more; backpressured and AFC achieve ~33 % lower latencies than
backpressureless in the high-load quadrant; and the high-load quadrant
adversely affects a neighbouring low-load quadrant under
backpressureless routing because of misrouting.  We quantify that last
effect directly as *spillover*: flit traversals on the links crossing
from the hot quadrant into its neighbours — links that quadrant-local
XY traffic never uses, so any traversal there is misrouted traffic.
"""

import pytest

from repro import Design, Network, NetworkConfig
from repro.harness import format_table
from repro.traffic.patterns import QuadrantLocal
from repro.traffic.synthetic import OpenLoopSource

from _common import report

HOT_RATE = 0.9
COLD_RATE = 0.1
WARMUP = 2_000
MEASURE = 5_000
DESIGNS = (Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC)


def _cross_border_traversals(net) -> int:
    """Traversals on links leaving the hot quadrant (quadrant 0)."""
    mesh = net.mesh
    return sum(
        ch.flit_traversals
        for ch in net.channels
        if mesh.quadrant(ch.upstream) == 0 and mesh.quadrant(ch.downstream) != 0
    )


def _run_spatial():
    config = NetworkConfig(width=8, height=8)
    mesh = config.mesh
    rates = [
        HOT_RATE if mesh.quadrant(n) == 0 else COLD_RATE
        for n in range(mesh.num_nodes)
    ]
    results = {}
    for design in DESIGNS:
        net = Network(config, design, seed=1)
        source = OpenLoopSource(
            net,
            rates,
            pattern=QuadrantLocal(mesh),
            seed=3,
            source_queue_limit=400,
        )
        source.run(WARMUP)
        net.begin_measurement()
        spill_base = _cross_border_traversals(net)
        source.run(MEASURE)
        stats = net.stats
        energy = net.measured_energy()
        hot = mesh.quadrant_nodes(0)

        def group_latency(nodes):
            count = sum(stats.per_node_completed[n] for n in nodes)
            total = sum(stats.per_node_latency_sum[n] for n in nodes)
            return total / count if count else 0.0

        results[design] = {
            "energy_per_flit": energy.total / max(1, stats.flits_ejected),
            "hot_latency": group_latency(hot),
            "throughput": stats.throughput,
            "spillover": _cross_border_traversals(net) - spill_base,
            "bp_fraction": stats.network_backpressured_fraction,
        }
    return results


def test_spatial_variation():
    results = _run_spatial()
    afc_energy = results[Design.AFC]["energy_per_flit"]
    rows = [
        [
            design.value,
            f"{r['energy_per_flit'] / afc_energy:.3f}",
            f"{r['hot_latency']:.1f}",
            f"{r['spillover']}",
            f"{r['bp_fraction']:.2f}",
        ]
        for design, r in results.items()
    ]
    report(
        "spatial_variation",
        format_table(
            [
                "design",
                "energy/flit vs AFC",
                "hot-quadrant latency",
                "spillover flit-hops",
                "backpressured frac",
            ],
            rows,
            title="Section V-B: 8x8 consolidation workload (hot quadrant "
            f"{HOT_RATE}, others {COLD_RATE} flits/node/cycle)",
        ),
    )

    bp = results[Design.BACKPRESSURED]
    bless = results[Design.BACKPRESSURELESS]
    afc = results[Design.AFC]
    # AFC is the best energy configuration under spatial variation
    assert bp["energy_per_flit"] > 1.02 * afc["energy_per_flit"]
    assert bless["energy_per_flit"] > 1.15 * afc["energy_per_flit"]
    # hot-quadrant latency: backpressured and AFC beat backpressureless
    assert bp["hot_latency"] < bless["hot_latency"]
    assert afc["hot_latency"] < bless["hot_latency"]
    # spillover: XY quadrant-local traffic never leaves the quadrant
    # under backpressure; deflection leaks misrouted flits out
    assert bp["spillover"] == 0
    assert bless["spillover"] > 100
    # AFC's hot quadrant switches to backpressured mode, the cold
    # quadrants stay backpressureless: genuinely mixed modes
    assert 0.05 < afc["bp_fraction"] < 0.60
