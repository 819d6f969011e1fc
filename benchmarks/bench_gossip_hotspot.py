"""Section V-A text: gossip-induced mode switches under hotspots.

The paper's closed-loop runs never exercised the gossip switch, but "we
did see them in an open-loop network experiment which created hotspots"
— the mechanism exists for correctness.  This benchmark recreates that
experiment: uniform traffic with a configurable fraction redirected at
a hotspot node, which drives the hotspot's router (and its surroundings)
into backpressured mode while fringe routers are still backpressureless,
producing exactly the backpressureless→backpressured adjacency that the
gossip mechanism guards.
"""

from repro import Design, Network, NetworkConfig
from repro.harness import format_table
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource

from _common import call, read, report

CASES = (
    ("mild hotspot", 0.6, 0.5),
    ("strong hotspot", 0.9, 0.7),
)


def _hotspot(fraction, rate):
    net = Network(NetworkConfig(), Design.AFC, seed=1)
    source = OpenLoopSource(
        net,
        rate=rate,
        pattern=Hotspot(net.mesh, hotspot=4, fraction=fraction),
        seed=3,
        source_queue_limit=400,
    )
    source.run(6_000)
    net.check_flit_conservation()
    stats = net.stats
    return {
        "forward": sum(m.forward_switches for m in stats.mode_stats.values()),
        "gossip": stats.total_gossip_switches,
        "bp_fraction": stats.network_backpressured_fraction,
    }


CELLS = {label: call(_hotspot, f, rate) for label, f, rate in CASES}


def test_gossip_under_hotspots():
    results = read(CELLS)
    rows = [
        [
            label,
            f"{r['forward']}",
            f"{r['gossip']}",
            f"{r['bp_fraction']:.2f}",
        ]
        for label, r in results.items()
    ]
    report(
        "gossip_hotspot",
        format_table(
            ["case", "forward switches", "gossip switches", "bp fraction"],
            rows,
            title="Gossip-induced mode switches under open-loop hotspot "
            "traffic (Section V-A text)",
        ),
    )
    # hotspots drive the network toward backpressured operation...
    assert all(r["bp_fraction"] > 0.5 for r in results.values())
    # ...and at least one case exercises the gossip sledgehammer
    assert sum(r["gossip"] for r in results.values()) >= 1
