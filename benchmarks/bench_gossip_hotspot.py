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

from repro import Design
from repro.harness import format_table
from repro.traffic.patterns import HotspotSpec

from _common import read, report, spec

CASES = (
    ("mild hotspot", 0.6, 0.5),
    ("strong hotspot", 0.9, 0.7),
)

#: The mode-switch counters of a forward switch: a local one, and one
#: forced by gossip.
FORWARD = tuple(
    f"noc_mode_switches_total{{kind={kind},"
    for kind in ("forward", "gossip")
)

CELLS = {
    label: spec(
        kind="open_loop",
        design=Design.AFC,
        rate=rate,
        pattern=HotspotSpec(node=4, fraction=fraction),
        source_queue_limit=400,
        warmup_cycles=0,
        measure_cycles=6_000,
        base_seed=1,
        metrics=True,
    )
    for label, fraction, rate in CASES
}


def _forward_switches(result) -> int:
    counters = result.observability["metrics"]["counters"]
    return sum(v for name, v in counters.items() if name.startswith(FORWARD))


def test_gossip_under_hotspots():
    results = {
        label: {
            "forward": _forward_switches(r),
            "gossip": r.gossip_switches,
            "bp_fraction": r.backpressured_fraction,
        }
        for label, r in read(CELLS).items()
    }
    rows = [
        [
            label,
            f"{r['forward']}",
            f"{r['gossip']:.0f}",
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
