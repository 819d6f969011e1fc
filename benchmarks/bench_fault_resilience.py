"""E-faults: resilience of the three flow-control disciplines.

Sweeps fault intensity (transient link flaps plus bit errors and
credit-loss events) x design, with the protection layer enabled, and
records the delivered-despite-fault rates.  A second table measures the
permanent-damage case (link + router kills) where route patching and
orphaning come into play.

Assertions encode the resilience acceptance criteria:

* every design survives transient faults (delivers essentially all
  packets after retransmission, none orphaned by flaps alone);
* AFC's delivered-flit rate stays within 10% of the best design's at
  every fault intensity — mode switching must not inherit a fragility
  neither pure discipline has.
"""

from repro import Design
from repro.faults import FaultSpec
from repro.harness import format_table

from _common import read, report, spec

DESIGNS = (Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC)

RATE = 0.25
WARMUP = 500
MEASURE = 6_000
SEEDS = 2


def _per_design(fault: FaultSpec) -> dict:
    """Declare the ``fault`` cell of every design."""
    return {
        design: spec(
            kind="faulted",
            design=design,
            rate=RATE,
            fault=fault,
            warmup_cycles=WARMUP,
            measure_cycles=MEASURE,
            seeds=SEEDS,
        )
        for design in DESIGNS
    }


#: Transient faults by level: link flaps (40 cycles each), bit errors
#: and credit losses, per kcycle.
TRANSIENT = {
    label: _per_design(
        FaultSpec(
            seed=11,
            link_flap_rate=flaps,
            flap_duration=40,
            bit_error_rate=bit_errors,
            credit_loss_rate=credit_losses,
        )
    )
    for label, flaps, bit_errors, credit_losses in (
        ("light", 2.0, 1.0, 1.0),
        ("moderate", 6.0, 3.0, 3.0),
        ("heavy", 12.0, 6.0, 6.0),
    )
}
PERMANENT = _per_design(FaultSpec(seed=23, link_kills=2, router_kills=1))


def test_transient_fault_resilience():
    results = read(TRANSIENT)
    rows = []
    for label, per_design in results.items():
        best = max(r.delivered_flit_rate for r in per_design.values())
        for design, r in per_design.items():
            rows.append(
                [
                    label,
                    design.value,
                    f"{r.delivered_packet_rate:.4f}",
                    f"{r.delivered_flit_rate:.4f}",
                    f"{r.flits_corrupted:.0f}",
                    f"{r.credits_lost:.0f}",
                    f"{r.retransmissions:.1f}",
                    f"{r.packets_orphaned:.1f}",
                    f"{r.credit_resyncs:.1f}",
                    f"{r.avg_packet_latency:.1f}",
                ]
            )
            # Transient faults must be fully absorbed: every design
            # keeps delivering, and AFC stays within 10% of the best.
            assert r.delivered_packet_rate > 0.99, (label, design)
            if design is Design.AFC:
                assert r.delivered_flit_rate >= 0.9 * best, (label, best)
    report(
        "fault_transient",
        format_table(
            [
                "faults",
                "design",
                "delivered pkts",
                "delivered flits",
                "corrupted",
                "credits lost",
                "retx",
                "orphaned",
                "resyncs",
                "latency",
            ],
            rows,
            title=(
                f"transient fault sweep at load {RATE:.2f} "
                f"({SEEDS} seeds, {MEASURE} cycles + drain)"
            ),
        ),
    )


def test_permanent_damage_resilience():
    results = read(PERMANENT)
    rows = []
    for design, r in results.items():
        rows.append(
            [
                design.value,
                f"{r.delivered_packet_rate:.4f}",
                f"{r.packets_orphaned:.1f}",
                f"{r.reroutes:.1f}",
                f"{r.avg_time_to_reroute:.0f}",
                f"{r.retransmissions:.1f}",
                f"{r.avg_packet_latency:.1f}",
                f"{r.drain_cycles:.0f}",
            ]
        )
        # Permanent damage may orphan traffic into the dead region, but
        # the rest of the network must keep delivering and converge.
        assert r.delivered_packet_rate > 0.5, design
        assert r.reroutes >= 1, design
    report(
        "fault_permanent",
        format_table(
            [
                "design",
                "delivered pkts",
                "orphaned",
                "reroutes",
                "t-reroute",
                "retx",
                "latency",
                "drain",
            ],
            rows,
            title=(
                f"permanent damage (2 link kills + 1 router kill) at load "
                f"{RATE:.2f} ({SEEDS} seeds)"
            ),
        ),
    )
