"""Section V "Other results": open-loop uniform-random latency curves.

Paper's findings: (1) all flow-control techniques achieve similar
latencies at low loads; (2) AFC and backpressured networks achieve
near-identical saturation throughput, whereas backpressureless
saturates at lower offered loads.
"""

import pytest

from repro import Design
from repro.harness import ExperimentRunner, format_table

from _common import report

RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DESIGNS = (Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC)


def _run_sweep():
    runner = ExperimentRunner(
        warmup_cycles=2_000, measure_cycles=5_000, seeds=2
    )
    curves = {}
    for design in DESIGNS:
        curves[design] = [
            runner.run_open_loop(design, rate, source_queue_limit=500)
            for rate in RATES
        ]
    return curves


def _saturation_throughput(points):
    return max(p.throughput for p in points)


def test_openloop_latency_throughput():
    curves = _run_sweep()
    rows = []
    for i, rate in enumerate(RATES):
        row = [f"{rate:.1f}"]
        for design in DESIGNS:
            p = curves[design][i]
            row.append(f"{p.throughput:.3f} / {p.avg_network_latency:6.1f}")
        rows.append(row)
    report(
        "openloop_latency",
        format_table(
            ["offered"] + [d.value for d in DESIGNS],
            rows,
            title="Open-loop uniform random: accepted throughput "
            "(flits/node/cycle) / mean network latency (cycles)",
        ),
    )

    # (1) similar latencies at low loads
    for i in range(3):  # rates 0.1-0.3
        lats = [curves[d][i].avg_network_latency for d in DESIGNS]
        assert max(lats) - min(lats) < 4.0, f"rate {RATES[i]}"

    # (2) saturation: AFC ~ backpressured > backpressureless
    sat = {d: _saturation_throughput(curves[d]) for d in DESIGNS}
    assert sat[Design.AFC] > 0.90 * sat[Design.BACKPRESSURED]
    assert sat[Design.BACKPRESSURELESS] < 0.95 * sat[Design.BACKPRESSURED]

    # deflection rate grows with load for the backpressureless router
    bless = curves[Design.BACKPRESSURELESS]
    assert bless[-1].deflection_rate > bless[0].deflection_rate
    # and the backpressured router never deflects at any load
    assert all(p.deflection_rate == 0.0 for p in curves[Design.BACKPRESSURED])  # simlint: disable=float-equality
