"""Names, units and bounds of every ledger metric and workload.

``BENCHMARK.json`` is generated from these tables (``run.py
--write-contract``) and ``test_ledger.py`` checks the two agree, so a
later issue can refer to a metric or workload by the exact name here.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> why it exists (one line, recorded in ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "fig2_closed_3x3": (
        "What the user waits for: regenerating Fig. 2 (6 workloads x 4 "
        "designs, 3x3); memsys, harness, NI, energy and all router "
        "families work, the active set and engine/ do almost nothing."
    ),
    "sat_open_8x8": (
        "Uniform random at 0.6 on 8x8, every router busy every cycle: "
        "the routers/core per-flit floor dominates, active-set "
        "bookkeeping is pure overhead, memsys is bypassed."
    ),
    "idle_open_8x8": (
        "Same three designs at 0.05: most routers asleep, so quiescence "
        "skipping and wake/catch-up do the work; an engine change that "
        "helps sat_open_8x8 must show no loss here."
    ),
    "large_vector_mesh": (
        "16x16 with engine=vector (backpressureless adopts, AFC falls "
        "back): the only workload where engine/ does the work, so a "
        "vector-only change predicts no change on the other four."
    ),
    "service_frontdoor": (
        "A real repro serve child over TCP, closed loop from 2 "
        "connections: 72 tiny cold jobs, 12 deduped pairs, 1200 cache "
        "hits; the service, not the simulator, is the dominant cost."
    ),
}

#: ``(name, unit, better, bound)``: what the benchmark contract lists
#: and every workload prints with ``--trace 0``.  Bounds are shares of
#: the parent's median; see README.md for the measured spreads behind
#: them.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("flit_hops_per_s", "hops/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("jobs_per_s", "jobs/s", "higher", 0.25),
    ("submit_to_result_p50_s", "s", "lower", 0.25),
)

#: End-to-end metrics the ledger prints and archives by these names
#: but the contract cannot carry (README.md has the measurements):
#: ``failed_ops_share`` is 0 on a healthy tree and the contract forbids
#: a metric that is 0 (it travels as ``attempted`` / ``failed``);
#: ``paper_err_pct`` is simulated, repeats exactly for one seed and
#: moves 27-46 % (IQR / median) across seeds; the cache-hit latencies
#: and the CLI start are sub-millisecond round trips and a 0.12 s
#: process spawn, whose run-to-run spread on this box (up to 61 % and
#: 41 %) exceeds the widest bound the contract allows.  The last three
#: exist on ``service_frontdoor`` only.
LEDGER_ONLY: Tuple[Tuple[str, str, str], ...] = (
    ("failed_ops_share", "ratio", "lower"),
    ("paper_err_pct", "points", "lower"),
    ("cache_hit_p50_ms", "ms", "lower"),
    ("cache_hit_p95_ms", "ms", "lower"),
    ("cli_start_s", "s", "lower"),
)

#: ``(name, unit, better)``: what every workload prints with
#: ``--trace 1``; 0 where the workload does not exercise the layer.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.step_self_s", "s", "lower"),
    ("simulation.router_steps", "count", "lower"),
    ("simulation.awake_ratio", "ratio", "lower"),
    ("simulation.naive_wall_ratio", "ratio", "lower"),
    ("routers.backpressured.deliver_s", "s", "lower"),
    ("routers.backpressured.step_s", "s", "lower"),
    ("routers.backpressured.us_per_flit_hop", "us", "lower"),
    ("routers.backpressureless.deliver_s", "s", "lower"),
    ("routers.backpressureless.step_s", "s", "lower"),
    ("routers.backpressureless.us_per_flit_hop", "us", "lower"),
    ("core.afc.deliver_s", "s", "lower"),
    ("core.afc.step_s", "s", "lower"),
    ("core.afc.us_per_flit_hop", "us", "lower"),
    ("core.afc.backpressured_fraction", "ratio", "lower"),
    ("core.afc.forward_switches", "count", "lower"),
    ("core.afc.reverse_switches", "count", "lower"),
    ("core.afc.gossip_switches", "count", "lower"),
    ("network.interface.offer_s", "s", "lower"),
    ("network.interface.eject_s", "s", "lower"),
    ("network.interface.ejects", "count", "lower"),
    ("network.reassembly.accept_s", "s", "lower"),
    ("network.stats.record_s", "s", "lower"),
    ("network.stats.calls", "count", "lower"),
    ("network.flit_hops", "count", "higher"),
    ("network.avg_packet_latency_cycles", "cycles", "lower"),
    ("network.p99_packet_latency_cycles", "cycles", "lower"),
    ("network.deflection_rate", "ratio", "lower"),
    ("network.delivered_flits_per_node_cycle", "ratio", "higher"),
    ("energy.meter_s", "s", "lower"),
    ("energy.events", "count", "lower"),
    ("energy.pj_per_flit", "pJ", "lower"),
    ("energy.buffer_share", "ratio", "lower"),
    ("traffic.tick_s", "s", "lower"),
    ("traffic.offered_packets", "count", "higher"),
    ("memsys.tick_self_s", "s", "lower"),
    ("memsys.transactions", "count", "higher"),
    ("memsys.txn_per_kcycle_core", "1/kcycle", "higher"),
    ("memsys.avg_miss_latency_cycles", "cycles", "lower"),
    ("harness.run_closed_loop_s", "s", "lower"),
    ("harness.overhead_s", "s", "lower"),
    ("harness.aggregate_s", "s", "lower"),
    ("harness.paper_err_pct", "points", "lower"),
    ("engine.vector.wall_s", "s", "lower"),
    ("engine.vector_speedup", "ratio", "higher"),
    ("engine.vector.fallback_units", "count", "lower"),
    ("engine.vector.identity_mismatches", "count", "lower"),
    ("engine.vector.idle_wall_ratio", "ratio", "lower"),
    ("service.canonical.key_us", "us", "lower"),
    ("service.serialize.roundtrip_us", "us", "lower"),
    ("service.store.put_ms", "ms", "lower"),
    ("service.store.get_ms", "ms", "lower"),
    ("service.protocol.ping_rtt_ms", "ms", "lower"),
    ("service.protocol.cache_hit_p50_ms", "ms", "lower"),
    ("service.protocol.cache_hit_p95_ms", "ms", "lower"),
    ("service.workers.unit_overhead_s", "s", "lower"),
    ("service.queue.dispatch_wait_p50_s", "s", "lower"),
    ("service.queue.seed_units_run", "count", "lower"),
    ("service.queue.cache_hits", "count", "higher"),
    ("service.queue.deduped", "count", "higher"),
    ("service.queue.shed", "count", "lower"),
    ("service.queue.worker_crashes", "count", "lower"),
    ("obs.observed_wall_ratio", "ratio", "lower"),
    ("obs.profiler_wall_ratio", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.help_s", "s", "lower"),
    ("ledger.trace_overhead_ratio", "ratio", "lower"),
    ("ledger.failed_ops_share", "ratio", "lower"),
)

#: Per-layer metrics that repeat exactly for a fixed seed (counts and
#: simulated values); the rest are host times.
EXACT_LAYERS = frozenset(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "cycles", "pJ", "points", "1/kcycle")
    or name
    in (
        "simulation.awake_ratio",
        "core.afc.backpressured_fraction",
        "network.deflection_rate",
        "network.delivered_flits_per_node_cycle",
        "energy.buffer_share",
        "ledger.failed_ops_share",
    )
)

#: How long one run measures (``run_seconds`` of the contract).
RUN_SECONDS = 20


def contract() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
