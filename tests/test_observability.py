"""Observability layer (repro.obs) tests.

Three groups of guarantees:

* **Primitives** — counters, gauges and histograms behave, serialize
  and merge correctly (the merge is what makes ``--jobs`` safe).
* **Purity** — attaching the full observability stack (trace + metrics
  + profiler) changes *nothing* observable about a simulation, on both
  engines, and detaching restores every hook to ``None`` and every
  shadowed method to the class original.  Observability off means the
  hooks were never set, which the routers' zero-overhead ``is None``
  checks rely on.
* **Acceptance** — a traced AFC run at saturating hotspot load shows
  forward switches, gossip switches and a deflected packet's hop path,
  and exports a structurally valid Chrome trace-event JSON; harness
  metrics merge identically at any ``--jobs``.
"""

import json

import pytest

from repro import Design, Network, NetworkConfig
from repro.analysis.fingerprint import fingerprint
from repro.faults import FaultInjector, FaultSpec, ProtectionConfig
from repro.harness.experiment import ExperimentRunner
from repro.network.flit import reset_packet_ids
from repro.network.router_base import BaseRouter
from repro.obs import (
    LATENCY_BUCKETS,
    FlitTracer,
    Histogram,
    MetricsRegistry,
    Observability,
    ObservabilityOptions,
    PipelineProfiler,
)
from repro.obs.profiler import render_report
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource, uniform_random_traffic

from conftest import offer_random_burst

FULL_OPTIONS = ObservabilityOptions(
    trace=True, trace_capacity=1 << 17, metrics=True, profile=True
)


# -- primitives -------------------------------------------------------------


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    c = registry.counter("noc_flits_dispatched_total", router=3)
    c.inc()
    c.inc(4)
    assert c.value == 5
    # Same (name, labels) resolves to the same object.
    assert registry.counter("noc_flits_dispatched_total", router=3) is c
    assert registry.counter("noc_flits_dispatched_total", router=4) is not c
    g = registry.gauge("noc_ewma_load", router=0)
    g.set(0.75)
    assert g.value == 0.75


def test_histogram_observe_and_quantiles():
    hist = Histogram(LATENCY_BUCKETS)
    for value in (10, 12, 14, 100, 400):
        hist.observe(value)
    assert hist.count == 5
    assert hist.min == 10 and hist.max == 400
    assert hist.mean == pytest.approx(107.2)
    q50, q95, q99 = (
        hist.quantile(0.50),
        hist.quantile(0.95),
        hist.quantile(0.99),
    )
    assert 0 < q50 <= q95 <= q99
    # Roundtrip keeps everything (Histogram defines __eq__).
    assert Histogram.from_dict(hist.to_dict()) == hist


def test_histogram_merge_is_additive():
    a, b = Histogram(), Histogram()
    for v in (5, 50, 500):
        a.observe(v)
    for v in (20, 200):
        b.observe(v)
    merged = Histogram.from_dict(a.to_dict())
    merged.merge(b)
    assert merged.count == 5
    assert merged.total == a.total + b.total
    assert merged.min == 5 and merged.max == 500


def test_registry_roundtrip_and_merge():
    one = MetricsRegistry()
    one.counter("noc_flits_dispatched_total", router=0).inc(7)
    one.gauge("noc_ewma_load", router=0).set(0.5)
    one.histogram("noc_packet_latency_cycles", vnet="DATA").observe(33)
    # to_dict -> from_dict is exact.
    assert MetricsRegistry.from_dict(one.to_dict()).to_dict() == one.to_dict()
    other = MetricsRegistry()
    other.counter("noc_flits_dispatched_total", router=0).inc(3)
    other.counter("noc_flits_dispatched_total", router=1).inc(2)
    other.histogram("noc_packet_latency_cycles", vnet="DATA").observe(44)
    one.merge(other)
    flat = one.to_dict()
    assert flat["counters"]["noc_flits_dispatched_total{router=0}"] == 10
    assert flat["counters"]["noc_flits_dispatched_total{router=1}"] == 2
    hist = flat["histograms"]["noc_packet_latency_cycles{vnet=DATA}"]
    assert hist["count"] == 2


# -- purity: off == never attached, on == bit-identical --------------------


def run_uniform(design, engine, options=None, cycles=500, rate=0.35):
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=11, engine=engine)
    observer = (
        Observability(net, options).attach() if options is not None else None
    )
    source = uniform_random_traffic(net, rate, seed=5, source_queue_limit=300)
    source.run(cycles)
    net.drain(max_cycles=20_000)
    if observer is not None:
        observer.detach()
    return net, observer, source


def test_disabled_observability_leaves_every_hook_unset():
    net = Network(NetworkConfig(), Design.AFC, seed=0)
    assert not net.subscribed
    for router in net.routers:
        assert router.obs is None
    for ni in net.interfaces:
        assert ni.obs is None


@pytest.mark.parametrize("engine", ["naive", "active"])
@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_full_observability_is_pure(design, engine):
    """Trace + metrics + profiler attached changes no simulation
    outcome, on either engine — the stats, mode history and energy
    ledger stay bit-identical to an unobserved run."""
    plain, _, plain_source = run_uniform(design, engine)
    observed, observer, source = run_uniform(design, engine, FULL_OPTIONS)
    assert fingerprint(observed, source) == fingerprint(plain, plain_source)
    # And the observer actually saw the traffic.
    assert observer.tracer.recorded > 0
    assert observer.profiler.cycles_profiled > 0
    flat = observer.registry.to_dict()["counters"]
    dispatched = sum(
        v
        for k, v in flat.items()
        if k.startswith("noc_flits_dispatched_total")
    )
    assert dispatched > 0


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_every_dispatched_flit_is_seen_arriving(design):
    """Once the network has drained, each flit put on a link was
    reported arriving at the other end — for every router family."""
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=1)
    observer = Observability(net, ObservabilityOptions(metrics=True)).attach()
    offer_random_burst(net, 60)
    net.drain(max_cycles=30_000)
    observer.detach()
    counters = observer.registry.to_dict()["counters"]

    def total(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    assert total("noc_flits_dispatched_total") > 0
    assert total("noc_flits_arrived_total") == total(
        "noc_flits_dispatched_total"
    )


def test_detach_restores_class_methods_and_hooks():
    net, observer, _ = run_uniform(Design.AFC, "active", FULL_OPTIONS)
    assert not net.subscribed
    for router in net.routers:
        assert "step" not in vars(router)
        assert "deliver" not in vars(router)
    assert "step" not in vars(net)
    # Collected data stays readable after detach.
    assert observer.tracer.summary()["recorded"] == observer.tracer.recorded
    assert "trace" in observer.payload()


def test_metrics_cross_check_against_stats():
    """Registry totals agree with the always-on StatsCollector for the
    quantities both track (whole-run window, no measurement reset)."""
    _net, observer, _ = run_uniform(Design.AFC, "active", FULL_OPTIONS)
    stats = _net.stats
    flat = observer.registry.to_dict()
    counters = flat["counters"]
    ejected = sum(
        v for k, v in counters.items() if k.startswith("noc_flits_ejected")
    )
    assert ejected == stats.flits_ejected
    completed = sum(
        v
        for k, v in counters.items()
        if k.startswith("noc_packets_completed")
    )
    assert completed == stats.packets_completed
    latency_count = sum(
        h["count"] for k, h in flat["histograms"].items()
        if k.startswith("noc_packet_latency_cycles")
    )
    assert latency_count == stats.packets_completed


def test_fault_injector_publishes_metrics():
    reset_packet_ids()
    net = Network(NetworkConfig(), Design.AFC, seed=3)
    spec = FaultSpec(seed=1, bit_error_rate=20.0, credit_loss_rate=10.0)
    schedule = spec.schedule(net.mesh, start=0, horizon=1_500)
    FaultInjector(net, schedule, protection=ProtectionConfig())
    source = uniform_random_traffic(net, 0.2, seed=9, source_queue_limit=300)
    observer = Observability(net, ObservabilityOptions(metrics=True)).attach()
    source.run(1_500)
    observer.detach()
    counters = observer.registry.to_dict()["counters"]
    assert counters["noc_fault_events_total"] == net.stats.fault_events
    assert counters["noc_fault_events_total"] > 0
    assert (
        counters["noc_flits_corrupted_total"] == net.stats.flits_corrupted
    )
    assert (
        counters["noc_corrupt_flits_discarded_total"]
        == net.stats.corrupt_flits_discarded
    )
    # Detach really unhooked the injector's counters.
    before = counters["noc_fault_events_total"]
    source.run(300)
    assert observer.registry.to_dict()["counters"][
        "noc_fault_events_total"
    ] == before


# -- profiler ---------------------------------------------------------------


def test_profiler_names_hottest_router_and_stage():
    reset_packet_ids()
    net = Network(NetworkConfig(), Design.AFC, seed=2)
    source = uniform_random_traffic(net, 0.3, seed=4, source_queue_limit=200)
    with PipelineProfiler(net, bucket_cycles=100) as profiler:
        source.run(400)
    report = profiler.report()
    assert report["cycles_profiled"] == 400
    assert report["hottest_router"] in range(len(net.routers))
    assert report["hottest_stage"]["stage"] in report["stage_totals"]
    assert report["buckets"]
    text = render_report(report)
    assert "pipeline profile" in text and "hottest router" in text
    # The shipped-dict renderer and the method agree.
    assert profiler.render() == text


def _router_classes(cls=BaseRouter):
    for sub in cls.__subclasses__():
        yield sub
        yield from _router_classes(sub)


@pytest.mark.parametrize(
    "cls", list(_router_classes()), ids=lambda c: c.__name__
)
def test_declared_stages_resolve_on_their_class(cls):
    """A renamed or deleted stage method must fail here, not silently
    lose its ``--profile-sim`` row."""
    nested = [child for inner in cls.STAGES.values() for child in inner]
    assert len(set(nested)) == len(nested)  # one parent each
    timed = {"deliver", "step", *nested}
    assert set(cls.STAGES) <= timed  # a parent is itself timed
    for name in timed:
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_every_declared_stage_gets_a_profile_row(design):
    """At a load that takes AFC through both modes, every stage a main
    design declares is reached and reported."""
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=2)
    source = uniform_random_traffic(net, 0.7, seed=4, source_queue_limit=200)
    with PipelineProfiler(net, bucket_cycles=500) as profiler:
        source.run(1500)
    stages = type(net.routers[0]).STAGES
    reached = {
        stage
        for stage, agg in profiler.report()["stage_totals"].items()
        if agg["calls"] > 0
    }
    assert reached == {"net.step", "deliver", "step"}.union(*stages.values())


# -- acceptance: traced saturating AFC hotspot run --------------------------


def traced_hotspot_run():
    reset_packet_ids()
    config = NetworkConfig(width=4, height=4)
    net = Network(config, Design.AFC, seed=1)
    pattern = Hotspot(net.mesh, hotspot=10, fraction=0.5)
    source = OpenLoopSource(
        net, 0.40, pattern=pattern, seed=5, source_queue_limit=64
    )
    observer = Observability(
        net, ObservabilityOptions(trace=True, trace_capacity=1 << 17)
    )
    with observer:
        source.run(2_000)
    return observer.tracer


def test_traced_afc_hotspot_shows_switches_and_deflections():
    tracer = traced_hotspot_run()
    assert tracer.forward_switches >= 1
    assert tracer.gossip_switches >= 1
    assert tracer.dropped == 0
    ranked = tracer.most_deflected_pids()
    assert ranked and ranked[0][1] >= 1
    path = tracer.hop_path(ranked[0][0])
    assert any(
        row["event"] == "dispatch" and row["deflected"] for row in path
    )
    # The hop path walks a coherent journey: inject precedes everything.
    assert path[0]["event"] == "inject"
    text = tracer.format_hop_path(ranked[0][0])
    assert "deflected=True" in text


def test_chrome_trace_export_is_valid_trace_event_json():
    tracer = traced_hotspot_run()
    document = json.loads(json.dumps(tracer.chrome_trace()))
    events = document["traceEvents"]
    assert events
    phases = {event["ph"] for event in events}
    assert {"M", "X", "i"} <= phases
    names = {event["name"] for event in events}
    assert "gossip switch" in names and "forward switch" in names
    for event in events:
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["dur"] >= 1 and event["ts"] >= 0
        if event["ph"] in ("X", "i"):
            assert "ts" in event
    meta = document["otherData"]
    assert meta["events_dropped"] == 0
    assert meta["events_recorded"] == tracer.recorded


# -- harness integration ----------------------------------------------------


def open_loop_result(jobs, obs):
    runner = ExperimentRunner(
        config=NetworkConfig(),
        warmup_cycles=200,
        measure_cycles=500,
        seeds=2,
        jobs=jobs,
        obs=obs,
    )
    return runner.run_open_loop(Design.AFC, 0.30)


def test_metrics_merge_identical_across_jobs():
    """The acceptance criterion: per-seed registries merged in seed
    order give the same totals serial and process-parallel."""
    obs = ObservabilityOptions(metrics=True)
    serial = open_loop_result(jobs=1, obs=obs)
    parallel = open_loop_result(jobs=2, obs=obs)
    assert serial.observability["metrics"] == parallel.observability["metrics"]
    # The rest of the result merges identically too.
    assert serial.throughput == parallel.throughput
    assert serial.p99_packet_latency == parallel.p99_packet_latency


def test_harness_collects_trace_and_profile_from_first_seed_only():
    obs = ObservabilityOptions(trace=True, metrics=True, profile=True)
    result = open_loop_result(jobs=1, obs=obs)
    payload = result.observability
    assert payload["trace_summary"]["recorded"] > 0
    assert payload["profile"]["cycles_profiled"] == 700  # one seed's run
    # Metrics cover both seeds: dispatched flits roughly double one
    # seed's worth (exactly the sum of the two registries).
    assert result.p50_packet_latency > 0
    assert (
        result.p50_packet_latency
        <= result.p95_packet_latency
        <= result.p99_packet_latency
    )


def test_harness_observability_off_is_bit_identical():
    plain = open_loop_result(jobs=1, obs=None)
    observed = open_loop_result(jobs=1, obs=FULL_OPTIONS)
    assert plain.observability is None
    for field in (
        "throughput",
        "avg_network_latency",
        "avg_packet_latency",
        "deflection_rate",
        "energy_per_flit",
        "backpressured_fraction",
        "gossip_switches",
        "p50_packet_latency",
        "p99_packet_latency",
    ):
        assert getattr(plain, field) == getattr(observed, field), field


def test_probe_rides_along_through_the_harness():
    obs = ObservabilityOptions(probe_every=100)
    result = open_loop_result(jobs=1, obs=obs)
    probe = result.observability["probe"]
    assert probe["every"] == 100
    assert len(probe["cycles"]) >= 5
    assert "throughput" in probe["series"]
    assert "backpressured_fraction" in probe["series"]


def test_tracer_ring_wraps_without_losing_summary_counters():
    tracer = FlitTracer(capacity=8)
    class _Flit:
        pid = 1
        seq = 0
        vnet = 0
        dst = 3
    flit = _Flit()
    for cycle in range(20):
        tracer.record_inject(0, flit, cycle)
    assert tracer.recorded == 20
    assert tracer.dropped == 12
    assert len(tracer.events()) == 8
    assert tracer.injected == 20  # summary counters survive the wrap
