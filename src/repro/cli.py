"""Command-line interface.

The subcommands cover the common experiments without writing code::

    python -m repro run --design afc --workload apache
    python -m repro compare --workload ocean --seeds 2
    python -m repro sweep --rates 0.2 0.4 0.6 0.8
    python -m repro trace --rate 0.40 --out trace.json
    python -m repro derive-thresholds --rate 0.7
    python -m repro faults --flap-rate 4 --bit-error-rate 2 --check
    python -m repro lint --check
    python -m repro serve --port 0            # experiment service
    python -m repro submit --kind open_loop --rate 0.3 --wait
    python -m repro status --key <sha256>
    python -m repro result --key <sha256> --wait
    python -m repro queue

``run``, ``compare`` and ``faults`` accept ``--json`` for the
store's result dict (plus ``config_hash``, the job key, and the package
``version``) instead of the table rendering.  ``run``
and ``compare`` accept ``--sanitize`` to run the per-cycle invariant
sanitizer (docs/ANALYSIS.md) alongside the simulation, and the
observability flags ``--trace`` / ``--metrics`` / ``--profile-sim``
(docs/OBSERVABILITY.md); ``run`` additionally takes
``--probe-every N --probe-out FILE`` for time-series sampling.

``run`` and ``compare`` also take ``--cache`` (with ``--store PATH``)
to read/write the content-addressed result store that backs
``repro serve`` — a repeated run with the same parameters is answered
from the store, bit-identically (docs/SERVICE.md).

All cycle counts are short by default so the CLI answers in seconds;
raise ``--warmup/--measure/--seeds`` for publication-grade runs (the
benchmark harness under ``benchmarks/`` does this automatically).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence

# Only what building the parser needs loads with the module; each
# command imports what it runs (docs/PERFORMANCE.md, "Start-up").
from . import __version__
from .domain import Domain, Integer, Real, domain_of
from .faults.protection import ProtectionConfig
from .faults.schedule import FaultSpec
from .harness.experiment import JOBS, KINDS, MAIN_DESIGNS, RATE, SEEDS
from .harness.experiment import MEASURE, WARMUP
from .network.config import Design, NetworkConfig
from .network.topology import SIDE
from .traffic.patterns import HOTSPOT_FRACTION
from .traffic.workloads import WORKLOADS

#: Designs compared by the resilience experiments (the paper's three
#: flow-control disciplines).
FAULT_DESIGNS = (Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC)


def _design(value: str) -> Design:
    try:
        return Design(value)
    except ValueError:
        choices = ", ".join(d.value for d in Design)
        raise argparse.ArgumentTypeError(
            f"unknown design {value!r}; choose from: {choices}"
        )


def _workload(value: str):
    try:
        return WORKLOADS[value]
    except KeyError:
        choices = ", ".join(sorted(WORKLOADS))
        raise argparse.ArgumentTypeError(
            f"unknown workload {value!r}; choose from: {choices}"
        )


def _flag(domain: Domain) -> Callable[[str], Any]:
    """The argparse type of a flag admitting what ``domain`` admits, its
    rule the usage error."""

    def parse(text: str) -> Any:
        try:
            return domain.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.domain = domain  # type: ignore[attr-defined]
    return parse


def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _add_common(parser: argparse.ArgumentParser, jobs: bool = True) -> None:
    parser.add_argument(
        "--width", type=_flag(SIDE), default=3, help="mesh width"
    )
    parser.add_argument(
        "--height", type=_flag(SIDE), default=3, help="mesh height"
    )
    parser.add_argument(
        "--warmup", type=_flag(WARMUP), default=2_000, help="warmup cycles"
    )
    parser.add_argument(
        "--measure", type=_flag(MEASURE), default=6_000, help="measured cycles"
    )
    parser.add_argument(
        "--seeds",
        type=_flag(SEEDS),
        default=1,
        help="independent runs to average",
    )
    if jobs:
        parser.add_argument(
            "--jobs",
            type=_flag(JOBS),
            default=1,
            help=(
                "worker processes for independent runs (1 = serial; "
                "results are identical at any job count)"
            ),
        )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=0,
        help=(
            "first per-run seed; runs use base-seed .. base-seed+seeds-1 "
            "(explicit so results are reproducible at any --jobs count)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 20 cumulative entries",
    )
    parser.add_argument(
        "--engine",
        choices=("active", "vector"),
        default="active",
        help=(
            "cycle engine: 'active' (default) skips idle routers, "
            "'vector' batch-steps the whole mesh through numpy (falls "
            "back to 'active' for not-yet-vectorized designs and hooked "
            "runs); results are bit-identical across engines"
        ),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``compare``."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "record a flit-lifecycle trace and write it as Chrome "
            "trace-event JSON (open in Perfetto)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default="trace.json",
        help="output path for the --trace JSON",
    )
    parser.add_argument(
        "--trace-capacity",
        type=_flag(Integer(1)),
        default=1 << 17,
        help="trace ring-buffer capacity in events (oldest are dropped)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "collect the per-router / per-vnet metrics registry "
            "(merged across seeds) and print it (or include in --json)"
        ),
    )
    parser.add_argument(
        "--profile-sim",
        action="store_true",
        help=(
            "time router pipeline stages per cycle bucket and print the "
            "self-time report (simulation-level, unlike --profile)"
        ),
    )


def _obs_options(args: argparse.Namespace) -> Optional[ObservabilityOptions]:
    from .obs.hub import ObservabilityOptions

    opts = ObservabilityOptions(
        trace=getattr(args, "trace", False),
        trace_capacity=getattr(args, "trace_capacity", 1 << 17),
        metrics=getattr(args, "metrics", False),
        profile=getattr(args, "profile_sim", False),
        probe_every=getattr(args, "probe_every", 0) or 0,
        probe_jsonl=getattr(args, "probe_jsonl", None) or "",
    )
    return opts if opts.enabled else None


def _obs_out_path(base: str, label: str) -> Path:
    path = Path(base)
    if not label:
        return path
    suffix = path.suffix or ".json"
    return path.with_name(f"{path.stem}-{label}{suffix}")


def _write_obs_artifacts(
    args: argparse.Namespace, result: Any, label: str = ""
) -> None:
    """File outputs of an observed run (trace JSON, probe series)."""
    payload = result.observability or {}
    if getattr(args, "trace", False) and "trace" in payload:
        out = _obs_out_path(args.trace_out, label)
        out.write_text(json.dumps(payload["trace"]))
        summary = payload.get("trace_summary", {})
        print(
            f"trace: wrote {out} "
            f"({summary.get('recorded', 0)} events, "
            f"{summary.get('dropped', 0)} dropped)",
            file=sys.stderr,
        )
    if getattr(args, "probe_out", None) and "probe" in payload:
        out = _obs_out_path(args.probe_out, label)
        out.write_text(json.dumps(payload["probe"], indent=2))
        print(
            f"probe: wrote {out} "
            f"({len(payload['probe']['cycles'])} samples)",
            file=sys.stderr,
        )


def _print_obs_reports(
    args: argparse.Namespace, result: Any, label: str = ""
) -> None:
    """Text renderings of an observed run (table mode only)."""
    payload = result.observability or {}
    if getattr(args, "metrics", False) and "metrics" in payload:
        from .harness.reporting import format_table
        from .obs.metrics import MetricsRegistry

        registry = MetricsRegistry.from_dict(payload["metrics"])
        rows = [[name, value] for name, value in registry.rows()]
        title = "metrics" + (f" ({label})" if label else "")
        print(format_table(["metric", "value"], rows, title=title))
    if getattr(args, "profile_sim", False) and "profile" in payload:
        from .obs.profiler import render_report

        if label:
            print(f"[{label}]")
        print(render_report(payload["profile"]))


def _spec(
    args: argparse.Namespace,
    kind: str,
    design: Optional[Design] = None,
    **params: Any,
):
    """The one argv -> :class:`~repro.service.JobSpec` mapping.  Every
    experiment command runs the spec this returns (:func:`_run_spec`)
    and ``submit`` sends it, so the ``config_hash`` a run reports is the
    key of what ran.  ``params`` are the kind's request parameters; the
    ones not given are read off same-named flags.  ``submit --spec
    FILE`` replaces the flags wholesale."""
    from .service import JobSpec

    source = getattr(args, "spec", None)
    if source is not None:
        text = sys.stdin.read() if source == "-" else Path(source).read_text()
        return JobSpec.from_dict(json.loads(text))
    for name in KINDS[kind].params:
        if name not in params and hasattr(args, name):
            params[name] = getattr(args, name)
    return JobSpec(
        kind=kind,
        design=design or args.design,
        config=NetworkConfig(width=args.width, height=args.height),
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        seeds=args.seeds,
        base_seed=args.base_seed,
        engine=args.engine,
        metrics=getattr(args, "metrics", False),
        **params,
    )


def _result_json(spec, result: Any) -> dict:
    """The store's result shape plus the spec's key; the full trace
    goes to --trace-out, only its summary stays in the JSON."""
    from .service import result_to_dict

    payload = result_to_dict(result)
    if payload.get("observability"):
        payload["observability"] = {
            name: part
            for name, part in payload["observability"].items()
            if name != "trace"
        }
    payload["config_hash"] = spec.key()
    return payload


def _cache_eligible(args: argparse.Namespace) -> bool:
    """Cacheable = the result is a pure function of the spec.  Trace /
    profile / probe payloads are single-run artifacts and the sanitizer
    changes the failure mode, not the stats — those runs bypass the
    store."""
    return not (
        getattr(args, "sanitize", False)
        or getattr(args, "trace", False)
        or getattr(args, "profile_sim", False)
        or getattr(args, "probe_every", 0)
    )


def _run_spec(args: argparse.Namespace, spec):
    """Run ``spec`` in the foreground, through the result store when
    ``--cache`` allows it."""
    from .service import result_from_dict, result_to_dict

    store = None
    if getattr(args, "cache", False):
        if _cache_eligible(args):
            from .service import ResultStore

            store = ResultStore(args.store)
        else:
            print(
                "cache: bypassed (trace/profile/probe/sanitize runs are "
                "not cacheable)",
                file=sys.stderr,
            )
    key = spec.key()
    record = store.get(key) if store is not None else None
    if record is not None:
        print(f"cache: hit {key}", file=sys.stderr)
        return result_from_dict(record["result"])
    result = spec.run(
        jobs=args.jobs,
        sanitize=getattr(args, "sanitize", False),
        obs=_obs_options(args),
    )
    if store is not None:
        store.put(key, spec.kind, spec.to_dict(), result_to_dict(result))
        print(f"cache: stored {key}", file=sys.stderr)
    return result


def _run_specs(args: argparse.Namespace, specs: dict) -> Optional[dict]:
    """:func:`_run_spec` over ``specs`` (same keys in the result).  With
    ``--sanitize``, ``None`` once an invariant violation is reported."""
    if not args.sanitize:
        return {name: _run_spec(args, spec) for name, spec in specs.items()}
    from .analysis.sanitizer import InvariantViolation

    try:
        results = {
            name: _run_spec(args, spec) for name, spec in specs.items()
        }
    except InvariantViolation as exc:
        print(f"sanitizer: {exc}", file=sys.stderr)
        return None
    if not args.json:
        print("sanitizer: enabled, no invariant violations")
    return results


def _cmd_run(args: argparse.Namespace) -> int:
    from .harness.reporting import format_table

    spec = _spec(args, "closed_loop", workload=args.workload.name)
    results = _run_specs(args, {"run": spec})
    if results is None:
        return 2
    result = results["run"]
    _write_obs_artifacts(args, result)
    if args.json:
        _emit_json({**_result_json(spec, result), "version": __version__})
        return 0
    rows = [
        ["performance (txn/kcycle/core)", f"{result.performance:.3f}"],
        ["energy per transaction (pJ)", f"{result.energy_per_txn:.1f}"],
        ["injection rate (flits/node/cycle)", f"{result.injection_rate:.3f}"],
        ["avg packet latency (cycles)", f"{result.avg_packet_latency:.1f}"],
        ["p50 / p95 / p99 latency",
         f"{result.p50_packet_latency:.0f} / "
         f"{result.p95_packet_latency:.0f} / "
         f"{result.p99_packet_latency:.0f}"],
        ["avg miss latency (cycles)", f"{result.avg_miss_latency:.1f}"],
        ["backpressured fraction", f"{result.backpressured_fraction:.3f}"],
        ["forward / reverse switches",
         f"{result.forward_switches:.1f} / {result.reverse_switches:.1f}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.design.value} on {args.workload.name} "
            f"({args.seeds} seed(s))",
        )
    )
    _print_obs_reports(args, result)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness.reporting import format_normalized_table

    specs = {
        design: _spec(
            args, "closed_loop", design, workload=args.workload.name
        )
        for design in MAIN_DESIGNS
    }
    results = _run_specs(args, specs)
    if results is None:
        return 2
    for design, result in results.items():
        _write_obs_artifacts(args, result, label=design.value)
    if args.json:
        _emit_json(
            {
                "workload": args.workload.name,
                "version": __version__,
                "designs": {
                    design.value: _result_json(specs[design], result)
                    for design, result in results.items()
                },
            }
        )
        return 0
    perf = {args.workload.name: {d: r.performance for d, r in results.items()}}
    energy = {
        args.workload.name: {d: r.energy_per_txn for d, r in results.items()}
    }
    print(format_normalized_table("performance", perf, MAIN_DESIGNS))
    print()
    print(
        format_normalized_table(
            "energy/txn", energy, MAIN_DESIGNS, higher_is_better=False
        )
    )
    for design, result in results.items():
        _print_obs_reports(args, result, label=design.value)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness.reporting import format_table
    from .service.jobs import run_specs

    designs = args.designs or list(FAULT_DESIGNS)
    specs = {
        (rate, design): _spec(
            args, "open_loop", design, rate=rate, source_queue_limit=500
        )
        for rate in args.rates
        for design in designs
    }
    results = dict(zip(specs, run_specs(list(specs.values()), args.jobs)))
    rows = [
        [f"{rate:.2f}"]
        + [
            f"{results[rate, design].throughput:.3f} / "
            f"{results[rate, design].avg_network_latency:6.1f}"
            for design in designs
        ]
        for rate in args.rates
    ]
    print(
        format_table(
            ["offered"] + [d.value for d in designs],
            rows,
            title="throughput (flits/node/cycle) / latency (cycles)",
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults.protection import ProtectionConfig
    from .faults.schedule import FaultSpec
    from .harness.reporting import format_table

    fault = FaultSpec(
        seed=args.fault_seed,
        link_flap_rate=args.flap_rate,
        flap_duration=args.flap_duration,
        bit_error_rate=args.bit_error_rate,
        credit_loss_rate=args.credit_loss_rate,
        credit_loss_burst=args.credit_loss_burst,
        link_kills=args.link_kills,
        router_kills=args.router_kills,
    )
    protection = (
        None
        if args.no_protection
        else ProtectionConfig(
            max_retries=args.max_retries, ack_timeout=args.ack_timeout
        )
    )
    specs = {
        design: _spec(
            args, "faulted", design, fault=fault, protection=protection
        )
        for design in args.designs or FAULT_DESIGNS
    }
    results = {
        design: _run_spec(args, spec) for design, spec in specs.items()
    }
    if args.json:
        _emit_json(
            {
                "spec": dataclasses.asdict(fault),
                "version": __version__,
                "designs": {
                    design.value: _result_json(specs[design], result)
                    for design, result in results.items()
                },
            }
        )
    else:
        rows = [
            [
                design.value,
                f"{r.delivered_packet_rate:.4f}",
                f"{r.delivered_flit_rate:.4f}",
                f"{r.retransmissions:.1f}",
                f"{r.packets_orphaned:.1f}",
                f"{r.credit_resyncs:.1f}",
                f"{r.reroutes:.1f}",
                f"{r.avg_packet_latency:.1f}",
                f"{r.drain_cycles:.0f}",
            ]
            for design, r in results.items()
        ]
        print(
            format_table(
                [
                    "design",
                    "delivered pkts",
                    "delivered flits",
                    "retx",
                    "orphaned",
                    "resyncs",
                    "reroutes",
                    "latency",
                    "drain",
                ],
                rows,
                title=(
                    f"fault resilience at load {args.rate:.2f} "
                    f"({args.seeds} seed(s); flaps {args.flap_rate}/kcycle, "
                    f"bit errors {args.bit_error_rate}/kcycle, "
                    f"credit loss {args.credit_loss_rate}/kcycle, "
                    f"kills {args.link_kills}L+{args.router_kills}R)"
                ),
            )
        )
    if args.check:
        failed = [
            design.value
            for design, r in results.items()
            if r.delivered_packet_rate <= 0.0
        ]
        if failed:
            print(
                f"FAIL: no packets delivered despite faults for: "
                f"{', '.join(failed)}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One single-seed traced open-loop run with a Perfetto export.

    The defaults reproduce the paper's gossip conditions (Section V-A:
    gossip switches appear under open-loop hotspot traffic): a 4x4 mesh
    with half the traffic aimed at the central node, driven to
    saturation, so the trace shows forward switches, gossip switches
    and deflected hop paths in one run."""
    from .harness.reporting import format_table
    from .network.flit import reset_packet_ids
    from .obs.hub import Observability, ObservabilityOptions
    from .simulation import Network
    from .traffic.patterns import Hotspot
    from .traffic.synthetic import OpenLoopSource

    config = NetworkConfig(width=args.width, height=args.height)
    reset_packet_ids()
    net = Network(config, args.design, seed=args.seed)
    pattern = None
    if args.pattern == "hotspot":
        hotspot = (config.height // 2) * config.width + config.width // 2
        pattern = Hotspot(
            net.mesh, hotspot=hotspot, fraction=args.hotspot_fraction
        )
    source = OpenLoopSource(
        net,
        args.rate,
        pattern=pattern,
        seed=args.traffic_seed,
        source_queue_limit=args.queue_limit,
    )
    obs = Observability(
        net, ObservabilityOptions(trace=True, trace_capacity=args.capacity)
    )
    with obs:
        source.run(args.cycles)
    tracer = obs.tracer
    tracer.write_chrome_trace(args.out)
    summary = tracer.summary()
    deflected = tracer.most_deflected_pids(limit=5)
    if args.hop_path is not None:
        hop_pids = [args.hop_path]
    else:
        hop_pids = [pid for pid, _count in deflected[:1]]
    if args.json:
        _emit_json(
            {
                "out": str(args.out),
                "summary": summary,
                "most_deflected": [list(item) for item in deflected],
                "hop_paths": {
                    str(pid): tracer.hop_path(pid) for pid in hop_pids
                },
            }
        )
        return 0
    rows = [[key, str(value)] for key, value in summary.items()]
    print(
        format_table(
            ["event", "count"],
            rows,
            title=(
                f"trace of {args.design.value} at {args.rate:.2f} "
                f"({args.pattern}, {args.cycles} cycles) -> {args.out}"
            ),
        )
    )
    if deflected:
        print(
            "most deflected packets: "
            + ", ".join(f"pid {p} ({c} hops)" for p, c in deflected)
        )
    for pid in hop_pids:
        print()
        print(tracer.format_hop_path(pid))
    print(f"open {args.out} in https://ui.perfetto.dev to inspect")
    return 0


def _load_spec_entries(source: str) -> List[dict]:
    """Job entries from a ``--drain`` file ('-' = stdin): either a JSON
    list or ``{"jobs": [...]}``, each entry a bare spec dict or
    ``{"spec": {...}, "priority": N}``."""
    text = (
        sys.stdin.read() if source == "-" else Path(source).read_text()
    )
    payload = json.loads(text)
    entries = payload["jobs"] if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not entries:
        raise ValueError("expected a non-empty list of job specs")
    return entries


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import (
        ExperimentService,
        JobSpec,
        ResultStore,
        ServiceServer,
        drain,
    )

    store = ResultStore(args.store)
    service = ExperimentService(
        store,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        seed_timeout=args.seed_timeout,
        heartbeat_timeout=args.heartbeat_timeout,
        retries=args.retries,
    )

    def _write_telemetry() -> None:
        if args.telemetry_out is None:
            return
        service.telemetry.write_chrome_trace(args.telemetry_out)
        print(
            f"telemetry: wrote {args.telemetry_out} "
            f"({len(service.telemetry)} events)",
            file=sys.stderr,
        )

    if args.drain is not None:
        specs, priorities = [], []
        for entry in _load_spec_entries(args.drain):
            if "spec" in entry:
                specs.append(JobSpec.from_dict(entry["spec"]))
                priorities.append(int(entry.get("priority", 0)))
            else:
                specs.append(JobSpec.from_dict(entry))
                priorities.append(0)
        results, counters = asyncio.run(drain(service, specs, priorities))
        _write_telemetry()
        _emit_json(
            {
                "results": results,
                "counters": counters,
                "telemetry_summary": service.telemetry.summary(),
            }
        )
        failed = [r for r in results if "result" not in r]
        return 1 if failed else 0

    if args.host is not None or args.port is not None:
        server = ServiceServer(
            service,
            host=args.host or "127.0.0.1",
            port=args.port if args.port is not None else 0,
        )
    else:
        server = ServiceServer(
            service,
            socket_path=Path(args.socket or "~/.repro/serve.sock"),
        )

    async def _serve() -> None:
        await server.start()
        print(f"serving on {server.endpoint}", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    _write_telemetry()
    return 0


def _client(args: argparse.Namespace):
    from .service import ServiceClient

    if args.host is not None or args.port is not None:
        return ServiceClient(
            host=args.host or "127.0.0.1", port=args.port
        )
    return ServiceClient(
        socket_path=Path(args.socket or "~/.repro/serve.sock")
    )


def _client_call(args: argparse.Namespace, call) -> int:
    """Run one client op, mapping connection/protocol errors to a
    message + exit 1 instead of a traceback."""
    from .service import ServiceError

    try:
        with _client(args) as client:
            out, code = call(client)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach the service: {exc}", file=sys.stderr)
        return 1
    _emit_json(out)
    return code


def _cmd_submit(args: argparse.Namespace) -> int:
    try:  # fail client-side, before taking a queue slot
        spec = _spec(args, args.kind).to_dict()
    except ValueError as exc:
        print(f"invalid job spec: {exc}", file=sys.stderr)
        return 2

    def call(client):
        out = client.submit(spec, priority=args.priority)
        if args.wait and out.get("status") != "shed":
            out = client.result(
                out["key"], wait=True, timeout=args.timeout
            )
        bad = out.get("status") in ("shed", "failed")
        return out, (1 if bad else 0)

    return _client_call(args, call)


def _cmd_status(args: argparse.Namespace) -> int:
    return _client_call(
        args, lambda client: (client.status(args.key), 0)
    )


def _cmd_result(args: argparse.Namespace) -> int:
    def call(client):
        out = client.result(
            args.key, wait=args.wait, timeout=args.timeout
        )
        return out, (0 if out.get("status") == "done" else 1)

    return _client_call(args, call)


def _cmd_queue(args: argparse.Namespace) -> int:
    def call(client):
        out = client.queue()
        if args.shutdown:
            client.shutdown()
            out["shutdown"] = True
        return out, 0

    return _client_call(args, call)


def _watch_line(snapshot: dict) -> str:
    """One human-readable line per watch frame."""
    status = snapshot.get("status", {})
    progress = status.get("progress", {})
    gauges = snapshot.get("gauges", {})
    parts = [
        f"t={snapshot.get('t', 0):.1f}s",
        f"state={status.get('state', '?')}",
        f"seeds={progress.get('done', '?')}/{progress.get('total', '?')}",
    ]
    for name, label in (
        ("p50_packet_latency", "p50"),
        ("p95_packet_latency", "p95"),
        ("p99_packet_latency", "p99"),
    ):
        value = status.get(name)
        if isinstance(value, (int, float)):
            parts.append(f"{label}={value:.1f}")
    live = status.get("live") or {}
    for index, seed in sorted(live.items()):
        parts.append(f"seed{index}@cycle={seed.get('cycle', '?')}")
    parts.append(f"queue={gauges.get('queue_depth', '?')}")
    return "  ".join(parts)


def _cmd_watch(args: argparse.Namespace) -> int:
    """Stream live snapshots of one job from a running serve."""
    from .service import ServiceError

    try:
        with _client(args) as client:
            last = None
            for frame in client.watch(
                args.key,
                interval=args.interval,
                max_snapshots=args.max_snapshots,
            ):
                snapshot = frame.get("snapshot")
                if snapshot is None:
                    continue
                last = snapshot
                if args.json:
                    # One line per frame (the help's contract): a
                    # stream must stay line-processable.
                    print(
                        json.dumps(snapshot, separators=(",", ":")),
                        flush=True,
                    )
                else:
                    print(_watch_line(snapshot), flush=True)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach the service: {exc}", file=sys.stderr)
        return 1
    if last is None:
        return 1
    return 0 if last.get("status", {}).get("state") == "done" else 1


def _cmd_dash(args: argparse.Namespace) -> int:
    """Generate the self-contained HTML dashboard."""
    from .obs.dashboard import build_dashboard

    counters = None
    telemetry_summary = None
    if args.drain_json is not None:
        drain_out = json.loads(Path(args.drain_json).read_text())
        counters = drain_out.get("counters")
        telemetry_summary = drain_out.get("telemetry_summary")
    html_text = build_dashboard(
        store_path=args.store,
        bench_dir=args.bench_dir,
        counters=counters,
        telemetry_summary=telemetry_summary,
        title=args.title,
    )
    out = Path(args.out)
    out.write_text(html_text, encoding="utf-8")
    print(
        f"dash: wrote {out} ({len(html_text)} bytes, self-contained)",
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.simlint import lint_paths

    paths = args.paths
    if not paths:
        # Default target: the installed repro package source tree.
        import repro

        paths = [str(Path(repro.__file__).parent)]

    report = lint_paths(paths)
    if args.sarif:
        _emit_json(report.to_sarif())
    elif args.json:
        _emit_json(report.to_dict())
    else:
        print(report.render(summary_only=args.check))
    return 0 if report.ok else 1


def _cmd_derive_thresholds(args: argparse.Namespace) -> int:
    from .core.threshold_search import derive_thresholds_empirically
    from .harness.reporting import format_table

    config = NetworkConfig(width=args.width, height=args.height)
    result = derive_thresholds_empirically(
        config,
        switch_rate=args.rate,
        hysteresis=args.hysteresis,
        seeds=args.seeds,
    )
    rows = [
        [
            cls.name.lower(),
            f"{pair.high:.2f}",
            f"{pair.low:.2f}",
            f"{result.class_intensity[cls]:.2f}",
        ]
        for cls, pair in result.thresholds.items()
    ]
    print(
        format_table(
            ["router class", "high", "low", "measured intensity"],
            rows,
            title=f"thresholds derived at switch load "
            f"{result.switch_rate:.2f} flits/node/cycle",
        )
    )
    return 0


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """``--cache / --no-cache --store PATH`` for run and compare."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        help=(
            "answer from (and populate) the content-addressed result "
            "store; a repeat of the same parameters does zero "
            "simulation work and returns bit-identical stats"
        ),
    )
    group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="always simulate (the default)",
    )
    parser.set_defaults(cache=False)
    parser.add_argument(
        "--store",
        default="~/.repro/store",
        metavar="PATH",
        help="result store directory (shared with repro serve)",
    )


def _add_closed_loop_flags(parser: argparse.ArgumentParser) -> None:
    """What ``run`` and ``compare`` share: both are foreground views of
    the ``closed_loop`` kind."""
    parser.add_argument(
        "--workload", type=_workload, default=WORKLOADS["apache"]
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full stats dict as JSON"
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "check per-cycle NoC invariants (flit conservation, credit "
            "agreement, mode legality) during every run; exit 2 on violation"
        ),
    )
    _add_obs_flags(parser)
    _add_cache_flags(parser)
    _add_common(parser)


def _add_client_flags(parser: argparse.ArgumentParser) -> None:
    """How to reach a running ``repro serve``."""
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="service unix socket (default ~/.repro/serve.sock)",
    )
    parser.add_argument(
        "--host",
        default=None,
        help="service TCP host (instead of the unix socket)",
    )
    parser.add_argument(
        "--port", type=int, default=None, help="service TCP port"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "AFC (MICRO 2010) reproduction: run closed-loop workloads, "
            "compare flow-control designs, sweep open-loop loads, or "
            "derive AFC contention thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one design on one workload")
    run.add_argument("--design", type=_design, default=Design.AFC)
    run.add_argument(
        "--probe-every",
        type=_flag(Integer(1)),
        default=None,
        help=(
            "sample throughput / latency / AFC mode residency every N "
            "cycles with a TimeSeriesProbe (write with --probe-out)"
        ),
    )
    run.add_argument(
        "--probe-out",
        default="probe.json",
        help="output path for the --probe-every series (JSON)",
    )
    run.add_argument(
        "--probe-jsonl",
        default=None,
        metavar="FILE",
        help=(
            "also stream each probe sample to FILE as one flushed "
            "JSON line the moment it is taken, so an interrupted run "
            "keeps every completed sample (no torn records)"
        ),
    )
    _add_closed_loop_flags(run)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="all Figure-2 designs on one workload"
    )
    _add_closed_loop_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser(
        "trace",
        help=(
            "one traced open-loop run with Perfetto (Chrome trace-event) "
            "export and hop-path dump"
        ),
    )
    trace.add_argument("--design", type=_design, default=Design.AFC)
    trace.add_argument(
        "--width", type=_flag(SIDE), default=4, help="mesh width"
    )
    trace.add_argument(
        "--height", type=_flag(SIDE), default=4, help="mesh height"
    )
    trace.add_argument(
        "--rate",
        type=_flag(RATE),
        default=0.40,
        help="offered load in flits/node/cycle, in (0, 1]",
    )
    trace.add_argument(
        "--pattern",
        choices=("uniform", "hotspot"),
        default="hotspot",
        help=(
            "traffic pattern; hotspot aims --hotspot-fraction of packets "
            "at the central node (the paper's gossip-switch conditions)"
        ),
    )
    trace.add_argument(
        "--hotspot-fraction",
        type=_flag(HOTSPOT_FRACTION),
        default=0.5,
        help="fraction of packets destined to the hotspot node",
    )
    trace.add_argument(
        "--cycles", type=_flag(Integer(1)), default=2_000, help="cycles to run"
    )
    trace.add_argument(
        "--seed", type=int, default=1, help="network (per-router RNG) seed"
    )
    trace.add_argument(
        "--traffic-seed", type=int, default=5, help="traffic source seed"
    )
    trace.add_argument(
        "--queue-limit",
        type=_flag(Integer(1)),
        default=64,
        help="source queue limit (bounds open-loop backlog)",
    )
    trace.add_argument(
        "--capacity",
        type=_flag(Integer(1)),
        default=1 << 17,
        help="trace ring-buffer capacity in events",
    )
    trace.add_argument(
        "--out", default="trace.json", help="Chrome trace-event output path"
    )
    trace.add_argument(
        "--hop-path",
        type=int,
        default=None,
        help="dump this packet id's hop path (default: most deflected)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit summary, deflection ranking and hop paths as JSON",
    )
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", help="open-loop uniform-random sweep")
    sweep.add_argument(
        "--rates",
        type=_flag(RATE),
        nargs="+",
        default=[0.2, 0.4, 0.6, 0.8],
        help="offered loads in flits/node/cycle, each in (0, 1]",
    )
    sweep.add_argument(
        "--designs", type=_design, nargs="+", default=None
    )
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    faults = sub.add_parser(
        "faults",
        help="resilience comparison under a seeded fault schedule",
    )
    faults.add_argument(
        "--rate",
        type=_flag(RATE),
        default=0.25,
        help="offered load in flits/node/cycle, in (0, 1]",
    )
    faults.add_argument(
        "--designs", type=_design, nargs="+", default=None
    )
    faults.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="fault-schedule seed (salted per run seed)",
    )
    faults.add_argument(
        "--flap-rate",
        type=_flag(domain_of(FaultSpec, "link_flap_rate")),
        default=4.0,
        help="transient link flaps per 1000 cycles (whole network)",
    )
    faults.add_argument(
        "--flap-duration",
        type=_flag(domain_of(FaultSpec, "flap_duration")),
        default=30,
        help="cycles a flapped link stays down",
    )
    faults.add_argument(
        "--bit-error-rate",
        type=_flag(domain_of(FaultSpec, "bit_error_rate")),
        default=2.0,
        help="flit bit-error events per 1000 cycles",
    )
    faults.add_argument(
        "--credit-loss-rate",
        type=_flag(domain_of(FaultSpec, "credit_loss_rate")),
        default=2.0,
        help="credit-loss events per 1000 cycles",
    )
    faults.add_argument(
        "--credit-loss-burst",
        type=_flag(domain_of(FaultSpec, "credit_loss_burst")),
        default=4,
        help="credits destroyed per credit-loss event",
    )
    faults.add_argument(
        "--link-kills",
        type=_flag(domain_of(FaultSpec, "link_kills")),
        default=0,
        help="permanent link kills",
    )
    faults.add_argument(
        "--router-kills",
        type=_flag(domain_of(FaultSpec, "router_kills")),
        default=0,
        help="permanent router kills",
    )
    faults.add_argument(
        "--max-retries",
        type=_flag(domain_of(ProtectionConfig, "max_retries")),
        default=4,
        help="retransmissions before a packet is orphaned",
    )
    faults.add_argument(
        "--ack-timeout",
        type=_flag(domain_of(ProtectionConfig, "ack_timeout")),
        default=2_000,
        help="cycles without completion before source retransmits",
    )
    faults.add_argument(
        "--no-protection",
        action="store_true",
        help="inject faults without checksum/retransmission/resync",
    )
    faults.add_argument(
        "--json", action="store_true", help="emit the full stats dict as JSON"
    )
    faults.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero unless every design delivers packets despite "
            "the faults (CI smoke mode)"
        ),
    )
    _add_common(faults)
    faults.set_defaults(func=_cmd_faults)

    lint = sub.add_parser(
        "lint",
        help="static determinism / hot-path hygiene lint (simlint)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint; several may be given, e.g. "
            "'src/repro benchmarks scripts' (default: the repro package)"
        ),
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable violation report as JSON",
    )
    lint.add_argument(
        "--sarif",
        action="store_true",
        help=(
            "emit a SARIF 2.1.0 log on stdout (GitHub code scanning "
            "ingests this via upload-sarif)"
        ),
    )
    lint.add_argument(
        "--check",
        action="store_true",
        help="summary-only output (CI gate; exit code is 1 on violations)",
    )
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the experiment service: async job queue + "
            "content-addressed result store (docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="listen on this unix socket (default ~/.repro/serve.sock)",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="listen on localhost TCP instead of a unix socket",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (0 picks an ephemeral port; implies --host)",
    )
    serve.add_argument(
        "--store",
        default="~/.repro/store",
        metavar="PATH",
        help="result store directory",
    )
    serve.add_argument(
        "--jobs",
        type=_flag(JOBS),
        default=2,
        help="concurrent seed worker processes",
    )
    serve.add_argument(
        "--queue-limit",
        type=_flag(Integer(1)),
        default=64,
        help="queued jobs admitted before submissions are shed",
    )
    serve.add_argument(
        "--seed-timeout",
        type=_flag(Real(0.0, open_low=True)),
        default=600.0,
        help="wall-clock seconds one seed may take before its worker "
        "is killed and retried",
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=_flag(Real(0.0, open_low=True)),
        default=30.0,
        help="seconds without a message from a worker before it counts "
        "as stalled",
    )
    serve.add_argument(
        "--retries",
        type=_flag(Integer(0)),
        default=2,
        help="crash/stall/timeout retries per seed unit",
    )
    serve.add_argument(
        "--drain",
        default=None,
        metavar="FILE",
        help=(
            "batch mode: run every job spec in FILE ('-' = stdin) to "
            "completion, print the records as JSON, and exit"
        ),
    )
    serve.add_argument(
        "--telemetry-out",
        default=None,
        metavar="FILE",
        help=(
            "on exit, write the job-lifecycle telemetry as Chrome "
            "trace-event JSON (open in Perfetto next to flit traces)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)

    watch = sub.add_parser(
        "watch",
        help=(
            "stream live progress of one job from a running repro "
            "serve (seed progress, latency percentiles, queue gauges)"
        ),
    )
    _add_client_flags(watch)
    watch.add_argument("--key", required=True, help="job key (sha256)")
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between snapshots",
    )
    watch.add_argument(
        "--max-snapshots",
        type=_flag(Integer(1)),
        default=None,
        help="stop after N snapshots even if the job is still running",
    )
    watch.add_argument(
        "--json",
        action="store_true",
        help="print each snapshot as one JSON line instead of text",
    )
    watch.set_defaults(func=_cmd_watch)

    dash = sub.add_parser(
        "dash",
        help=(
            "generate a self-contained HTML dashboard (no external "
            "assets) from the result store and the duty-cycle table"
        ),
    )
    dash.add_argument(
        "--store",
        default="~/.repro/store",
        metavar="PATH",
        help="result store directory to render jobs + series from",
    )
    dash.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help=(
            "benchmarks/results directory holding mode_duty_cycle.txt "
            "(omit to skip the duty-cycle panel)"
        ),
    )
    dash.add_argument(
        "--drain-json",
        default=None,
        metavar="FILE",
        help=(
            "a 'repro serve --drain' output JSON; its counters and "
            "telemetry summary become the service panel"
        ),
    )
    dash.add_argument(
        "--out",
        default="dashboard.html",
        metavar="FILE",
        help="output HTML path",
    )
    dash.add_argument(
        "--title", default="repro dashboard", help="page title"
    )
    dash.set_defaults(func=_cmd_dash)

    submit = sub.add_parser(
        "submit", help="submit one job to a running repro serve"
    )
    _add_client_flags(submit)
    submit.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="full JobSpec JSON ('-' = stdin) instead of inline flags",
    )
    submit.add_argument(
        "--kind",
        choices=tuple(KINDS),
        default="closed_loop",
    )
    submit.add_argument("--design", type=_design, default=Design.AFC)
    submit.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="apache",
        help="closed-loop workload name",
    )
    submit.add_argument(
        "--rate",
        type=_flag(RATE),
        default=0.25,
        help="open-loop / faulted offered load",
    )
    submit.add_argument(
        "--metrics",
        action="store_true",
        help="collect the merged metrics registry in the result",
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority (higher runs first)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its record",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up on --wait after this many seconds",
    )
    _add_common(submit, jobs=False)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="one job's state on a running repro serve"
    )
    _add_client_flags(status)
    status.add_argument("--key", required=True, help="job key (sha256)")
    status.set_defaults(func=_cmd_status)

    result_cmd = sub.add_parser(
        "result", help="fetch a job's stored record from repro serve"
    )
    _add_client_flags(result_cmd)
    result_cmd.add_argument(
        "--key", required=True, help="job key (sha256)"
    )
    result_cmd.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    result_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up on --wait after this many seconds",
    )
    result_cmd.set_defaults(func=_cmd_result)

    queue_cmd = sub.add_parser(
        "queue", help="queue snapshot and counters of a running serve"
    )
    _add_client_flags(queue_cmd)
    queue_cmd.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down after the snapshot",
    )
    queue_cmd.set_defaults(func=_cmd_queue)

    derive = sub.add_parser(
        "derive-thresholds",
        help="design-time derivation of AFC contention thresholds",
    )
    derive.add_argument(
        "--rate",
        type=_flag(RATE),
        default=None,
        help="switch load (default: find the latency crossover)",
    )
    derive.add_argument(
        "--hysteresis",
        type=_flag(Real(0.0, 1.0, open_low=True, open_high=True)),
        default=0.7,
        help="low threshold as a fraction of the high one, in (0, 1)",
    )
    _add_common(derive)
    derive.set_defaults(func=_cmd_derive_thresholds)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return int(exc.code or 0)
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(args.func, args)
        finally:
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(20)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
