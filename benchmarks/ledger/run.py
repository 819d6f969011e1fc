"""The performance ledger: one entry point, five named workloads.

    python3 benchmarks/ledger/run.py --workload sat_open_8x8 \
        --seed 1 --seconds 20 --trace 0

runs the workload in a fresh child process, prints every metric by name
with its unit, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--baseline`` runs every workload both ways, twice, and
archives ``results/BENCH_e2e.json`` and ``results/BENCH_layers.json``.
See README.md for the metric definitions and how to compare commits.

Host times are *best of k*: every timed unit is rebuilt and re-run for
``--seconds`` and the minimum is reported (min/median/max/k are
archived), because on a shared 2-core box contention only ever adds
time; a latency percentile is the best of its per-batch values.
README.md gives the measurements behind that choice.
"""

# Wall-clock timing is this file's purpose (benchmark harness, not
# simulation state): it times child processes and calls into the
# simulator and never feeds a reading back into simulation state.
# simlint: disable-file=wallclock

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Parent of every run's scratch directory (temp stores); inside the
#: checkout because a benchmark run may write nowhere else.
WORK = HERE / ".work"
RESULTS = HERE / "results"


def metric(value: float, unit: str, samples: Sequence[float] = ()) -> dict:
    """One reported value, with the spread of the samples behind it."""
    out = {"value": value, "unit": unit}
    if samples:
        out.update(
            min=min(samples),
            median=statistics.median(samples),
            max=max(samples),
            k=len(samples),
        )
    return out


# ---------------------------------------------------------------------------
# Child: the workload itself, in a fresh interpreter.
# ---------------------------------------------------------------------------


def _repeat(workload, seed: int, seconds: float, tracer):
    """Reps of ``workload`` until another would overrun ``seconds``."""
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        reps.append(workload.rep(seed, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def best_percentile(batches, share: float, scale: float, unit: str):
    """A latency percentile as the best (lowest) of its per-batch
    values.  Pooling batches would let the bursts of contention that
    lift whole batches set the tail."""
    from frontdoor import percentile

    values = [percentile(batch, share) * scale for batch in batches]
    return metric(min(values), unit, values)


def _check_reps(name: str, reps, identity_mismatches: int) -> dict:
    """Fold the output checks of all reps: per-unit checks, identical
    simulated statistics in every rep of one seed, engine identity."""
    from repro.service import content_key

    digests = {content_key(rep.units) for rep in reps}
    failures = [f for rep in reps for f in rep.failures]
    if len(digests) != 1:
        failures.append(f"{name}: reps of one seed disagree")
    if identity_mismatches:
        failures.append(f"{name}: vector statistics differ from default")
    return {
        "attempted": sum(rep.attempted for rep in reps) + 2,
        "failed": len(failures),
        "failures": failures[:10],
        "sim_digest": min(digests),
    }


def _unit_best(reps) -> Dict[str, float]:
    return {
        unit: min(rep.walls[unit] for rep in reps) for unit in reps[0].walls
    }


def child_sim_e2e(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    from tracer import NullTracer
    from workloads import fig2_paper_err_pct, sim_workloads

    workload = sim_workloads(smoke)[name]
    reps = _repeat(workload, seed, seconds, NullTracer())
    out = _check_reps(name, reps, workload.identity_mismatches(seed))
    best = _unit_best(reps)
    wall = sum(best.values())
    hops = sum(u["flit_hops"] for u in reps[0].units.values())
    totals = [sum(rep.walls.values()) for rep in reps]
    out["e2e"] = {
        "wall_s": metric(wall, "s", totals),
        "flit_hops_per_s": metric(
            hops / wall, "hops/s", [hops / t for t in totals]
        ),
        "jobs_per_s": metric(
            len(best) / wall, "jobs/s", [len(best) / t for t in totals]
        ),
        "submit_to_result_p50_s": metric(
            statistics.median(best.values()),
            "s",
            [statistics.median(rep.walls.values()) for rep in reps],
        ),
    }
    if name == "fig2_closed_3x3":
        out["e2e"]["paper_err_pct"] = metric(
            fig2_paper_err_pct(reps[0].units), "points"
        )
    return out


def _measure_ratio(ratio, seed: int, seconds: float) -> dict:
    """Interleaved pairs (order alternating) of the two variants for
    ``seconds``; the ratio of the two best walls, with the per-pair
    ratios kept so a verdict can quote min/median/max."""
    above, below = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if len(above) % 2:
            below.append(ratio.denominator.timed(seed))
            above.append(ratio.numerator.timed(seed))
        else:
            above.append(ratio.numerator.timed(seed))
            below.append(ratio.denominator.timed(seed))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(above) > seconds:
            break
    return metric(
        min(above) / min(below),
        "ratio",
        [a / b for a, b in zip(above, below)],
    )


def _sim_layers(tracer, units: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced rep: host self-times and call
    counts from the tracer, simulated values from the units."""

    def total(key: str, only=lambda u: True) -> float:
        return sum(u.get(key, 0) for u in units.values() if only(u))

    def share(above: float, below: float) -> float:
        return above / below if below else 0.0

    def family(*designs: str):
        return lambda u: u["design"] in designs

    def scalar(u: dict) -> bool:
        return not u.get("vector_requested") or u.get("vector_fallback")

    afc = family("afc", "afc_always_backpressured")
    afc_units = [u for u in units.values() if afc(u)]
    steps = sum(
        tracer.calls(f"{layer}.step")
        for layer in (
            "routers.backpressured", "routers.backpressureless", "core.afc"
        )
    )
    out = {
        "simulation.step_self_s": tracer.self_s("simulation.step"),
        "simulation.router_steps": steps,
        "simulation.awake_ratio": share(
            steps,
            sum(
                u["nodes"] * u["total_cycles"]
                for u in units.values()
                if scalar(u)
            ),
        ),
        "network.interface.offer_s": tracer.self_s("network.interface.offer"),
        "network.interface.eject_s": tracer.self_s("network.interface.eject"),
        "network.interface.ejects": tracer.calls("network.interface.eject"),
        "network.reassembly.accept_s": tracer.self_s(
            "network.reassembly.accept"
        ),
        "network.stats.record_s": tracer.self_s("network.stats.record"),
        "network.stats.calls": tracer.calls("network.stats.record"),
        "network.flit_hops": total("flit_hops"),
        "network.avg_packet_latency_cycles": share(
            total("packet_latency_sum"), total("packets_completed")
        ),
        "network.p99_packet_latency_cycles": statistics.fmean(
            u["p99_packet_latency"] for u in units.values()
        ),
        "network.deflection_rate": share(
            total("deflections"), total("hops_sum")
        ),
        "network.delivered_flits_per_node_cycle": share(
            total("flits_ejected"),
            sum(u["nodes"] * u["cycles"] for u in units.values()),
        ),
        "energy.meter_s": tracer.self_s("energy.meter"),
        "energy.events": tracer.calls("energy.meter"),
        "energy.pj_per_flit": share(
            total("energy_pj"), total("flits_ejected")
        ),
        "energy.buffer_share": share(
            total("buffer_energy_pj"), total("energy_pj")
        ),
        "traffic.tick_s": tracer.self_s("traffic.tick"),
        "traffic.offered_packets": total("offered_packets"),
        "memsys.tick_self_s": tracer.self_s("memsys.tick"),
        "memsys.transactions": total("transactions"),
        "memsys.txn_per_kcycle_core": share(
            1000.0 * total("transactions"),
            sum(u["cycles"] * u.get("cores", 0) for u in units.values()),
        ),
        "memsys.avg_miss_latency_cycles": share(
            total("miss_latency_sum"), total("transactions")
        ),
        "harness.run_closed_loop_s": tracer.inclusive_s(
            "harness.run_closed_loop"
        ),
        "harness.overhead_s": tracer.inclusive_s("harness.run_closed_loop")
        - tracer.inclusive_s("memsys.run"),
        "harness.aggregate_s": tracer.self_s("harness.aggregate"),
        "engine.vector.wall_s": tracer.inclusive_s("engine.vector.step"),
        "engine.vector.fallback_units": sum(
            1 for u in units.values() if u.get("vector_fallback")
        ),
        "core.afc.backpressured_fraction": (
            statistics.fmean(u["backpressured_fraction"] for u in afc_units)
            if afc_units
            else 0.0
        ),
    }
    for key in ("forward_switches", "reverse_switches", "gossip_switches"):
        out[f"core.afc.{key}"] = total(key, afc)
    for layer, designs in (
        ("routers.backpressured", family("backpressured")),
        ("routers.backpressureless", family("backpressureless")),
        ("core.afc", afc),
    ):
        deliver = tracer.self_s(f"{layer}.deliver")
        step = tracer.self_s(f"{layer}.step")
        out[f"{layer}.deliver_s"] = deliver
        out[f"{layer}.step_s"] = step
        out[f"{layer}.us_per_flit_hop"] = share(
            (deliver + step) * 1e6, total("flit_hops", designs)
        )
    return out


def child_sim_layers(
    name: str, seed: int, seconds: float, smoke: bool, trace_out: Optional[str]
) -> dict:
    from tracer import NullTracer, Tracer
    from workloads import fig2_paper_err_pct, sim_workloads

    workload = sim_workloads(smoke)[name]
    # A third of the budget for the untraced reference, one traced rep,
    # half the budget shared by the workload's ratio measurements.
    reps = _repeat(workload, seed, seconds / 3.0, NullTracer())
    tracer = Tracer().install()
    try:
        with tracer.span(name, unit=name):
            traced = workload.rep(seed, tracer)
    finally:
        tracer.restore()
    reps.append(traced)
    mismatches = workload.identity_mismatches(seed)
    out = _check_reps(name, reps, mismatches)
    layers = _sim_layers(tracer, traced.units)
    layers["engine.vector.identity_mismatches"] = mismatches
    layers["ledger.trace_overhead_ratio"] = sum(traced.walls.values()) / sum(
        _unit_best(reps[:-1]).values()
    )
    if name == "fig2_closed_3x3":
        layers["harness.paper_err_pct"] = fig2_paper_err_pct(traced.units)
    out["ratios"] = {}
    for ratio in workload.ratios:
        measured = _measure_ratio(
            ratio, seed, seconds / 2.0 / len(workload.ratios)
        )
        out["ratios"][ratio.metric] = measured
        layers[ratio.metric] = measured["value"]
    out["layers"] = layers
    if trace_out:
        Path(trace_out).write_text(json.dumps(tracer.chrome_trace(name)))
    return out


def child_frontdoor(
    seed: int, smoke: bool, traced: bool, work: Path, trace_out: Optional[str]
) -> dict:
    from frontdoor import inprocess_service_layers, run_frontdoor
    from tracer import NullTracer, Tracer

    tracer = Tracer() if traced else NullTracer()
    run = run_frontdoor(work, seed, smoke, tracer, traced)
    out = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"][:10],
        "sim_digest": run["sim_digest"],
    }
    if not traced:
        out["e2e"] = {
            "wall_s": metric(
                min(run["round_wall_s"]), "s", run["round_wall_s"]
            ),
            "flit_hops_per_s": metric(
                run["foreground_flit_hops"] / run["foreground_wall_s"],
                "hops/s",
            ),
            "setup_s": metric(min(run["spawn_s"]), "s", run["spawn_s"]),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
            "jobs_per_s": metric(
                max(run["jobs_per_s"]), "jobs/s", run["jobs_per_s"]
            ),
            "submit_to_result_p50_s": best_percentile(
                run["submit_batches"], 0.5, 1.0, "s"
            ),
            "cache_hit_p50_ms": best_percentile(
                run["hit_batches"], 0.5, 1e3, "ms"
            ),
            "cache_hit_p95_ms": best_percentile(
                run["hit_batches"], 0.95, 1e3, "ms"
            ),
            "paper_err_pct": metric(run["paper_err_pct"], "points"),
        }
        return out
    layers = inprocess_service_layers(
        tracer, work, run["cold_specs"][:18], run["records"]
    )
    layers.update(
        {
            "harness.paper_err_pct": run["paper_err_pct"],
            "service.protocol.ping_rtt_ms": run["ping_rtt_ms"],
            "service.protocol.cache_hit_p50_ms": best_percentile(
                run["hit_batches"], 0.5, 1e3, "ms"
            )["value"],
            "service.protocol.cache_hit_p95_ms": best_percentile(
                run["hit_batches"], 0.95, 1e3, "ms"
            )["value"],
            "service.queue.dispatch_wait_p50_s": run["dispatch_wait_p50_s"],
        }
    )
    for counter in (
        "seed_units_run", "cache_hits", "deduped", "shed", "worker_crashes"
    ):
        layers[f"service.queue.{counter}"] = run["queue"][counter]
    out["layers"] = layers
    if trace_out:
        Path(trace_out).write_text(
            json.dumps(tracer.chrome_trace("service_frontdoor"))
        )
    return out


def child_main(args: argparse.Namespace) -> int:
    """Runs with the parent's :func:`_env`, so ``repro`` imports."""
    if args.setup_only:
        from workloads import sim_workloads

        sim_workloads(args.smoke)[args.workload].build(args.seed)
        return 0
    if args.workload == "service_frontdoor":
        out = child_frontdoor(
            args.seed, args.smoke, bool(args.trace), args.work,
            args.trace_out,
        )
    elif args.trace:
        out = child_sim_layers(
            args.workload, args.seed, args.seconds, args.smoke,
            args.trace_out,
        )
    else:
        out = child_sim_e2e(args.workload, args.seed, args.seconds, args.smoke)
    if "e2e" in out:
        out["e2e"].setdefault(
            "peak_rss_mb",
            metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        )
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Parent: start-up probes, the child, the report.
# ---------------------------------------------------------------------------


def _env() -> dict:
    # One hash seed for every child: string hashing is a source of
    # run-to-run speed differences that no commit causes.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _spawn_times(argv: Sequence[str], count: int) -> List[float]:
    """Wall of ``count`` fresh interpreters running ``argv``.  No
    timeout: ``subprocess`` would poll for the exit in 50 ms steps and
    quantise the reading."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *argv],
            env=_env(),
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    trace_out: Optional[str] = None,
) -> dict:
    """One run of one workload: the parent-side start-up probes plus the
    workload child.  Returns the child's report with the probe metrics
    merged in."""
    frontdoor = workload == "service_frontdoor"
    spawns = 2 if smoke else 8
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    child_argv = [
        str(HERE / "run.py"), "--child", "--work", work,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        child_argv.append("--smoke")
    # Start-up a user pays, each the best of ``spawns`` fresh
    # interpreters: importing the package; importing it and building
    # the workload's units (``setup_s``; the front door's is its
    # server's spawn -> first pong); ``repro --help``.
    imports = _spawn_times(["-c", "import repro"], spawns) if trace else []
    setups = (
        [] if trace or frontdoor
        else _spawn_times([*child_argv, "--setup-only"], spawns)
    )
    helps = (
        _spawn_times(["-m", "repro", "--help"], spawns) if frontdoor else []
    )
    if trace_out:
        child_argv += ["--trace-out", trace_out]
    try:
        child = subprocess.run(
            [sys.executable, *child_argv],
            stdout=subprocess.PIPE,
            text=True,
            timeout=170,
            env=_env(),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    if child.returncode != 0 or not child.stdout.strip():
        raise RuntimeError(f"workload child exited {child.returncode}")
    out = json.loads(child.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed, seconds=seconds, smoke=smoke)
    share = out["failed"] / out["attempted"]
    if trace:
        layers = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
        layers.update(out["layers"])
        layers["cli.import_s"] = min(imports)
        if frontdoor:
            layers["cli.help_s"] = min(helps)
        layers["ledger.failed_ops_share"] = share
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        out["layers"] = {
            name: metric(value, units[name]) for name, value in layers.items()
        }
        # A wall ratio keeps the spread of its per-pair ratios.
        out["layers"].update(out.pop("ratios", {}))
        return out
    e2e = out["e2e"]
    if frontdoor:
        e2e["cli_start_s"] = metric(min(helps), "s", helps)
    else:
        e2e["setup_s"] = metric(min(setups), "s", setups)
    e2e["failed_ops_share"] = metric(share, "ratio")
    return out


def report(out: dict, trace: int) -> dict:
    """Print every metric by name with its unit; return the contract's
    result object (printed by the caller as the last line)."""
    shown = out["layers"] if trace else out["e2e"]
    print(
        f"# {out['workload']} seed={out['seed']} seconds={out['seconds']} "
        f"trace={trace} sim_digest={out['sim_digest']}"
    )
    for name, entry in shown.items():
        spread = (
            f"  (min {entry['min']:.6g} / median {entry['median']:.6g} / "
            f"max {entry['max']:.6g}, k={entry['k']})"
            if "k" in entry
            else ""
        )
        print(f"{name:42s} {entry['value']:.6g} {entry['unit']}{spread}")
    for failure in out["failures"]:
        print(f"FAILED CHECK: {failure}")
    names = (
        [name for name, _, _ in metrics.PER_LAYER]
        if trace
        else [name for name, _, _, _ in metrics.END_TO_END]
    )
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": shown[name]["value"], "unit": shown[name]["unit"]}
            for name in names
        },
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def disagreements(
    e2e_sets: Sequence[dict], layer_sets: Sequence[dict]
) -> List[str]:
    """Where two sets of runs of one tree differ by more than the
    ledger allows: anything at all for digests, counts and simulated
    values; the metric's bound (either direction) for the contract's
    end-to-end metrics."""
    found = []
    for workload in metrics.WORKLOADS:
        first, second = (s[workload] for s in e2e_sets)
        traced = [s[workload] for s in layer_sets]
        if len({r["sim_digest"] for r in (first, second, *traced)}) != 1:
            found.append(f"{workload}: sim_digest differs")
        for name in metrics.EXACT_LAYERS:
            if len({r["layers"][name]["value"] for r in traced}) != 1:
                found.append(f"{workload}: {name} differs")
        for name, _, _, bound in metrics.END_TO_END:
            a, b = first["e2e"][name]["value"], second["e2e"][name]["value"]
            if abs(a - b) > bound * min(a, b):
                found.append(f"{workload}: {name} {a:.6g} vs {b:.6g}")
    return found


def baseline(seed: int, seconds: float, smoke: bool, out_dir: Path) -> int:
    """Two complete sets of runs of this tree, archived."""
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "estimator": "best of k",
    }
    e2e_sets: List[dict] = []
    layer_sets: List[dict] = []
    failed = 0
    for index in range(2):
        e2e, layers = {}, {}
        for workload in metrics.WORKLOADS:
            for trace, into in ((0, e2e), (1, layers)):
                print(
                    f"## set {index + 1}: {workload} trace={trace}",
                    flush=True,
                )
                trace_out = (
                    str(out_dir / f"{workload}.trace.json")
                    if trace and index == 1
                    else None
                )
                out = run_once(
                    workload, seed, seconds, trace, smoke, trace_out
                )
                failed += out["failed"]
                into[workload] = {
                    key: out[key]
                    for key in (
                        "e2e", "layers", "sim_digest", "attempted", "failed"
                    )
                    if key in out
                }
        e2e_sets.append(e2e)
        layer_sets.append(layers)
    meta["disagreements"] = disagreements(e2e_sets, layer_sets)
    for line in meta["disagreements"]:
        print(f"SETS DISAGREE: {line}")
    for filename, sets in (
        ("BENCH_e2e.json", e2e_sets),
        ("BENCH_layers.json", layer_sets),
    ):
        (out_dir / filename).write_text(
            json.dumps({"meta": meta, "sets": sets}, indent=1, sort_keys=True)
            + "\n"
        )
    return 1 if failed or meta["disagreements"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes (test_ledger.py)"
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="run everything twice and archive BENCH_e2e/BENCH_layers",
    )
    parser.add_argument("--out", type=Path, default=RESULTS)
    parser.add_argument(
        "--trace-out", help="with --trace 1: write a Chrome trace here"
    )
    parser.add_argument(
        "--write-contract",
        action="store_true",
        help="regenerate BENCHMARK.json from metrics.py",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.write_contract:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(metrics.contract(), indent=2) + "\n"
        )
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if args.child:
        return child_main(args)
    if args.baseline:
        return baseline(args.seed, args.seconds, args.smoke, args.out)
    if args.workload is None:
        parser.error("--workload is required")
    out = run_once(
        args.workload, args.seed, args.seconds, args.trace, args.smoke,
        args.trace_out,
    )
    print(json.dumps(report(out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
