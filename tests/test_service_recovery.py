"""Crash-safe worker supervision and seed-level recovery.

The acceptance property: a job whose worker is SIGKILLed mid-seed, or
whose service died leaving checkpoints behind, finishes with stats
**bit-identical** to an uninterrupted foreground run.  That falls out
of two mechanisms pinned here:

* the supervisor retries crashed/stalled/timed-out seed units in a
  fresh forked worker (deterministic: the retry computes the same
  sample), but never retries deterministic Python errors;
* aggregation always consumes the store's checkpointed sample dicts,
  so recovered and fresh paths are literally the same code.

Workers are ``fork``-started, so a ``monkeypatch`` of
``repro.service.workers._execute_seed`` in the test process is
inherited by the children — that is how stalls and timeouts are
simulated deterministically.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness.experiment import ExperimentRunner, fork_context
from repro.network.config import Design, NetworkConfig
from repro.service import (
    ExperimentService,
    JobSpec,
    ResultStore,
    ServiceClient,
    drain,
    result_to_dict,
    run_seed_unit,
    sample_to_dict,
)
from repro.service import workers as workers_mod

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="crash isolation needs the fork start method",
)

FAST = dict(warmup_cycles=100, measure_cycles=300)


def fast_spec(**overrides) -> JobSpec:
    base = dict(kind="open_loop", rate=0.2, seeds=2, **FAST)
    base.update(overrides)
    return JobSpec(**base)


# -- run_seed_unit supervision --------------------------------------------


def test_seed_unit_happy_path():
    spec = fast_spec(seeds=1)
    outcome = run_seed_unit(spec.to_dict(), 0)
    assert outcome.ok and outcome.attempts == 1
    assert outcome.sample == sample_to_dict(spec.run_seed(0))


def test_sigkilled_worker_is_retried_and_result_is_identical():
    spec = fast_spec(seeds=1)
    killed = []

    def on_spawn(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    outcome = run_seed_unit(spec.to_dict(), 0, on_spawn=on_spawn)
    assert killed, "the hook must have fired"
    assert outcome.ok and outcome.attempts == 2
    assert len(outcome.pids) == 2
    # The retried sample is exactly what an undisturbed run computes.
    assert outcome.sample == sample_to_dict(spec.run_seed(0))


def test_crash_retries_are_bounded():
    spec = fast_spec(seeds=1)

    def kill_always(pid: int, attempt: int) -> None:
        os.kill(pid, signal.SIGKILL)

    outcome = run_seed_unit(
        spec.to_dict(), 0, retries=1, on_spawn=kill_always
    )
    assert not outcome.ok
    assert outcome.status == "crashed"
    assert outcome.attempts == 2  # 1 try + 1 retry


def test_deterministic_error_is_not_retried(monkeypatch):
    def explode(spec, index):
        raise RuntimeError("deterministic bug")

    monkeypatch.setattr(workers_mod, "_execute_seed", explode)
    outcome = run_seed_unit(fast_spec(seeds=1).to_dict(), 0, retries=3)
    assert outcome.status == "error"
    assert outcome.attempts == 1  # a fresh child would raise identically
    assert "deterministic bug" in outcome.error


def test_stalled_worker_is_detected_and_retried(monkeypatch):
    """SIGSTOP freezes the whole child — heartbeat thread included —
    so the supervisor sees a live process with a stale heartbeat."""
    spec = fast_spec(seeds=1)

    def on_spawn(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGSTOP)

    monkeypatch.setattr(workers_mod, "BEAT_INTERVAL", 0.05)
    outcome = run_seed_unit(
        spec.to_dict(), 0, heartbeat_timeout=0.5, on_spawn=on_spawn
    )
    assert outcome.ok and outcome.attempts == 2
    assert outcome.sample == sample_to_dict(spec.run_seed(0))


def test_timed_out_worker_is_killed_and_retried(monkeypatch, tmp_path):
    """First attempt sleeps past the deadline; the retry (which sees
    the flag file the first attempt dropped) runs normally."""
    flag = tmp_path / "slept-once"
    real = workers_mod._execute_seed

    def slow_once(spec, index):
        if not flag.exists():
            flag.write_text("x")
            time.sleep(60.0)
        return real(spec, index)

    monkeypatch.setattr(workers_mod, "_execute_seed", slow_once)
    spec = fast_spec(seeds=1)
    outcome = run_seed_unit(spec.to_dict(), 0, timeout=2.0)
    assert outcome.ok and outcome.attempts == 2
    assert outcome.sample == sample_to_dict(spec.run_seed(0))


# -- service-level recovery ------------------------------------------------


def test_service_survives_sigkilled_workers_with_identical_stats(tmp_path):
    """Every seed's first worker is SIGKILLed mid-job; the job still
    completes and its stats equal an uninterrupted foreground run."""
    spec = fast_spec()

    def kill_first_attempt(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGKILL)

    service = ExperimentService(
        ResultStore(tmp_path), jobs=2, on_worker_spawn=kill_first_attempt
    )
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["worker_crashes"] == spec.seeds
    assert counters["jobs_completed"] == 1

    fresh = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=spec.seeds, **FAST
    ).run_open_loop(Design.AFC, rate=0.2)
    assert results[0]["result"] == result_to_dict(fresh)


def test_checkpointed_seeds_are_never_recomputed(tmp_path):
    """A service died after finishing seeds 0 and 2 of 3.  The next
    service recovers them from the partials file, runs only seed 1,
    and aggregates to the exact uninterrupted result."""
    spec = fast_spec(seeds=3)
    store = ResultStore(tmp_path)
    key = spec.key()
    # What the dead service left behind: durable per-seed checkpoints.
    store.checkpoint_seed(key, 0, sample_to_dict(spec.run_seed(0)))
    store.checkpoint_seed(key, 2, sample_to_dict(spec.run_seed(2)))

    service = ExperimentService(store, jobs=2)
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["seeds_recovered"] == 2
    assert counters["seed_units_run"] == 1  # only the missing seed
    assert counters["jobs_completed"] == 1
    assert store.partial_seeds(key) == {}  # cleaned up after aggregation

    fresh = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=3, **FAST
    ).run_open_loop(Design.AFC, rate=0.2)
    assert results[0]["result"] == result_to_dict(fresh)


def test_faulted_job_recovers_bit_identically(tmp_path):
    """The faulted kind (its own RNG salting + drain phase) through
    the kill-first-worker path, against the foreground runner."""
    from repro.faults import FaultSpec

    fault = FaultSpec(link_flap_rate=2e-4, bit_error_rate=1e-4)
    spec = JobSpec(
        kind="faulted",
        rate=0.15,
        seeds=2,
        fault=fault,
        drain_max_cycles=5_000,
        **FAST,
    )

    def kill_first(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGKILL)

    service = ExperimentService(
        ResultStore(tmp_path), jobs=2, on_worker_spawn=kill_first
    )
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["worker_crashes"] == 2

    fresh = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, seeds=2, **FAST
    ).run_faulted(
        Design.AFC, rate=0.15, spec=fault, drain_max_cycles=5_000
    )
    assert results[0]["result"] == result_to_dict(fresh)


def test_closed_loop_with_metrics_recovers_bit_identically(tmp_path):
    """Metrics registries merge in seed order during aggregation, so
    even the merged observability payload survives a crash exactly."""
    spec = JobSpec(
        kind="closed_loop", workload="apache", seeds=2, metrics=True, **FAST
    )

    def kill_first(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGKILL)

    service = ExperimentService(
        ResultStore(tmp_path), jobs=2, on_worker_spawn=kill_first
    )
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["worker_crashes"] == 2

    from repro.obs.hub import ObservabilityOptions
    from repro.traffic.workloads import WORKLOADS

    fresh = ExperimentRunner(
        NetworkConfig(3, 3),
        jobs=1,
        seeds=2,
        obs=ObservabilityOptions(metrics=True),
        **FAST,
    ).run_closed_loop(Design.AFC, WORKLOADS["apache"])
    assert results[0]["result"] == result_to_dict(fresh)


def test_sigkill_plus_checkpoint_resume_metrics_bit_identical(tmp_path):
    """The full recovery gauntlet at once: seed 0 is a dead service's
    leftover checkpoint, seed 1's first worker is SIGKILLed — and the
    *metrics registry* in the final record must still be bit-identical
    to an uninterrupted foreground run (the telemetry-plane acceptance
    criterion: streaming/recovery machinery must never perturb what a
    job computes)."""
    spec = JobSpec(
        kind="closed_loop", workload="apache", seeds=2, metrics=True, **FAST
    )
    store = ResultStore(tmp_path)
    key = spec.key()
    # The dead service's leftover: seed 0 already checkpointed.
    store.checkpoint_seed(key, 0, sample_to_dict(spec.run_seed(0)))

    def kill_first(pid: int, attempt: int) -> None:
        if attempt == 1:
            os.kill(pid, signal.SIGKILL)

    service = ExperimentService(
        store, jobs=2, on_worker_spawn=kill_first
    )
    results, counters = asyncio.run(drain(service, [spec]))
    assert counters["seeds_recovered"] == 1
    assert counters["worker_crashes"] == 1  # only seed 1 ran a worker
    assert counters["jobs_completed"] == 1

    from repro.obs.hub import ObservabilityOptions
    from repro.traffic.workloads import WORKLOADS

    fresh = ExperimentRunner(
        NetworkConfig(3, 3),
        jobs=1,
        seeds=2,
        obs=ObservabilityOptions(metrics=True),
        **FAST,
    ).run_closed_loop(Design.AFC, WORKLOADS["apache"])
    expected = result_to_dict(fresh)
    assert results[0]["result"] == expected
    # Explicitly pin the merged registry, not just the whole record.
    got_metrics = results[0]["result"]["observability"]["metrics"]
    assert got_metrics == expected["observability"]["metrics"]


def test_a_killed_servers_seed_leaves_no_live_progress(tmp_path):
    """A ``repro serve`` SIGKILLed mid-seed must not haunt the next
    service on its store: the resubmitted job, still queued, reports no
    live seed and no percentile its checkpoints cannot account for."""
    spec = JobSpec(
        kind="open_loop",
        width=4,
        height=4,
        rate=0.25,
        seeds=2,
        warmup_cycles=500,
        measure_cycles=12_000,
    )
    store_dir = tmp_path / "store"
    src_dir = str(Path(repro.__file__).parent.parent)
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--store", str(store_dir), "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one killpg reaches its workers too
        env={
            **os.environ,
            "PYTHONPATH": src_dir + os.pathsep
            + os.environ.get("PYTHONPATH", ""),
        },
    )
    try:
        line = server.stdout.readline().strip()
        assert line.startswith("serving on "), line
        port = int(line.rsplit(":", 1)[1])
        with ServiceClient(host="127.0.0.1", port=port) as client:
            key = client.submit(spec.to_dict())["key"]
            # Seed 0 is running and has reported progress.
            deadline = time.monotonic() + 120
            while "p50_packet_latency" not in client.status(key):
                assert time.monotonic() < deadline, "no progress seen"
                time.sleep(0.02)
    finally:
        os.killpg(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        server.stdout.close()

    store = ResultStore(store_dir)
    service = ExperimentService(store, jobs=1)  # never started
    assert service.submit(spec)["status"] == "queued"
    status = service.status(key)
    frame = service.watch_snapshot(key)
    assert status["state"] == "queued"
    partials = store.partial_seeds(key)
    names = (
        "p50_packet_latency", "p95_packet_latency", "p99_packet_latency"
    )
    expected = {
        name: sum(partials[i][name] for i in partials) / len(partials)
        for name in names
        if partials
    }
    assert {name: status[name] for name in names if name in status} == (
        expected
    )
    assert "live" not in status
    assert "live" not in frame and frame["status"] == status
