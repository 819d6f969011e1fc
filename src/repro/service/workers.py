"""Heartbeat-supervised seed workers.

One *seed unit* — ``(JobSpec, seed index)`` — runs in a forked child
process with one pipe back to its supervisor.  A daemon thread in the
child sends ``("beat", snapshot)`` every :data:`BEAT_INTERVAL` seconds,
independent of how deep the simulator is in its cycle loop; the
snapshot is :func:`~repro.obs.telemetry.live_snapshot` of the run the
harness publishes (``None`` before it starts).  The last message is
the verdict, ``("ok", sample)`` or ``("error", traceback)``.  The
supervising thread in the service process treats any message as proof
of life and watches three failure signals:

* **crash** — the child died (SIGKILL'd, OOM'd, segfaulted) without
  delivering a verdict; the unit is retried in a fresh child;
* **stall** — the child is alive but sent nothing for
  ``heartbeat_timeout`` seconds (stopped/livelocked process); the
  child is killed and the unit retried;
* **timeout** — the per-unit wall-clock deadline passed; the child is
  killed; retried like a crash (a deadline on a loaded box is an
  environmental failure, not a property of the spec).

A Python-level *exception* in the child is **not** retried: the runs
are deterministic, so a fresh child would raise identically.

Where ``fork`` is unavailable the unit simply runs inline — correct
but without crash isolation (documented in docs/SERVICE.md).
"""

from __future__ import annotations

import time  # simlint: disable=wallclock
import threading
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, List, Optional

from ..harness.experiment import fork_context
from ..obs.telemetry import current_run, live_snapshot
from .jobs import JobSpec
from .serialize import sample_to_dict

__all__ = ["SeedOutcome", "run_seed_unit"]

#: Everything a seed unit of any kind runs: the simulation stack
#: (through the harness), then what the harness imports only on first
#: use — the probes and the sanitizer of an observed or sanitized run,
#: the injector of a faulted one.  Imported here, before the first
#: fork, so each forked worker inherits these modules instead of
#: importing (and, without a bytecode cache, compiling) them per unit.
PRELOAD = (
    "repro.harness.experiment",
    "repro.analysis.probes",
    "repro.analysis.sanitizer",
    "repro.faults.injector",
    "repro.faults.reroute",
)
for _name in PRELOAD:
    import_module(_name)

#: Seconds between beat messages from a worker.
BEAT_INTERVAL = 0.5
#: Pipe poll granularity in the supervisor.
_POLL_INTERVAL = 0.05


@dataclass
class SeedOutcome:
    """What happened to one seed unit, across all its attempts."""

    status: str  #: "ok" | "crashed" | "stalled" | "timeout" | "error"
    sample: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0
    #: Worker pids, one per attempt (inline runs record pid 0).
    pids: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _execute_seed(spec: JobSpec, index: int) -> dict:
    """Run one seed and encode its sample (module-level so tests can
    monkeypatch it to simulate stalls/crashes; fork inherits the
    patch)."""
    return sample_to_dict(spec.run_seed(index))


def _beat(conn, lock: threading.Lock, stop: threading.Event) -> None:
    """The worker's beat loop: every :data:`BEAT_INTERVAL` seconds,
    send ``("beat", snapshot)`` of the published run, or ``None``.

    Snapshots are pure reads of monotone accumulators, so a racing
    simulation step can at worst make one internally stale, never
    perturb the run.  ``stop`` is set under ``lock`` before the
    verdict is sent, so no beat can follow it."""
    while not stop.wait(BEAT_INTERVAL):
        run = current_run()
        try:
            snapshot = live_snapshot(*run) if run is not None else None
        except (RuntimeError, ValueError, TypeError):
            # Racing the simulation mid-mutation (e.g. a metric table
            # growing during iteration): this beat carries no snapshot.
            snapshot = None
        with lock:
            if stop.is_set():
                return
            try:
                conn.send(("beat", snapshot))
            except OSError:  # supervisor already gone
                return


def _seed_worker_main(conn, spec_dict, index) -> None:
    """Child entry: beat, simulate, end with exactly one verdict."""
    lock = threading.Lock()
    stop = threading.Event()
    threading.Thread(
        target=_beat, args=(conn, lock, stop), daemon=True
    ).start()
    try:
        spec = JobSpec.from_dict(spec_dict)
        message = ("ok", _execute_seed(spec, index))
    except BaseException:
        message = ("error", traceback.format_exc(limit=20))
    with lock:
        stop.set()
        try:
            conn.send(message)
        except OSError:  # supervisor already gone
            pass
    conn.close()


def _kill(proc) -> None:
    if proc.is_alive():
        proc.kill()
    proc.join(5.0)


def run_seed_unit(
    spec_dict: dict,
    index: int,
    *,
    timeout: Optional[float] = None,
    heartbeat_timeout: float = 30.0,
    retries: int = 2,
    on_spawn: Optional[Callable[[int, int], None]] = None,
    on_beat: Optional[Callable[[int, Optional[dict]], None]] = None,
) -> SeedOutcome:
    """Run one seed unit under supervision (blocking).

    ``on_spawn(pid, attempt)`` fires after each worker starts — the
    service uses it to publish worker pids (``repro queue``), and the
    crash-recovery tests use it to SIGKILL the worker mid-run.
    ``on_beat(pid, snapshot)`` fires on every beat message, with the
    worker's live snapshot or ``None`` (see :func:`_beat`).
    """
    ctx = fork_context()
    if ctx is None:  # pragma: no cover - non-fork platforms
        outcome = SeedOutcome(status="ok", attempts=1, pids=[0])
        try:
            outcome.sample = _execute_seed(
                JobSpec.from_dict(spec_dict), index
            )
        except Exception:
            outcome.status = "error"
            outcome.error = traceback.format_exc(limit=20)
        return outcome

    outcome = SeedOutcome(status="crashed")
    for attempt in range(1, retries + 2):
        outcome.attempts = attempt
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_seed_worker_main,
            args=(child_conn, spec_dict, index),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        outcome.pids.append(proc.pid or 0)
        if on_spawn is not None:
            on_spawn(proc.pid or 0, attempt)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        verdict = None
        status = "crashed"
        last_message = time.monotonic()
        try:
            while True:
                if parent_conn.poll(_POLL_INTERVAL):
                    try:
                        kind, payload = parent_conn.recv()
                    except (EOFError, OSError):
                        break  # died mid-send: a crash
                    last_message = time.monotonic()
                    if kind != "beat":
                        verdict = (kind, payload)
                        break
                    if on_beat is not None:
                        on_beat(proc.pid or 0, payload)
                elif not proc.is_alive():
                    if parent_conn.poll(0):
                        continue  # raced against delivery: read it
                    break
                now = time.monotonic()
                if now - last_message > heartbeat_timeout:
                    status = "stalled"
                    break
                if deadline is not None and now > deadline:
                    status = "timeout"
                    break
        finally:
            _kill(proc)
            parent_conn.close()
        if verdict is not None:
            kind, payload = verdict
            if kind == "ok":
                outcome.status = "ok"
                outcome.sample = payload
                return outcome
            outcome.status = "error"
            outcome.error = payload
            return outcome  # deterministic failure: retrying is futile
        outcome.status = status
        outcome.error = (
            f"worker {outcome.pids[-1]} {status} on attempt {attempt}"
        )
    return outcome
