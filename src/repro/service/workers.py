"""Heartbeat-supervised seed workers.

One *seed unit* — ``(JobSpec, seed index)`` — runs in a forked child
process.  The child sends its finished sample dict back over a pipe; a
daemon thread inside it bumps a shared heartbeat value every
``beat_interval`` seconds, independent of how deep the simulator is in
its cycle loop.  The supervising thread in the service process watches
three failure signals:

* **crash** — the child died (SIGKILL'd, OOM'd, segfaulted) without
  delivering a sample; the unit is retried in a fresh child;
* **stall** — the child is alive but its heartbeat stopped advancing
  (stopped/livelocked process); the child is killed and the unit
  retried;
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
from ..obs.telemetry import LiveSeedPublisher
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

#: Seconds between heartbeat bumps inside a worker.
BEAT_INTERVAL = 0.2
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


def _seed_worker_main(
    conn, heartbeat, spec_dict, index, live_path=None, live_interval=0.5
) -> None:
    """Child entry: beat, simulate, send exactly one message.

    With ``live_path`` set a :class:`LiveSeedPublisher` thread runs
    alongside the heartbeat, periodically snapshotting the run the
    harness publishes (:func:`repro.obs.telemetry.publish_run`) into
    the store's live directory — the worker half of ``repro watch``.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(BEAT_INTERVAL)

    threading.Thread(target=beat, daemon=True).start()
    publisher = None
    if live_path is not None and live_interval > 0:
        publisher = LiveSeedPublisher(live_path, live_interval).start()
    try:
        spec = JobSpec.from_dict(spec_dict)
        sample = _execute_seed(spec, index)
        if publisher is not None:
            publisher.stop()  # flush the final snapshot pre-send
            publisher = None
        conn.send(("ok", sample))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=20)))
        except (BrokenPipeError, OSError):  # supervisor already gone
            pass
    finally:
        if publisher is not None:
            publisher.stop()
        stop.set()
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
    on_beat: Optional[Callable[[int, float], None]] = None,
    live_path=None,
    live_interval: float = 0.5,
) -> SeedOutcome:
    """Run one seed unit under supervision (blocking).

    ``on_spawn(pid, attempt)`` fires after each worker starts — the
    service uses it to publish worker pids (``repro queue``), and the
    crash-recovery tests use it to SIGKILL the worker mid-run.
    ``on_beat(pid, age)`` fires roughly once per second while the
    worker's heartbeat is advancing (the service turns these into
    telemetry ``heartbeat`` events).  ``live_path`` makes the child
    publish periodic live snapshots there (see
    :func:`_seed_worker_main`).
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
        heartbeat = ctx.Value("d", time.monotonic())
        proc = ctx.Process(
            target=_seed_worker_main,
            args=(
                child_conn,
                heartbeat,
                spec_dict,
                index,
                live_path,
                live_interval,
            ),
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
        message = None
        status = "crashed"
        last_beat_report = time.monotonic()
        try:
            while True:
                if parent_conn.poll(_POLL_INTERVAL):
                    try:
                        message = parent_conn.recv()
                    except (EOFError, OSError):
                        message = None  # died mid-send: a crash
                    break
                if not proc.is_alive():
                    # Raced against delivery: drain any final message.
                    if parent_conn.poll(0):
                        try:
                            message = parent_conn.recv()
                        except (EOFError, OSError):
                            message = None
                    break
                now = time.monotonic()
                if on_beat is not None and now - last_beat_report >= 1.0:
                    last_beat_report = now
                    on_beat(proc.pid or 0, now - heartbeat.value)
                if now - heartbeat.value > heartbeat_timeout:
                    status = "stalled"
                    _kill(proc)
                    break
                if deadline is not None and now > deadline:
                    status = "timeout"
                    _kill(proc)
                    break
        finally:
            _kill(proc)
            parent_conn.close()
        if message is not None:
            verdict, payload = message
            if verdict == "ok":
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
