"""Service telemetry: job-lifecycle spans and the worker's live view.

Two halves, both stdlib-only:

* :class:`TelemetryLog` — the :class:`~repro.service.queue.
  ExperimentService`'s structured event log.  Every lifecycle step of
  a job (``submitted`` / ``queued`` / ``dispatched`` / ``seed-started``
  / ``heartbeat`` / ``retry`` / ``shed`` / ``seed-finished`` /
  ``completed`` / ``failed``) is one timestamped record.  Timestamps
  are *monotonic and relative to the log's birth*, so spans are
  immune to wall-clock steps and a whole service run exports as
  Chrome trace-event JSON (:meth:`TelemetryLog.chrome_trace`) that
  opens in Perfetto next to the simulator's flit traces
  (:class:`~repro.obs.trace.FlitTracer` uses the same format).
  Records are thread-safe (service callbacks fire from worker
  supervision threads) and fan out to asyncio subscribers for the
  protocol's streaming ``events`` verb.

* the **current run** — the harness↔worker contract that lets a forked
  seed worker report progress without touching the simulation's hot
  path.  The harness publishes the per-process current run
  (:func:`publish_run`: the network plus its metrics registry, one
  attribute rebind per seed run, nothing per cycle); the worker's beat
  thread (:mod:`repro.service.workers`) snapshots it
  (:func:`live_snapshot`) into each heartbeat message on the result
  pipe.  Snapshots are pure reads of monotone accumulators — a racing
  simulation step can at worst make one snapshot internally stale,
  never corrupt the run.
"""

from __future__ import annotations

import json
import threading
import time  # simlint: disable=wallclock
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "TelemetryLog",
    "publish_run",
    "clear_run",
    "current_run",
    "live_snapshot",
]


class TelemetryLog:
    """Append-only, thread-safe log of service lifecycle events.

    Events are plain dicts ``{"seq", "t", "kind", ...fields}`` with
    ``t`` in seconds since the log was created (monotonic clock).  The
    clock is injectable so tests get deterministic timestamps.
    """

    def __init__(
        self, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self._t0 = self._clock()
        self._events: List[dict] = []
        self._lock = threading.Lock()
        #: (queue, loop, last_seq_delivered) per live subscriber.
        self._subscribers: List[list] = []

    # -- recording -------------------------------------------------------
    def now(self) -> float:
        """Seconds since the log was created (monotonic)."""
        return self._clock() - self._t0

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns it (with ``seq`` and ``t`` set)."""
        with self._lock:
            event = {
                "seq": len(self._events) + 1,
                "t": round(self.now(), 6),
                "kind": kind,
                **fields,
            }
            self._events.append(event)
            subscribers = list(self._subscribers)
        for entry in subscribers:
            queue, loop, _last = entry
            if loop is None:
                queue.put_nowait(event)
                continue
            try:
                loop.call_soon_threadsafe(queue.put_nowait, event)
            except RuntimeError:  # loop already closed
                pass
        return event

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self, since: int = 0) -> List[dict]:
        """Events with ``seq > since`` (pass the last seen seq to poll)."""
        with self._lock:
            return [e for e in self._events if e["seq"] > since]

    def summary(self) -> Dict[str, int]:
        """Event counts by kind."""
        out: Dict[str, int] = {}
        with self._lock:
            for event in self._events:
                out[event["kind"]] = out.get(event["kind"], 0) + 1
        return out

    # -- streaming subscriptions ----------------------------------------
    def subscribe(self, loop=None):
        """An :class:`asyncio.Queue` receiving every future event.

        ``loop`` is the event loop the queue belongs to (defaults to
        the running loop); records from other threads are marshalled
        onto it.  Pair with :meth:`unsubscribe`."""
        import asyncio

        if loop is None:
            loop = asyncio.get_running_loop()
        queue: "asyncio.Queue" = asyncio.Queue()
        with self._lock:
            self._subscribers.append([queue, loop, len(self._events)])
        return queue

    def unsubscribe(self, queue) -> None:
        with self._lock:
            self._subscribers = [
                entry for entry in self._subscribers if entry[0] is not queue
            ]

    # -- Chrome trace-event export ---------------------------------------
    def chrome_trace(self) -> dict:
        """The log as Chrome trace-event JSON (Perfetto-compatible).

        Layout mirrors :meth:`~repro.obs.trace.FlitTracer.chrome_trace`
        (1 second of service time = 1s there too, expressed in the
        format's microseconds): process 0 ("service jobs") holds one
        thread per job key with its queued and running spans plus
        submitted/shed instants; process 1 ("seed workers") holds one
        thread per (job, seed) with a span per worker attempt and
        retry/heartbeat instants."""
        with self._lock:
            events = list(self._events)
        trace: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "service jobs"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "seed workers"},
            },
        ]

        def us(t: float) -> int:
            return int(round(t * 1_000_000))

        job_tids: Dict[str, int] = {}
        seed_tids: Dict[Tuple[str, int], int] = {}
        #: per-key first timestamps of the lifecycle edges.
        first_seen: Dict[Tuple[str, str], float] = {}
        #: open worker-attempt spans: (key, seed) -> (t_start, attempt).
        open_attempts: Dict[Tuple[str, int], Tuple[float, int]] = {}

        def job_tid(key: str) -> int:
            if key not in job_tids:
                job_tids[key] = len(job_tids) + 1
                trace.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": job_tids[key],
                        "args": {"name": f"job {key[:12]}"},
                    }
                )
            return job_tids[key]

        def seed_tid(key: str, index: int) -> int:
            pair = (key, index)
            if pair not in seed_tids:
                seed_tids[pair] = len(seed_tids) + 1
                trace.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": seed_tids[pair],
                        "args": {"name": f"{key[:8]} seed {index}"},
                    }
                )
            return seed_tids[pair]

        def span(
            name: str, pid: int, tid: int, t0: float, t1: float, args: dict
        ) -> None:
            trace.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": us(t0),
                    "dur": max(1, us(t1) - us(t0)),
                    "args": args,
                }
            )

        def instant(
            name: str, pid: int, tid: int, t: float, args: dict
        ) -> None:
            trace.append(
                {
                    "name": name,
                    "ph": "i",
                    "pid": pid,
                    "tid": tid,
                    "ts": us(t),
                    "s": "t",
                    "args": args,
                }
            )

        def close_attempt(
            key: str, index: int, t_end: float, status: str
        ) -> None:
            started = open_attempts.pop((key, index), None)
            if started is None:
                return
            t_start, attempt = started
            span(
                f"seed {index} attempt {attempt}",
                1,
                seed_tid(key, index),
                t_start,
                t_end,
                {"key": key, "status": status, "attempt": attempt},
            )

        for event in events:
            kind = event["kind"]
            key = event.get("key", "")
            t = event["t"]
            if kind in ("submitted", "queued", "dispatched"):
                first_seen.setdefault((key, kind), t)
                if kind == "submitted":
                    instant(
                        "submitted",
                        0,
                        job_tid(key),
                        t,
                        {"outcome": event.get("outcome", "queued")},
                    )
            elif kind == "shed":
                instant("shed", 0, job_tid(key), t, {"key": key})
            elif kind == "seed-started":
                index = int(event.get("index", 0))
                attempt = int(event.get("attempt", 1))
                # A retry implicitly ends the previous attempt's span.
                close_attempt(key, index, t, "superseded")
                open_attempts[(key, index)] = (t, attempt)
                if attempt > 1:
                    instant(
                        "retry",
                        1,
                        seed_tid(key, index),
                        t,
                        {"key": key, "attempt": attempt},
                    )
            elif kind == "retry":
                index = int(event.get("index", 0))
                instant(
                    "retry",
                    1,
                    seed_tid(key, index),
                    t,
                    {"key": key, "attempt": event.get("attempt")},
                )
            elif kind == "heartbeat":
                index = int(event.get("index", 0))
                instant(
                    "heartbeat",
                    1,
                    seed_tid(key, index),
                    t,
                    {"key": key, "cycle": event.get("cycle")},
                )
            elif kind == "seed-finished":
                index = int(event.get("index", 0))
                close_attempt(
                    key, index, t, str(event.get("status", "ok"))
                )
            elif kind in ("completed", "failed"):
                tid = job_tid(key)
                t_queued = first_seen.get((key, "submitted"))
                t_run = first_seen.get((key, "dispatched"))
                if t_queued is not None and t_run is not None:
                    span(
                        "queued",
                        0,
                        tid,
                        t_queued,
                        t_run,
                        {"key": key},
                    )
                if t_run is not None:
                    span(
                        kind,
                        0,
                        tid,
                        t_run,
                        t,
                        {
                            "key": key,
                            "seeds": event.get("seeds"),
                            "error": event.get("error"),
                        },
                    )
        return {"traceEvents": trace, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        Path(path).write_text(json.dumps(self.chrome_trace()))


# -- per-process current run (what a worker's beats snapshot) -------------

#: The run currently executing in this process, as ``(network,
#: registry-or-None)``.  Rebinding a module global is atomic under the
#: GIL and each forked worker rebinds its own copy-on-write copy after
#: the fork, so there is no cross-process shared state to diverge —
#: exactly why this is a plain rebound name and not a mutated
#: container, whose copy-on-write copies would silently diverge.
_current_run: Optional[tuple] = None


def publish_run(net, registry=None) -> None:
    """Make ``net`` (and optionally its metrics registry) visible to a
    seed worker's beat thread in this process.  One attribute rebind:
    nothing is touched per cycle, so the simulation stays bit-identical
    and allocation-free with telemetry off or on."""
    global _current_run
    _current_run = (net, registry)


def clear_run() -> None:
    """Forget the published run (drop the network reference)."""
    global _current_run
    _current_run = None


def current_run() -> Optional[tuple]:
    """The published ``(network, registry)``, or ``None``."""
    return _current_run


def live_snapshot(net, registry=None) -> dict:
    """One JSON-ready progress snapshot of a running simulation.

    Reads only monotone accumulators (cycle counter, stats totals, the
    latency histogram's fixed buckets), so calling it from a side
    thread cannot perturb the run."""
    stats = net.stats
    snap = {
        "cycle": net.cycle,
        "throughput": stats.throughput,
        "avg_packet_latency": stats.avg_packet_latency,
        "p50_packet_latency": stats.p50_packet_latency,
        "p95_packet_latency": stats.p95_packet_latency,
        "p99_packet_latency": stats.p99_packet_latency,
        "packets_completed": stats.packets_completed,
        "flits_ejected": stats.flits_ejected,
    }
    if registry is not None:
        snap["metrics"] = registry.to_dict()
    return snap
