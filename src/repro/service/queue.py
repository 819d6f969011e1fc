"""The experiment service: admission, priority queue, single-flight
dedupe, crash-safe execution, and the result cache.

``asyncio`` frontend, forked-worker backend.  The flow of one request:

1. **submit** — the spec hashes to its job key.  A stored result is a
   *cache hit* (no work).  A queued/running job with the same key
   *attaches* the caller (single-flight: one simulation serves every
   concurrent duplicate).  Otherwise the job must pass **admission**:
   when ``queued >= queue_limit`` the request is **shed** with a
   ``retry_after`` hint — explicit backpressure at the service
   boundary, exactly the discipline the fabric under test applies to
   its own injection ports.
2. **dispatch** — the highest-priority queued job starts (FIFO within
   a priority level); up to ``max_active`` jobs run concurrently.
3. **execution** — the job's not-yet-checkpointed seeds fan out over
   ``jobs`` worker slots as supervised seed units
   (:func:`repro.service.workers.run_seed_unit`).  Each finished seed
   is checkpointed to the store *before* it counts as done; a worker
   crash requeues only the lost seed, never completed ones.
4. **aggregate** — when every seed index has a checkpoint, the samples
   are decoded and folded by the same per-kind ``fold`` the
   foreground runner uses, the record is stored atomically, the
   partials are cleared, and every waiter resolves.

Determinism: samples always reach aggregation through the store's
JSON codec (fresh and recovered runs share one code path), so a
recovered or cached result is bit-identical to a fresh foreground run —
the acceptance contract pinned by ``tests/test_service_recovery.py``.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..domain import Real
from ..harness.experiment import _merge_observability
from ..obs.telemetry import TelemetryLog
from .jobs import JobSpec
from .serialize import result_to_dict, sample_from_dict
from .store import ResultStore
from .workers import SeedOutcome, run_seed_unit

__all__ = ["ExperimentService", "JobState"]

#: A worker heartbeat or seed timeout, in seconds.
_SECONDS = Real(0.0, open_low=True)

#: Result/sample fields surfaced by ``repro status`` / ``watch`` (the
#: always-on latency percentiles satellite).
_PCTL_FIELDS = (
    "p50_packet_latency",
    "p95_packet_latency",
    "p99_packet_latency",
)


def _percentiles_of(row: dict) -> dict:
    """The percentile fields present in one sample/result dict."""
    return {
        name: row[name]
        for name in _PCTL_FIELDS
        if isinstance(row.get(name), (int, float))
    }


def _mean_percentiles(rows: List[dict]) -> dict:
    """Seed-mean of each percentile field over the rows carrying it —
    the same per-field mean the harness fold takes over
    finished samples (fault samples carry no percentiles and simply
    drop out)."""
    out = {}
    for name in _PCTL_FIELDS:
        values = [
            row[name]
            for row in rows
            if isinstance(row.get(name), (int, float))
        ]
        if values:
            out[name] = sum(values) / len(values)
    return out


@dataclass
class JobState:
    """Book-keeping for one admitted job."""

    key: str
    spec: JobSpec
    priority: int
    seq: int
    state: str = "queued"  #: queued | running | done | failed
    total_seeds: int = 0
    completed_seeds: int = 0
    #: Live worker pids by seed index (for ``repro queue`` and the
    #: kill-a-worker smoke tests).
    workers: Dict[int, int] = field(default_factory=dict)
    #: Latest heartbeat snapshot of each seed still running, by seed
    #: index (:func:`repro.obs.telemetry.live_snapshot`).
    live: Dict[int, dict] = field(default_factory=dict)
    #: How many submissions this job absorbed (1 + attached dupes).
    submissions: int = 1
    error: Optional[str] = None
    record: Optional[dict] = None
    waiters: List[asyncio.Future] = field(default_factory=list)

    def snapshot(self) -> dict:
        return {
            "key": self.key,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.priority,
            "total_seeds": self.total_seeds,
            "completed_seeds": self.completed_seeds,
            "progress": {
                "done": self.completed_seeds,
                "total": self.total_seeds,
            },
            "workers": dict(self.workers),
            "submissions": self.submissions,
            "error": self.error,
        }


class ExperimentService:
    """Async job queue over the content-addressed result store."""

    def __init__(
        self,
        store: ResultStore,
        *,
        jobs: int = 2,
        queue_limit: int = 64,
        max_active: Optional[int] = None,
        seed_timeout: Optional[float] = 600.0,
        heartbeat_timeout: float = 30.0,
        retries: int = 2,
        on_worker_spawn: Optional[Callable[[int, int], None]] = None,
        telemetry: Optional[TelemetryLog] = None,
    ) -> None:
        # A zero timeout stalls every worker at once; NaN makes every
        # comparison false and so turns stall and deadline detection off.
        _SECONDS.check("heartbeat_timeout", heartbeat_timeout)
        if seed_timeout is not None:
            _SECONDS.check("seed_timeout", seed_timeout)
        self.store = store
        self.jobs = max(1, jobs)
        self.queue_limit = queue_limit
        self.max_active = max_active if max_active is not None else self.jobs
        self.seed_timeout = seed_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.retries = retries
        #: Test hook: observes every (pid, attempt) worker spawn.
        self.on_worker_spawn = on_worker_spawn
        #: Lifecycle event log — always on (events are tiny dicts, far
        #: off the simulation hot path); injectable for clock control.
        self.telemetry = telemetry if telemetry is not None else TelemetryLog()
        self._heap: List = []  # (-priority, seq, key)
        self._states: Dict[str, JobState] = {}
        self._seq = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._active = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._closing = False
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "cache_hits": 0,
            "deduped": 0,
            "shed": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "seed_units_run": 0,
            "seeds_recovered": 0,
            "worker_crashes": 0,
        }

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "ExperimentService":
        self._slots = asyncio.Semaphore(self.jobs)
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def close(self) -> None:
        self._closing = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec, priority: int = 0) -> dict:
        """Admit (or dedupe/shed) one request.  Never blocks."""
        self.counters["submitted"] += 1
        key = spec.key()
        record = self.store.get(key)
        if record is not None:
            self.counters["cache_hits"] += 1
            self.telemetry.record(
                "submitted", key=key, job_kind=spec.kind, outcome="cached"
            )
            return {"key": key, "status": "cached"}
        state = self._states.get(key)
        if state is not None and state.state in ("queued", "running"):
            state.submissions += 1
            self.counters["deduped"] += 1
            self.telemetry.record(
                "submitted", key=key, job_kind=spec.kind, outcome="deduped"
            )
            return {"key": key, "status": state.state, "deduped": True}
        queued = sum(
            1 for s in self._states.values() if s.state == "queued"
        )
        if queued >= self.queue_limit:
            self.counters["shed"] += 1
            self.telemetry.record(
                "submitted", key=key, job_kind=spec.kind, outcome="shed"
            )
            self.telemetry.record("shed", key=key, queued=queued)
            return {
                "key": key,
                "status": "shed",
                "reason": f"queue full ({queued}/{self.queue_limit})",
                "retry_after": 1.0,
            }
        self._seq += 1
        state = JobState(
            key=key,
            spec=spec,
            priority=priority,
            seq=self._seq,
            total_seeds=spec.seeds,
        )
        self._states[key] = state
        heapq.heappush(self._heap, (-priority, self._seq, key))
        self.telemetry.record(
            "submitted",
            key=key,
            job_kind=spec.kind,
            priority=priority,
            outcome="queued",
        )
        self.telemetry.record(
            "queued", key=key, priority=priority, depth=queued + 1
        )
        if self._wakeup is not None:
            self._wakeup.set()
        return {"key": key, "status": "queued"}

    # -- queries ---------------------------------------------------------
    def status(self, key: str) -> dict:
        """State of a job, live or from the store.

        Always carries ``progress`` (done/total seeds) and — as soon as
        any seed has reported anything — the p50/p95/p99 packet-latency
        fields, live or finished alike (see :meth:`_progress`)."""
        state = self._states.get(key)
        if state is not None:
            out = state.snapshot()
            out.update(self._progress(state))
            return out
        record = self.store.get(key)
        if record is not None:
            result = record.get("result") or {}
            seeds = (record.get("spec") or {}).get("seeds")
            out = {"key": key, "state": "done", "cached": True}
            if isinstance(seeds, int):
                out["progress"] = {"done": seeds, "total": seeds}
            out.update(_percentiles_of(result))
            return out
        return {"key": key, "state": "unknown"}

    def _progress(self, state: JobState) -> dict:
        """What a job has computed so far, folded like its aggregate.

        A finished job reports its aggregate's percentiles.  Otherwise
        the rows are the checkpointed samples in seed order, then — only
        while the job runs — the heartbeat snapshots of the seeds still
        running, in seed order: the percentiles are their seed-mean and,
        for a metrics job, ``metrics`` is their merged registry, exactly
        as the finished aggregate folds them.  A running job also lists
        each live seed's snapshot (registry omitted) under ``live``."""
        if state.state == "done" and state.record is not None:
            return _percentiles_of(state.record.get("result") or {})
        partials = self.store.partial_seeds(state.key)
        rows = [partials[index] for index in sorted(partials)]
        if state.state != "running":
            return _mean_percentiles(rows)
        # A snapshot's ``metrics`` is a registry, as in the samples'
        # observability payloads.
        payloads = [row.get("observability") for row in rows]
        live = {}
        for index, snap in sorted(dict(state.live).items()):
            live[str(index)] = {
                name: value for name, value in snap.items()
                if name != "metrics"
            }
            rows.append(snap)
            payloads.append(snap)
        out = {"live": live, **_mean_percentiles(rows)}
        if state.spec.metrics:
            merged = _merge_observability(payloads)
            if merged is not None:
                out["metrics"] = merged["metrics"]
        return out

    def gauges(self) -> dict:
        """The service's point-in-time load gauges (for ``watch`` and
        the queue snapshot)."""
        return {
            "queue_depth": sum(
                1 for s in self._states.values() if s.state == "queued"
            ),
            "running": sum(
                1 for s in self._states.values() if s.state == "running"
            ),
            "shed_total": self.counters["shed"],
            "retries_total": self.counters["worker_crashes"],
            "store_results": len(self.store),
        }

    def queue_snapshot(self) -> dict:
        states = sorted(
            self._states.values(), key=lambda s: (-s.priority, s.seq)
        )

        def enriched(s: JobState) -> dict:
            snap = s.snapshot()
            snap.update(self._progress(s))
            return snap

        return {
            "queued": [
                s.snapshot() for s in states if s.state == "queued"
            ],
            "running": [
                enriched(s) for s in states if s.state == "running"
            ],
            "counters": dict(self.counters),
            "gauges": self.gauges(),
            "store_results": len(self.store),
        }

    def watch_snapshot(self, key: str) -> dict:
        """One frame of the ``repro watch`` stream for a job: its
        :meth:`status` (progress, percentiles, live seeds and, for a
        metrics job, the merged registry) plus the service gauges."""
        return {
            "key": key,
            "t": round(self.telemetry.now(), 6),
            "status": self.status(key),
            "gauges": self.gauges(),
        }

    async def result(
        self, key: str, wait: bool = False, timeout: Optional[float] = None
    ) -> dict:
        """The stored record for ``key``; optionally await a live job."""
        record = self.store.get(key)
        if record is not None:
            return {"key": key, "status": "done", "record": record}
        state = self._states.get(key)
        if state is None:
            return {"key": key, "status": "unknown"}
        if state.state == "failed":
            return {"key": key, "status": "failed", "error": state.error}
        if not wait:
            return {"key": key, "status": state.state}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        state.waiters.append(future)
        try:
            await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            return {"key": key, "status": state.state, "timed_out": True}
        if state.state == "done":
            return {"key": key, "status": "done", "record": state.record}
        return {"key": key, "status": "failed", "error": state.error}

    # -- dispatch / execution -------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while not self._closing:
            while self._heap and self._active < self.max_active:
                _, _, key = heapq.heappop(self._heap)
                state = self._states.get(key)
                if state is None or state.state != "queued":
                    continue
                self._active += 1
                asyncio.create_task(self._run_job(state))
            self._wakeup.clear()
            await self._wakeup.wait()

    async def _run_job(self, state: JobState) -> None:
        spec = state.spec
        state.state = "running"
        try:
            done = self.store.partial_seeds(state.key)
            recovered = [i for i in sorted(done) if i < spec.seeds]
            self.counters["seeds_recovered"] += len(recovered)
            state.completed_seeds = len(recovered)
            self.telemetry.record(
                "dispatched",
                key=state.key,
                seeds=spec.seeds,
                recovered=len(recovered),
            )
            self._record_series(
                state, "dispatched", recovered=len(recovered)
            )
            remaining = [
                i for i in range(spec.seeds) if i not in done
            ]
            if remaining:
                async with asyncio.TaskGroup() as group:
                    for index in remaining:
                        group.create_task(
                            self._run_seed_unit(state, index)
                        )
            partials = self.store.partial_seeds(state.key)
            samples = [
                sample_from_dict(partials[i]) for i in range(spec.seeds)
            ]
            result = spec.aggregate(samples)
            record = self.store.put(
                state.key,
                spec.kind,
                spec.to_dict(),
                result_to_dict(result),
            )
            self.store.clear_partials(state.key)
            state.record = record
            state.state = "done"
            self.counters["jobs_completed"] += 1
            self.telemetry.record(
                "completed", key=state.key, seeds=spec.seeds
            )
            self._record_series(
                state,
                "completed",
                **_percentiles_of(record.get("result") or {}),
            )
        except BaseException as exc:
            state.state = "failed"
            if isinstance(exc, BaseExceptionGroup):
                parts = "; ".join(
                    str(e) for e in exc.exceptions[:3]
                )
                state.error = f"{type(exc).__name__}: {parts}"
            else:
                state.error = f"{type(exc).__name__}: {exc}"
            self.counters["jobs_failed"] += 1
            self.telemetry.record(
                "failed", key=state.key, error=state.error
            )
            self._record_series(state, "failed", error=state.error)
            if isinstance(exc, asyncio.CancelledError):
                raise
        finally:
            state.live.clear()
            self._active -= 1
            if self._wakeup is not None:
                self._wakeup.set()
            for waiter in state.waiters:
                if not waiter.done():
                    waiter.set_result(state.state)
            state.waiters.clear()
            state.workers.clear()

    def _record_series(
        self, state: JobState, event: str, **fields
    ) -> None:
        """Append one durable progress row for the job (best-effort:
        a full disk must not fail the job itself)."""
        row = {
            "event": event,
            "t": round(self.telemetry.now(), 6),
            "done": state.completed_seeds,
            "total": state.total_seeds,
            "queue_depth": sum(
                1 for s in self._states.values() if s.state == "queued"
            ),
            **fields,
        }
        try:
            self.store.append_series(state.key, row)
        except OSError:
            pass

    async def _run_seed_unit(self, state: JobState, index: int) -> None:
        assert self._slots is not None
        async with self._slots:
            # Both callbacks fire on the supervising worker thread —
            # TelemetryLog.record is thread-safe by contract, and
            # ``state.live`` changes by single item assignments that
            # readers see through a copy (:meth:`_progress`).
            def on_spawn(pid: int, attempt: int) -> None:
                if attempt > 1:
                    self.counters["worker_crashes"] += 1
                    self.telemetry.record(
                        "retry",
                        key=state.key,
                        index=index,
                        attempt=attempt,
                        pid=pid,
                    )
                state.workers[index] = pid
                state.live.pop(index, None)  # a retry starts afresh
                self.telemetry.record(
                    "seed-started",
                    key=state.key,
                    index=index,
                    attempt=attempt,
                    pid=pid,
                )
                if self.on_worker_spawn is not None:
                    self.on_worker_spawn(pid, attempt)

            last_heartbeat = -math.inf

            def on_beat(pid: int, snapshot: Optional[dict]) -> None:
                nonlocal last_heartbeat
                if snapshot is not None:
                    state.live[index] = snapshot
                now = self.telemetry.now()
                if now - last_heartbeat < 1.0:
                    return  # telemetry keeps at most one event a second
                last_heartbeat = now
                self.telemetry.record(
                    "heartbeat",
                    key=state.key,
                    index=index,
                    pid=pid,
                    cycle=None if snapshot is None else snapshot["cycle"],
                )

            self.counters["seed_units_run"] += 1
            outcome: SeedOutcome = await asyncio.to_thread(
                run_seed_unit,
                state.spec.to_dict(),
                index,
                timeout=self.seed_timeout,
                heartbeat_timeout=self.heartbeat_timeout,
                retries=self.retries,
                on_spawn=on_spawn,
                on_beat=on_beat,
            )
            state.workers.pop(index, None)
            if not outcome.ok:
                self.telemetry.record(
                    "seed-finished",
                    key=state.key,
                    index=index,
                    status=outcome.status,
                    attempts=outcome.attempts,
                )
                raise RuntimeError(
                    f"seed {state.spec.seed_of(index)} "
                    f"{outcome.status} after {outcome.attempts} "
                    f"attempt(s): {outcome.error}"
                )
            assert outcome.sample is not None
            self.store.checkpoint_seed(state.key, index, outcome.sample)
            state.completed_seeds += 1
            state.live.pop(index, None)
            self.telemetry.record(
                "seed-finished",
                key=state.key,
                index=index,
                status="ok",
                attempts=outcome.attempts,
            )
            self._record_series(
                state,
                "seed",
                seed_index=index,
                **_percentiles_of(self._progress(state)),
            )
