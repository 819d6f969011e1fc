"""The front door: a real ``repro serve`` child driven over TCP.

``service_frontdoor`` is the fifth ledger workload: tiny closed-loop
jobs, so the service (canonical key, store, fork + heartbeat, protocol,
aggregation) rather than the simulator is the dominant cost.  It is a
*closed loop*: each of the 2 connections sends its next request only
after the previous reply, because a caller of ``repro submit`` /
``result --wait`` waits for its answer.  One load-generating process,
at most 2 client connections.

The server child, its temp store and its sockets are torn down on every
path out of a ``with Server(...)`` block.
"""

# Wall-clock timing is this file's purpose (benchmark harness, not
# simulation state): perf_counter brackets requests to the service.
# simlint: disable-file=wallclock

from __future__ import annotations

import math
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import Design
from repro.harness import ExperimentRunner
from repro.service import (
    JobSpec,
    ResultStore,
    ServiceClient,
    ServiceError,
    content_key,
    serialize,
    workers,
)
from repro.traffic.workloads import WORKLOADS

from workloads import closed_loop_cell, paper_err_pct

#: Designs of the cold phase (the three of the paper's open question;
#: the fourth Figure 2 design only adds a near-copy of AFC's cost).
DESIGNS = (Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (p95 of 300 leaves 15 samples beyond)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Server:
    """``python -m repro serve --port 0 --jobs 2 --store <dir>``, with
    the environment (``PYTHONPATH``) of the calling process."""

    def __init__(self, store: Path, jobs: int = 2) -> None:
        start = time.perf_counter()
        self.client: Optional[ServiceClient] = None
        # Own session: a forced kill must also reach forked seed workers.
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", str(jobs), "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.split()[-1].rpartition(":")
            self.host, self.port = host, int(port)
            self.client = self.connect()
            self.client.ping()
        except BaseException:
            self.close()
            raise
        #: Spawn -> first ``pong``.
        self.spawn_s = time.perf_counter() - start

    def connect(self) -> ServiceClient:
        return ServiceClient(host=self.host, port=self.port)

    def peak_rss_mb(self) -> float:
        """The server process's high-water RSS (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
        except (OSError, ServiceError):
            pass
        finally:
            if self.client is not None:
                self.client.close()
                self.client = None
            try:
                self.proc.wait(10.0)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def closed_loop_submit(
    server: Server, specs: Sequence[dict], connections: int
) -> Tuple[float, List[float], List[dict]]:
    """Submit ``specs`` from ``connections`` closed-loop clients.

    Returns ``(phase wall, submit->result latency per spec, reply per
    spec)``; a client that raises leaves its reply as ``{"error": ...}``.
    """
    latencies = [0.0] * len(specs)
    replies: List[dict] = [{"error": "not sent"}] * len(specs)
    cursor = iter(range(len(specs)))
    lock = threading.Lock()

    def client_loop() -> None:
        index = None
        try:
            with server.connect() as client:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    start = time.perf_counter()
                    ack = client.submit(specs[index])
                    reply = client.result(
                        ack["key"], wait=True, timeout=120.0
                    )
                    latencies[index] = time.perf_counter() - start
                    replies[index] = reply
        except (OSError, ServiceError, KeyError) as exc:
            if index is not None:
                replies[index] = {"error": f"{type(exc).__name__}: {exc}"}

    threads = [
        threading.Thread(target=client_loop) for _ in range(connections)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, replies


def timed_hits(
    client: ServiceClient, specs: Sequence[dict], count: int
) -> Tuple[List[float], List[Tuple[dict, dict]]]:
    """``count`` resubmissions of stored specs from one connection:
    ``submit`` (answered ``cached``) + ``result``, timed together."""
    latencies, replies = [], []
    for i in range(count):
        spec = specs[i % len(specs)]
        start = time.perf_counter()
        ack = client.submit(spec)
        reply = client.result(ack["key"])
        latencies.append(time.perf_counter() - start)
        replies.append((ack, reply))
    return latencies, replies


def wrong_hits(
    replies: Sequence[Tuple[dict, dict]], records: Dict[str, dict]
) -> int:
    """Hits that were not answered from the cache with the identical
    record of their cold run."""
    return sum(
        1
        for ack, reply in replies
        if ack.get("status") != "cached"
        or reply.get("record") != records.get(ack.get("key"))
    )


def _specs(base_seed: int, warmup: int, measure: int) -> List[dict]:
    return [
        JobSpec(
            kind="closed_loop",
            design=design,
            workload=workload,
            warmup_cycles=warmup,
            measure_cycles=measure,
            seeds=1,
            base_seed=base_seed,
        ).to_dict()
        for workload in WORKLOADS
        for design in DESIGNS
    ]


def _dispatch_wait_p50(events: Sequence[dict]) -> float:
    """Median submitted(queued) -> dispatched gap from the telemetry
    log of the ``events`` verb."""
    queued, waits = {}, []
    for event in events:
        if event["kind"] == "queued":
            queued[event["key"]] = event["t"]
        elif event["kind"] == "dispatched" and event["key"] in queued:
            waits.append(event["t"] - queued.pop(event["key"]))
    return statistics.median(waits) if waits else 0.0


def run_frontdoor(
    workdir: Path, seed: int, smoke: bool, tracer, traced: bool
) -> dict:
    """One run of ``service_frontdoor``.

    ``rounds`` rounds, each on fresh base seeds: **cold** 18 unique
    closed-loop specs (6 workloads x 3 designs) from 2 connections;
    **dedupe** fresh specs each submitted twice back-to-back; **hits**
    resubmissions of stored keys from 1 connection.  At full size that
    is 72 cold jobs, 12 deduped pairs and 1200 hits.  The work is sized
    in requests, not seconds.  Every host-time figure is kept per
    round, so a run holds ``rounds`` samples of each.
    """
    rounds, warmup, measure = (1, 50, 150) if smoke else (4, 300, 1200)
    dedupes, hits, spawns = (1, 30, 1) if smoke else (3, 300, 8)
    sampled, passes = (2, 1) if smoke else (6, 3)
    out: dict = {"attempted": 0, "failed": 0, "failures": []}

    def check(wrong: int, of: int, what: str) -> None:
        out["attempted"] += of
        if wrong:
            out["failed"] += wrong
            out["failures"].append(what)

    spawn_s = []
    for attempt in range(spawns - 1):
        with Server(workdir / f"spawn-{attempt}") as extra:
            spawn_s.append(extra.spawn_s)
    records: Dict[str, dict] = {}
    cold_specs: List[dict] = []
    round_wall, jobs_per_s = [], []
    submit_batches: List[List[float]] = []
    hit_latencies: List[float] = []
    with Server(workdir / "store") as server:
        spawn_s.append(server.spawn_s)
        client = server.client
        for index in range(rounds):
            base_seed = seed * 100 + index
            with tracer.span(f"round-{index}", unit=f"round-{index}"):
                specs = _specs(base_seed, warmup, measure)
                with tracer.span("cold"):
                    wall, latencies, replies = closed_loop_submit(
                        server, specs, connections=2
                    )
                for spec, reply in zip(specs, replies):
                    check(
                        reply.get("status") != "done",
                        1,
                        f"cold job not done: {reply}",
                    )
                    if "record" in reply:
                        records[reply["key"]] = reply["record"]
                cold_specs.extend(specs)
                jobs_per_s.append(len(specs) / wall)
                submit_batches.append(latencies)
                with tracer.span("dedupe"):
                    start = time.perf_counter()
                    fresh = _specs(base_seed + 50, warmup, measure)
                    for spec in fresh[:dedupes]:
                        first = client.submit(spec)
                        second = client.submit(spec)
                        reply = client.result(
                            first["key"], wait=True, timeout=120.0
                        )
                        check(
                            not second.get("deduped")
                            or reply.get("status") != "done",
                            1,
                            f"dedupe failed: {second} {reply.get('status')}",
                        )
                        if "record" in reply:
                            records[reply["key"]] = reply["record"]
                    wall += time.perf_counter() - start
                with tracer.span("hits"):
                    latencies, replies = timed_hits(client, cold_specs, hits)
                check(
                    wrong_hits(replies, records),
                    hits,
                    f"round {index}: hits differ from their cold record",
                )
                round_wall.append(wall + sum(latencies))
                hit_latencies += latencies
        out["queue"] = client.queue()["counters"]
        if traced:
            pings = []
            for _ in range(hits):
                start = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - start)
            out["ping_rtt_ms"] = statistics.median(pings) * 1e3
            out["dispatch_wait_p50_s"] = _dispatch_wait_p50(
                client.events()["events"]
            )
        out["peak_rss_mb"] = server.peak_rss_mb()

    # Foreground reference: sampled cold specs re-run in this process
    # must give the stored record; their speed is the front door's
    # host time per simulated event with the service taken away.
    # One cell per workload, designs rotating: the same composition for
    # every seed, so the figure moves with the code and not the sample.
    sample = [w * 3 + w % 3 for w in range(6)][:sampled]
    best_wall: Dict[int, float] = {}
    hops = 0
    for _ in range(passes):
        for index in sample:
            spec = JobSpec.from_dict(cold_specs[index])
            runner = ExperimentRunner(
                jobs=1,
                seeds=1,
                warmup_cycles=spec.warmup_cycles,
                measure_cycles=spec.measure_cycles,
                base_seed=spec.base_seed,
            )
            with tracer.span(f"foreground-{index}", unit="foreground"):
                wall, stats = closed_loop_cell(
                    runner, spec.design, spec.workload
                )
            if index not in best_wall:
                hops += stats["flit_hops"]
                check(
                    stats["result"]
                    != records.get(spec.key(), {}).get("result"),
                    1,
                    f"foreground run of spec {index} differs from record",
                )
            best_wall[index] = min(wall, best_wall.get(index, wall))

    cells: Dict[Tuple[str, str], List[dict]] = {}
    for spec in cold_specs:
        record = records.get(JobSpec.from_dict(spec).key())
        if record is not None:
            cells.setdefault((spec["workload"], spec["design"]), []).append(
                record["result"]
            )
    out.update(
        spawn_s=spawn_s,
        round_wall_s=round_wall,
        jobs_per_s=jobs_per_s,
        submit_batches=submit_batches,
        # Batches of 200 keep ten samples beyond each batch's p95.
        hit_batches=[
            hit_latencies[i : i + 200]
            for i in range(0, len(hit_latencies), 200)
        ],
        foreground_wall_s=sum(best_wall.values()),
        foreground_flit_hops=hops,
        paper_err_pct=paper_err_pct(cells),
        sim_digest=content_key(
            sorted((key, rec["result"]) for key, rec in records.items())
        ),
        cold_specs=cold_specs,
        records=records,
    )
    return out


def _service_pass(
    store: ResultStore, specs: Sequence[dict], records: Dict[str, dict]
) -> float:
    """Key, decode + encode, put and get each spec's record once."""
    start = time.perf_counter()
    for spec_dict in specs:
        spec = JobSpec.from_dict(spec_dict)
        key = spec.key()
        result = serialize.result_from_dict(records[key]["result"])
        store.put(key, spec.kind, spec_dict, serialize.result_to_dict(result))
        store.get(key)
    return time.perf_counter() - start


def inprocess_service_layers(
    tracer, workdir: Path, specs: Sequence[dict], records: Dict[str, dict]
) -> Dict[str, float]:
    """The service's in-process building blocks, driven under the
    tracer's wrappers (``JobSpec.key``, ``ResultStore.put``/``get``,
    ``result_to_dict``/``result_from_dict``); the server itself is
    another process the wrappers cannot see."""
    store = ResultStore(workdir / "inprocess-store")
    untraced = min(_service_pass(store, specs, records) for _ in range(3))
    # run_seed_unit is timed directly: its work happens in a forked
    # child, from where no wrapper could report.
    supervised, inline = [], []
    for _ in range(3):
        start = time.perf_counter()
        outcome = workers.run_seed_unit(specs[0], 0)
        supervised.append(time.perf_counter() - start)
        if not outcome.ok:
            raise RuntimeError(f"seed unit failed: {outcome.error}")
        start = time.perf_counter()
        JobSpec.from_dict(specs[0]).run_seed(0)
        inline.append(time.perf_counter() - start)
    tracer.install()
    try:
        with tracer.span("service-inprocess", unit="service-inprocess"):
            traced = _service_pass(store, specs, records)
    finally:
        tracer.restore()

    def per_call(layer: str) -> float:
        return tracer.self_s(layer) / tracer.calls(layer)

    return {
        "service.canonical.key_us": per_call("service.canonical.key") * 1e6,
        # One round trip is a decode and an encode: two wrapped calls.
        "service.serialize.roundtrip_us": 2e6 * per_call("service.serialize"),
        "service.store.put_ms": per_call("service.store.put") * 1e3,
        "service.store.get_ms": per_call("service.store.get") * 1e3,
        "service.workers.unit_overhead_s": min(supervised) - min(inline),
        "ledger.trace_overhead_ratio": traced / untraced,
    }
