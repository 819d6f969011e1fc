"""The service telemetry plane: lifecycle spans, the worker's beat
messages, the streaming ``watch``/``events`` verbs, and ``repro dash``.

Three layers, pinned separately:

* :class:`TelemetryLog` with an injected clock — deterministic
  timestamps, so the Chrome trace-event export is asserted span by
  span;
* the worker's beat loop (``publish_run`` → ``workers._beat`` →
  ``("beat", live_snapshot)`` on the pipe) against a fake network and
  a recording connection — no simulation needed to pin the message
  protocol — and once against a real run, whose fingerprint the side
  thread must not change;
* the full service: drain-mode lifecycle events + durable series +
  always-on status percentiles, then the streaming verbs end-to-end
  over a real unix socket (server thread, blocking client) — live
  progress of a running seed included — then the dashboard generator
  and its CLI.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import threading
import time

import pytest

from repro import Design, Network, NetworkConfig
from repro.analysis.fingerprint import fingerprint
from repro.harness.experiment import fork_context
from repro.network.flit import reset_packet_ids
from repro.obs.hub import Observability, ObservabilityOptions
from repro.obs.telemetry import (
    TelemetryLog,
    clear_run,
    live_snapshot,
    publish_run,
)
from repro.service import JobSpec, ResultStore, drain, workers
from repro.traffic.synthetic import uniform_random_traffic

FAST = dict(warmup_cycles=100, measure_cycles=300)
#: A seed long enough (~0.3 s) to be seen mid-run at 20 ms beats.
LONG = dict(
    width=4, height=4, rate=0.25, warmup_cycles=200, measure_cycles=2000
)

KEY = "ab" * 32  # a syntactically valid job key for store-level tests


def fast_spec(**overrides) -> JobSpec:
    base = dict(kind="open_loop", rate=0.2, seeds=2, **FAST)
    base.update(overrides)
    return JobSpec(**base)


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0  # non-zero origin: relative timestamps must hide it

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- TelemetryLog ----------------------------------------------------------


class TestTelemetryLog:
    def test_record_assigns_seq_and_relative_time(self):
        clock = FakeClock()
        log = TelemetryLog(clock=clock)
        first = log.record("submitted", key=KEY, outcome="queued")
        clock.advance(1.5)
        second = log.record("queued", key=KEY, depth=1)
        assert first["seq"] == 1 and first["t"] == 0.0
        assert second["seq"] == 2 and second["t"] == 1.5
        assert first["kind"] == "submitted"
        assert first["outcome"] == "queued"
        assert len(log) == 2

    def test_events_since_filters_by_seq(self):
        log = TelemetryLog(clock=FakeClock())
        for index in range(5):
            log.record("heartbeat", index=index)
        tail = log.events(since=3)
        assert [e["seq"] for e in tail] == [4, 5]
        assert log.events(since=5) == []
        assert len(log.events()) == 5

    def test_summary_counts_by_kind(self):
        log = TelemetryLog(clock=FakeClock())
        log.record("submitted")
        log.record("queued")
        log.record("heartbeat")
        log.record("heartbeat")
        assert log.summary() == {
            "submitted": 1, "queued": 1, "heartbeat": 2,
        }

    def test_records_are_thread_safe(self):
        log = TelemetryLog(clock=FakeClock())

        def hammer():
            for _ in range(200):
                log.record("heartbeat")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = log.events()
        assert len(events) == 800
        # seqs are a gapless 1..N despite the concurrent writers.
        assert [e["seq"] for e in events] == list(range(1, 801))

    def test_subscribers_receive_future_events(self):
        log = TelemetryLog(clock=FakeClock())
        log.record("submitted")  # before subscribing: not delivered

        async def body():
            queue = log.subscribe()
            log.record("queued", key=KEY)
            event = await asyncio.wait_for(queue.get(), 5)
            log.unsubscribe(queue)
            log.record("completed")  # after unsubscribe: not delivered
            return event, queue.qsize()

        event, backlog = asyncio.run(body())
        assert event["kind"] == "queued" and event["key"] == KEY
        assert backlog == 0


class TestChromeTrace:
    def lifecycle_log(self) -> TelemetryLog:
        """submitted → queued(1s) → run with one retried seed → done."""
        clock = FakeClock()
        log = TelemetryLog(clock=clock)
        log.record("submitted", key=KEY, job_kind="open_loop",
                   outcome="queued")
        log.record("queued", key=KEY, priority=0, depth=1)
        clock.advance(1.0)
        log.record("dispatched", key=KEY, seeds=1, recovered=0)
        clock.advance(0.1)
        log.record("seed-started", key=KEY, index=0, attempt=1, pid=41)
        clock.advance(0.4)
        log.record("heartbeat", key=KEY, index=0, pid=41, cycle=1200)
        clock.advance(0.5)
        log.record("retry", key=KEY, index=0, attempt=2, pid=42)
        log.record("seed-started", key=KEY, index=0, attempt=2, pid=42)
        clock.advance(1.0)
        log.record("seed-finished", key=KEY, index=0, status="ok",
                   attempts=2)
        clock.advance(0.2)
        log.record("completed", key=KEY, seeds=1)
        return log

    def test_job_spans_cover_queued_and_running(self):
        trace = self.lifecycle_log().chrome_trace()["traceEvents"]
        spans = {
            e["name"]: e for e in trace if e.get("ph") == "X"
            and e["pid"] == 0
        }
        queued = spans["queued"]
        assert queued["ts"] == 0 and queued["dur"] == 1_000_000
        completed = spans["completed"]
        assert completed["ts"] == 1_000_000
        assert completed["dur"] == 2_200_000
        assert completed["args"]["key"] == KEY

    def test_seed_attempts_become_worker_spans(self):
        trace = self.lifecycle_log().chrome_trace()["traceEvents"]
        attempts = [
            e for e in trace if e.get("ph") == "X" and e["pid"] == 1
        ]
        assert [e["name"] for e in attempts] == [
            "seed 0 attempt 1", "seed 0 attempt 2",
        ]
        first, second = attempts
        # Attempt 1 is closed ("superseded") where attempt 2 begins.
        assert first["args"]["status"] == "superseded"
        assert first["ts"] + first["dur"] == second["ts"]
        assert second["args"]["status"] == "ok"
        instants = {
            e["name"] for e in trace if e.get("ph") == "i"
        }
        assert {"submitted", "retry", "heartbeat"} <= instants
        beat = next(e for e in trace if e["name"] == "heartbeat")
        assert beat["args"] == {"key": KEY, "cycle": 1200}

    def test_process_metadata_names_both_lanes(self):
        trace = self.lifecycle_log().chrome_trace()["traceEvents"]
        names = {
            e["args"]["name"] for e in trace
            if e.get("name") == "process_name"
        }
        assert names == {"service jobs", "seed workers"}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        out = tmp_path / "telemetry.trace.json"
        self.lifecycle_log().write_chrome_trace(out)
        data = json.loads(out.read_text())
        assert data["traceEvents"]


# -- the worker's beat loop ------------------------------------------------


class FakeStats:
    throughput = 0.25
    avg_packet_latency = 20.0
    p50_packet_latency = 18.0
    p95_packet_latency = 40.0
    p99_packet_latency = 55.0
    packets_completed = 123
    flits_ejected = 615


class FakeNet:
    cycle = 4567
    stats = FakeStats()


class FakeRegistry:
    def to_dict(self) -> dict:
        return {"counters": {"x": 1}}


class RecordingConn:
    """Stands in for the worker's end of the pipe."""

    def __init__(self) -> None:
        self.sent = []

    def send(self, message) -> None:
        self.sent.append(message)


@contextlib.contextmanager
def beating(monkeypatch, interval):
    """Run the worker's beat loop on a side thread; yields the list of
    messages it has sent so far, and stops it the way a worker does
    before its verdict."""
    monkeypatch.setattr(workers, "BEAT_INTERVAL", interval)
    conn = RecordingConn()
    lock, stop = threading.Lock(), threading.Event()
    thread = threading.Thread(
        target=workers._beat, args=(conn, lock, stop)
    )
    thread.start()
    try:
        yield conn.sent
    finally:
        with lock:
            stop.set()
        thread.join(10)
        assert not thread.is_alive(), "the beat loop did not stop"


def wait_for_beat(sent) -> None:
    deadline = time.monotonic() + 10
    while not sent and time.monotonic() < deadline:
        time.sleep(0.005)
    assert sent, "the beat loop sent nothing"


class TestLiveRelay:
    def teardown_method(self):
        clear_run()

    def test_live_snapshot_reads_the_monotone_accumulators(self):
        snap = live_snapshot(FakeNet())
        assert snap["cycle"] == 4567
        assert snap["p99_packet_latency"] == 55.0
        assert "metrics" not in snap
        snap = live_snapshot(FakeNet(), FakeRegistry())
        assert snap["metrics"] == {"counters": {"x": 1}}

    def test_beat_without_a_published_run_carries_no_snapshot(
        self, monkeypatch
    ):
        clear_run()
        with beating(monkeypatch, 0.005) as sent:
            wait_for_beat(sent)
        assert set(sent) == {("beat", None)}

    def test_beat_carries_the_published_snapshot(self, monkeypatch):
        publish_run(FakeNet(), FakeRegistry())
        with beating(monkeypatch, 0.005) as sent:
            wait_for_beat(sent)
        assert sent[0] == ("beat", live_snapshot(FakeNet(), FakeRegistry()))

    def test_the_verdict_is_the_last_message(self, monkeypatch):
        """Beats run while the seed does; the verdict ends the pipe."""
        monkeypatch.setattr(workers, "BEAT_INTERVAL", 0.005)

        def slow_seed(spec, index):
            time.sleep(0.1)
            return {"seed_index": index}

        monkeypatch.setattr(workers, "_execute_seed", slow_seed)
        receiver, sender = multiprocessing.Pipe(duplex=False)
        spec = JobSpec(kind="open_loop", rate=0.2, seeds=1, **FAST)
        workers._seed_worker_main(sender, spec.to_dict(), 0)
        messages = []
        with pytest.raises(EOFError):  # the worker closed its end
            while True:
                messages.append(receiver.recv())
        assert messages[-1] == ("ok", {"seed_index": 0})
        beats = messages[:-1]
        assert beats and set(beats) == {("beat", None)}

    def test_streamed_real_run_is_bit_identical(self, monkeypatch):
        """The beat loop reads a *running* simulation from a side
        thread: a 4x4 AFC run snapshotted every 20 ms, metrics
        registry included, finishes with the plain run's
        fingerprint."""

        def run(streamed):
            reset_packet_ids()
            net = Network(
                NetworkConfig(width=4, height=4), Design.AFC, seed=11
            )
            source = uniform_random_traffic(
                net, 0.3, seed=5, source_queue_limit=300
            )
            if not streamed:
                source.run(1_500)
                net.drain()
                return fingerprint(net, source)
            observer = Observability(
                net, ObservabilityOptions(metrics=True)
            ).attach()
            publish_run(net, observer.registry)
            with beating(monkeypatch, 0.02) as sent:
                source.run(1_500)
                net.drain()
            observer.detach()
            clear_run()
            snaps = [snap for _, snap in sent if snap is not None]
            assert len(snaps) >= 2, "the run must be seen mid-flight"
            cycles = [snap["cycle"] for snap in snaps]
            assert cycles == sorted(cycles) and cycles[-1] <= net.cycle
            assert all("metrics" in snap for snap in snaps)
            return fingerprint(net, source)

        assert run(streamed=True) == run(streamed=False)


class TestStoreLiveAndSeries:
    def test_store_keeps_no_live_area(self, tmp_path):
        """Live progress travels on the worker's pipe and is held in
        memory; the store keeps only durable data."""
        ResultStore(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "objects", "partials", "series",
        ]

    def test_series_appends_and_drops_the_torn_tail(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append_series(KEY, {"event": "dispatched", "done": 0})
        store.append_series(KEY, {"event": "seed", "done": 1})
        # A crash mid-append leaves a torn final line.
        path = tmp_path / "series" / f"{KEY}.jsonl"
        with open(path, "a") as handle:
            handle.write('{"event": "comp')
        rows = store.series(KEY)
        assert [r["event"] for r in rows] == ["dispatched", "seed"]
        assert store.series_keys() == [KEY]
        assert store.series("ff" * 32) == []


# -- service lifecycle (forked workers) ------------------------------------

fork_only = pytest.mark.skipif(
    fork_context() is None,
    reason="service workers need the fork start method",
)


@fork_only
class TestServiceLifecycle:
    def drained(self, tmp_path, spec):
        from repro.service import ExperimentService

        store = ResultStore(tmp_path)
        service = ExperimentService(store, jobs=2)
        results, counters = asyncio.run(drain(service, [spec]))
        return store, service, results, counters

    def test_drain_records_the_full_lifecycle(self, tmp_path):
        spec = fast_spec()
        store, service, results, _ = self.drained(tmp_path, spec)
        summary = service.telemetry.summary()
        assert summary["submitted"] == 1
        assert summary["queued"] == 1
        assert summary["dispatched"] == 1
        assert summary["seed-started"] == spec.seeds
        assert summary["seed-finished"] == spec.seeds
        assert summary["completed"] == 1
        assert "failed" not in summary

        trace = service.telemetry.chrome_trace()["traceEvents"]
        span_names = [e["name"] for e in trace if e.get("ph") == "X"]
        assert "queued" in span_names and "completed" in span_names
        assert any(n.startswith("seed ") for n in span_names)

    def test_series_rows_survive_with_final_progress(self, tmp_path):
        spec = fast_spec()
        store, service, results, _ = self.drained(tmp_path, spec)
        key = spec.key()
        rows = store.series(key)
        events = [r["event"] for r in rows]
        assert events[0] == "dispatched"
        assert events[-1] == "completed"
        assert events.count("seed") == spec.seeds
        assert rows[-1]["done"] == spec.seeds
        assert rows[-1]["total"] == spec.seeds
        # The completed row carries the aggregate's percentiles...
        assert rows[-1]["p99_packet_latency"] == pytest.approx(
            results[0]["result"]["p99_packet_latency"]
        )
        # ...and no live snapshot outlives the job.
        assert service._states[key].live == {}
        assert "live" not in service.status(key)

    def test_status_carries_progress_and_percentiles(self, tmp_path):
        from repro.service import ExperimentService

        spec = fast_spec()
        store, service, results, _ = self.drained(tmp_path, spec)
        key = spec.key()
        result = results[0]["result"]

        live = service.status(key)
        assert live["progress"] == {"done": 2, "total": 2}
        assert live["p50_packet_latency"] == result["p50_packet_latency"]

        # A fresh service knows the job only through the store.
        cold = ExperimentService(store, jobs=1).status(key)
        assert cold["state"] == "done" and cold["cached"] is True
        assert cold["progress"] == {"done": 2, "total": 2}
        assert cold["p99_packet_latency"] == result["p99_packet_latency"]

    def test_watch_snapshot_of_unknown_key_is_terminal(self, tmp_path):
        from repro.service import ExperimentService

        service = ExperimentService(ResultStore(tmp_path), jobs=1)
        snap = service.watch_snapshot("ee" * 32)
        assert snap["status"]["state"] == "unknown"
        assert "live" not in snap
        assert snap["gauges"]["queue_depth"] == 0


# -- streaming verbs over a real socket ------------------------------------


@fork_only
class TestStreamingVerbs:
    @pytest.fixture()
    def live_server(self, tmp_path):
        from repro.service import (
            ExperimentService,
            ResultStore,
            ServiceServer,
        )

        sock = tmp_path / "serve.sock"
        started = threading.Event()

        def serve():
            async def body():
                service = ExperimentService(
                    ResultStore(tmp_path / "store"), jobs=1
                )
                server = ServiceServer(service, socket_path=sock)
                await server.start()
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10), "server failed to start"
        yield sock
        from repro.service import ServiceClient, ServiceError

        try:
            with ServiceClient(socket_path=sock) as client:
                client.shutdown()
        except (ServiceError, OSError):
            pass  # a test already shut it down
        thread.join(30)
        assert not thread.is_alive(), "server did not shut down"

    def test_watch_streams_until_the_job_completes(self, live_server):
        from repro.service import ServiceClient

        spec = fast_spec(seeds=1)
        with ServiceClient(socket_path=live_server) as client:
            submitted = client.submit(spec.to_dict())
            key = submitted["key"]
            frames = list(client.watch(key, interval=0.05))
        assert frames, "the stream must deliver at least one frame"
        assert all("snapshot" in f for f in frames)
        last = frames[-1]
        assert last["done"] is True
        status = last["snapshot"]["status"]
        assert status["state"] == "done"
        assert status["progress"] == {"done": 1, "total": 1}
        assert isinstance(
            status["p99_packet_latency"], float
        ), "the always-on percentiles ride every terminal frame"
        assert "gauges" in last["snapshot"]
        # Non-terminal frames are not marked done.
        assert all(f["done"] is False for f in frames[:-1])

    def test_watch_sees_a_running_seed_before_it_checkpoints(
        self, live_server, monkeypatch
    ):
        """Forked workers inherit the patched beat interval: a running
        seed's heartbeat snapshot reaches ``status`` — and so every
        ``watch`` frame — before the seed checkpoints."""
        from repro.service import ServiceClient

        monkeypatch.setattr(workers, "BEAT_INTERVAL", 0.02)
        spec = fast_spec(seeds=1, **LONG)
        with ServiceClient(socket_path=live_server) as client:
            key = client.submit(spec.to_dict())["key"]
            frames = list(client.watch(key, interval=0.02))
        assert frames[-1]["done"] is True
        assert set(frames[-1]["snapshot"]) == {
            "key", "t", "status", "gauges",
        }, "one view: no top-level live or metrics copies"
        running = [
            f["snapshot"]["status"] for f in frames
            if f["snapshot"]["status"].get("live")
        ]
        assert running, "no frame saw the running seed"
        status = running[0]
        assert status["state"] == "running"
        assert status["progress"]["done"] == 0
        assert status["live"]["0"]["cycle"] > 0
        for name in (
            "p50_packet_latency", "p95_packet_latency",
            "p99_packet_latency",
        ):
            assert isinstance(status[name], float)
        assert "metrics" not in status  # not a metrics job

    def test_status_merges_a_running_metrics_seed(
        self, live_server, monkeypatch
    ):
        """With no seed checkpointed yet, a metrics job's ``status``
        already carries the registry merged from the live seed."""
        from repro.service import ServiceClient

        monkeypatch.setattr(workers, "BEAT_INTERVAL", 0.02)
        spec = fast_spec(seeds=1, metrics=True, **LONG)
        with ServiceClient(socket_path=live_server) as client:
            key = client.submit(spec.to_dict())["key"]
            deadline = time.monotonic() + 60
            status = client.status(key)
            while not status.get("live") and time.monotonic() < deadline:
                if status["state"] not in ("queued", "running"):
                    break
                time.sleep(0.01)
                status = client.status(key)
            done = client.result(key, wait=True, timeout=60)
        assert done["status"] == "done"
        assert status.get("live"), status
        assert status["progress"]["done"] == 0
        assert "metrics" not in status["live"]["0"]
        counters = status["metrics"]["counters"]
        assert counters and sum(counters.values()) > 0

    def test_watch_max_snapshots_truncates(self, live_server):
        from repro.service import ServiceClient

        with ServiceClient(socket_path=live_server) as client:
            frames = list(
                client.watch("dd" * 32, interval=0.05, max_snapshots=1)
            )
        # Unknown key: the single frame is terminal already.
        assert len(frames) == 1
        assert frames[0]["done"] is True
        assert frames[0]["snapshot"]["status"]["state"] == "unknown"

    def test_events_backlog_and_follow(self, live_server):
        from repro.service import ServiceClient

        spec = fast_spec(seeds=1)
        with ServiceClient(socket_path=live_server) as client:
            submitted = client.submit(spec.to_dict())
            done = client.result(submitted["key"], wait=True, timeout=60)
            assert done["status"] == "done"

            backlog = client.events()
            kinds = [e["kind"] for e in backlog["events"]]
            assert "submitted" in kinds and "completed" in kinds
            assert backlog["last_seq"] == backlog["events"][-1]["seq"]

            # since= resumes exactly after the last seen event.
            tail = client.events(since=backlog["last_seq"])
            assert tail["events"] == []

            # follow replays the backlog live, bounded by max_events.
            frames = list(client.events(follow=True, max_events=3))
            assert len(frames) == 3
            assert [f["event"]["seq"] for f in frames] == [1, 2, 3]
            assert frames[-1]["done"] is True

    def test_connection_survives_a_stream(self, live_server):
        """A watch is not the end of the connection: the same socket
        answers plain requests afterwards."""
        from repro.service import ServiceClient

        with ServiceClient(socket_path=live_server) as client:
            list(client.watch("dd" * 32, interval=0.05))
            assert client.ping()["pong"] is True

    def test_watch_cli_streams_json_frames(self, capsys, live_server):
        from repro.cli import main

        spec = fast_spec(seeds=1)
        from repro.service import ServiceClient

        with ServiceClient(socket_path=live_server) as client:
            key = client.submit(spec.to_dict())["key"]
        rc = main([
            "watch", "--socket", str(live_server),
            "--key", key, "--interval", "0.05", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        lines = [
            json.loads(line)
            for line in captured.out.splitlines() if line
        ]
        assert lines
        assert lines[-1]["status"]["state"] == "done"

    def test_watch_cli_unknown_key_exits_nonzero(
        self, capsys, live_server
    ):
        from repro.cli import main

        rc = main([
            "watch", "--socket", str(live_server),
            "--key", "dd" * 32, "--interval", "0.05",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "state=unknown" in captured.out


# -- dashboard -------------------------------------------------------------


DUTY_TABLE = """\
workload      | backpressured | backpressureless | fwd switches | gossip
--------------+---------------+------------------+--------------+-------
apache        | 0.991         | 0.009            | 2.0          | 12.0
web_uniform   | 0.184         | 0.816            | 5.0          | 40.0
"""


def seeded_store(tmp_path) -> ResultStore:
    store = ResultStore(tmp_path)
    store.put(
        KEY,
        "open_loop",
        {"kind": "open_loop", "rate": 0.2, "seeds": 2,
         "design": "afc"},
        {"kind": "open_loop", "throughput": 0.21,
         "avg_packet_latency": 24.5, "p50_packet_latency": 21.0,
         "p95_packet_latency": 48.0, "p99_packet_latency": 66.0},
    )
    store.append_series(KEY, {"event": "dispatched", "t": 0.0,
                              "done": 0, "total": 2})
    store.append_series(KEY, {"event": "completed", "t": 2.5,
                              "done": 2, "total": 2})
    return store


class TestDashboard:
    def test_parse_duty_cycle_table(self):
        from repro.obs.dashboard import _parse_duty_cycle

        duty = _parse_duty_cycle(DUTY_TABLE)
        assert duty["columns"] == [
            "backpressured", "backpressureless", "fwd switches",
            "gossip",
        ]
        assert duty["rows"][0]["workload"] == "apache"
        assert duty["rows"][0]["backpressured"] == 0.991
        assert duty["rows"][1]["gossip"] == 40.0

    def test_parse_duty_cycle_rejects_empty_text(self):
        from repro.obs.dashboard import _parse_duty_cycle

        assert _parse_duty_cycle("no table here") is None

    def test_collect_payload_folds_every_source(self, tmp_path):
        from repro.obs.dashboard import collect_payload

        store = seeded_store(tmp_path / "store")
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "mode_duty_cycle.txt").write_text(DUTY_TABLE)
        payload = collect_payload(
            store=store,
            bench_dir=bench,
            counters={"jobs_completed": 1},
            telemetry_summary={"submitted": 1},
        )
        job = payload["jobs"][0]
        assert job["key"] == KEY
        assert job["summary"]["p99_packet_latency"] == 66.0
        assert [r["event"] for r in job["series"]] == [
            "dispatched", "completed",
        ]
        assert payload["duty_cycle"]["rows"]
        assert payload["counters"]["jobs_completed"] == 1
        assert sorted(payload) == [
            "counters", "duty_cycle", "jobs", "telemetry_summary", "version",
        ]

    def test_rendered_dashboard_is_self_contained(self, tmp_path):
        from repro.obs.dashboard import build_dashboard

        seeded_store(tmp_path / "store")
        page = build_dashboard(store_path=tmp_path / "store")
        assert 'id="payload"' in page
        # No external assets of any kind.
        assert "src=" not in page
        assert "href=" not in page
        assert "http://" not in page.replace(
            "http://www.w3.org/2000/svg", ""
        )
        assert "https://" not in page
        # The embedded payload survives the </-escaping round trip.
        blob = page.split('id="payload">', 1)[1].split("</script>", 1)[0]
        payload = json.loads(blob.replace("<\\/", "</"))
        assert payload["jobs"][0]["key"] == KEY

    def test_payload_cannot_break_out_of_the_script_tag(self):
        from repro.obs.dashboard import render_dashboard

        page = render_dashboard(
            {"version": 1,
             "jobs": [{"key": "</script><script>alert(1)",
                       "summary": {}, "series": []}]}
        )
        # The hostile string must not appear unescaped.
        assert "</script><script>alert(1)" not in page

    def test_dash_cli_writes_the_file(self, capsys, tmp_path):
        from repro.cli import main

        seeded_store(tmp_path / "store")
        drain_out = tmp_path / "drain.json"
        drain_out.write_text(json.dumps({
            "counters": {"jobs_completed": 1},
            "telemetry_summary": {"submitted": 1, "completed": 1},
        }))
        out = tmp_path / "dash.html"
        rc = main([
            "dash", "--store", str(tmp_path / "store"),
            "--drain-json", str(drain_out), "--out", str(out),
            "--title", "smoke",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "self-contained" in captured.err
        page = out.read_text()
        assert "<title>smoke</title>" in page
        blob = page.split('id="payload">', 1)[1].split("</script>", 1)[0]
        payload = json.loads(blob.replace("<\\/", "</"))
        assert payload["telemetry_summary"]["completed"] == 1
