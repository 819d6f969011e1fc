"""The service CLI surfaces: serve/submit/status/result/queue, the
``--cache`` path on run/compare, and the ``config_hash``/``version``
fields in the ``--json`` outputs."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.service import JobSpec, ResultStore

FAST = [
    "--warmup", "100", "--measure", "300", "--seeds", "1",
]


def run_json(capsys, argv, expect_rc=0):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == expect_rc, captured.err
    return json.loads(captured.out), captured.err


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.jobs == 2 and args.queue_limit == 64
        assert args.drain is None and args.port is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.kind == "closed_loop" and args.priority == 0

    def test_cache_flags(self):
        args = build_parser().parse_args(["run", "--cache"])
        assert args.cache is True
        args = build_parser().parse_args(["run", "--no-cache"])
        assert args.cache is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cache", "--no-cache"])

    def test_status_requires_key(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["status"])

    @pytest.mark.parametrize(
        "flag", ["--heartbeat-timeout", "--seed-timeout"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_serve_timeouts_must_be_positive_and_finite(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number > 0" in (
            capsys.readouterr().err
        )


class TestRunJson:
    def test_run_json_carries_config_hash_and_version(self, capsys):
        payload, _ = run_json(
            capsys, ["run", "--design", "afc", "--json"] + FAST
        )
        spec = JobSpec(
            kind="closed_loop",
            workload="apache",
            warmup_cycles=100,
            measure_cycles=300,
            seeds=1,
        )
        assert payload["config_hash"] == spec.key()
        assert payload["version"] == __version__

    def test_compare_json_carries_hashes_and_version(self, capsys):
        payload, _ = run_json(capsys, ["compare", "--json"] + FAST)
        assert payload["version"] == __version__
        hashes = {
            entry["config_hash"]
            for entry in payload["designs"].values()
        }
        # Distinct designs hash to distinct keys.
        assert len(hashes) == len(payload["designs"])


class TestRunCache:
    def test_second_run_is_a_cache_hit_with_identical_payload(
        self, capsys, tmp_path
    ):
        argv = [
            "run", "--design", "afc", "--json",
            "--cache", "--store", str(tmp_path),
        ] + FAST
        first, err1 = run_json(capsys, argv)
        assert "cache: stored" in err1
        second, err2 = run_json(capsys, argv)
        assert "cache: hit" in err2
        assert second == first
        store = ResultStore(tmp_path)
        assert first["config_hash"] in store

    def test_cache_respects_engine_equivalence(self, capsys, tmp_path):
        base = ["run", "--json", "--cache", "--store", str(tmp_path)] + FAST
        first, err1 = run_json(capsys, base + ["--engine", "active"])
        assert "cache: stored" in err1
        second, err2 = run_json(capsys, base + ["--engine", "vector"])
        assert "cache: hit" in err2
        assert second == first

    def test_uncacheable_runs_bypass_the_store(self, capsys, tmp_path):
        argv = [
            "run", "--json", "--sanitize",
            "--cache", "--store", str(tmp_path),
        ] + FAST
        _, err = run_json(capsys, argv)
        assert "cache: bypassed" in err
        assert len(ResultStore(tmp_path)) == 0

    def test_no_cache_never_touches_the_store(self, capsys, tmp_path):
        argv = [
            "run", "--json", "--no-cache", "--store", str(tmp_path),
        ] + FAST
        _, err = run_json(capsys, argv)
        assert "cache:" not in err
        assert len(ResultStore(tmp_path)) == 0

    def test_compare_cache_round_trip(self, capsys, tmp_path):
        argv = [
            "compare", "--json", "--cache", "--store", str(tmp_path),
        ] + FAST
        first, _ = run_json(capsys, argv)
        second, err = run_json(capsys, argv)
        assert err.count("cache: hit") == len(first["designs"])
        assert second == first


class TestDrain:
    def test_drain_runs_a_batch_and_reports_counters(
        self, capsys, tmp_path
    ):
        jobs = tmp_path / "jobs.json"
        spec = {
            "kind": "open_loop",
            "rate": 0.2,
            "warmup_cycles": 100,
            "measure_cycles": 300,
            "seeds": 1,
        }
        jobs.write_text(json.dumps({"jobs": [spec, spec]}))
        payload, _ = run_json(
            capsys,
            [
                "serve", "--drain", str(jobs),
                "--store", str(tmp_path / "store"), "--jobs", "2",
            ],
        )
        assert len(payload["results"]) == 2
        assert payload["results"][0] == payload["results"][1]
        counters = payload["counters"]
        assert counters["jobs_completed"] == 1
        assert counters["deduped"] + counters["cache_hits"] == 1

    def test_drain_rejects_bad_files(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(ValueError):
            main(["serve", "--drain", str(empty),
                  "--store", str(tmp_path / "store")])

    def test_drain_reports_failed_jobs_with_exit_1(
        self, capsys, tmp_path, monkeypatch
    ):
        # An impossible workload sneaks past client-side validation by
        # sabotaging the seed executor instead.
        from repro.service import workers as workers_mod

        def explode(spec, index):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(workers_mod, "_execute_seed", explode)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{
            "kind": "open_loop",
            "rate": 0.2,
            "warmup_cycles": 100,
            "measure_cycles": 300,
            "seeds": 1,
        }]))
        payload, _ = run_json(
            capsys,
            ["serve", "--drain", str(jobs),
             "--store", str(tmp_path / "store")],
            expect_rc=1,
        )
        assert "error" in payload["results"][0]


class TestClientCommands:
    """End-to-end over a real unix socket: server in a thread, CLI
    client commands in the test process."""

    @pytest.fixture()
    def live_server(self, tmp_path):
        import threading

        from repro.service import (
            ExperimentService,
            ResultStore,
            ServiceServer,
        )

        sock = tmp_path / "serve.sock"
        started = threading.Event()
        holder = {}

        def serve():
            async def body():
                service = ExperimentService(
                    ResultStore(tmp_path / "store"), jobs=1
                )
                server = ServiceServer(service, socket_path=sock)
                await server.start()
                holder["server"] = server
                started.set()
                await server.serve_until_shutdown()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10), "server failed to start"
        yield sock
        thread.join(30)
        assert not thread.is_alive(), "server did not shut down"

    def test_submit_status_result_queue_shutdown(
        self, capsys, live_server
    ):
        sock = str(live_server)
        submitted, _ = run_json(
            capsys,
            [
                "submit", "--socket", sock,
                "--kind", "open_loop", "--rate", "0.2", "--wait",
            ] + FAST,
        )
        assert submitted["status"] == "done"
        key = submitted["key"]
        assert "result" in submitted["record"]

        status, _ = run_json(
            capsys, ["status", "--socket", sock, "--key", key]
        )
        assert status["state"] == "done"

        result, _ = run_json(
            capsys, ["result", "--socket", sock, "--key", key]
        )
        assert result["record"] == submitted["record"]

        snapshot, _ = run_json(
            capsys, ["queue", "--socket", sock, "--shutdown"]
        )
        assert snapshot["counters"]["jobs_completed"] == 1
        assert snapshot["shutdown"] is True

    def test_illegal_mesh_is_refused_before_it_takes_a_queue_slot(
        self, capsys, live_server
    ):
        from repro.service import ServiceClient, ServiceError

        sock = str(live_server)
        # The CLI refuses client-side, with the reason ...
        rc = main(["submit", "--socket", sock, "--width", "0"] + FAST)
        assert rc == 2
        assert "mesh must be at least 2x2" in capsys.readouterr().err
        # ... and so does the protocol's submit verb for any other client.
        with ServiceClient(socket_path=live_server) as client:
            with pytest.raises(ServiceError, match="at least 2x2"):
                client.submit({"kind": "open_loop", "rate": 0.2, "width": 1})
        snapshot, _ = run_json(
            capsys, ["queue", "--socket", sock, "--shutdown"]
        )
        assert snapshot["counters"]["submitted"] == 0

    def test_unreachable_service_fails_cleanly(self, capsys, tmp_path):
        rc = main(
            ["status", "--socket", str(tmp_path / "nope.sock"),
             "--key", "ab" * 32]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "cannot reach the service" in captured.err


class TestSubmitSpecBuilding:
    def test_inline_flags_build_a_valid_spec(self):
        from repro.cli import _spec

        args = build_parser().parse_args(
            ["submit", "--kind", "faulted", "--rate", "0.3",
             "--design", "backpressured"] + FAST
        )
        spec = _spec(args, args.kind)
        assert spec.kind == "faulted"
        assert spec.rate == 0.3
        assert spec.design.value == "backpressured"

    def test_spec_file_wins_over_flags(self, tmp_path):
        from repro.cli import _spec

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "open_loop", "rate": 0.4}))
        args = build_parser().parse_args(
            ["submit", "--spec", str(path), "--kind", "closed_loop"]
        )
        spec = _spec(args, args.kind)
        assert spec.kind == "open_loop" and spec.rate == 0.4
