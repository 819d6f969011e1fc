"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.faults import FaultSpec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "nonsense"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nonsense"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.design.value == "afc"
        assert args.workload.name == "apache"
        assert args.seeds == 1

    @pytest.mark.parametrize("rate", ["-0.1", "0", "1.5", "nan"])
    def test_invalid_sweep_rates_rejected(self, rate):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--rates", rate])

    def test_unknown_sweep_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--designs", "token-ring"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--rate", "0"],
            ["faults", "--rate", "2"],
            ["faults", "--flap-rate", "-1"],
            ["faults", "--flap-duration", "0"],
            ["faults", "--bit-error-rate", "-0.5"],
            ["faults", "--credit-loss-rate", "-2"],
            ["faults", "--credit-loss-burst", "0"],
            ["faults", "--link-kills", "-1"],
            ["faults", "--router-kills", "-3"],
            ["faults", "--max-retries", "-1"],
            ["faults", "--ack-timeout", "0"],
            ["faults", "--designs", "nonsense"],
            ["faults", "--flap-rate", "inf"],
            ["faults", "--flap-rate", "nan"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_invalid_fault_arguments_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            # Each used to parse, then exit 1 with a traceback.
            ["trace", "--width", "1"],
            ["faults", "--flap-rate", "inf"],
            ["faults", "--flap-rate", "nan"],
            ["trace", "--hotspot-fraction", "5"],
            ["derive-thresholds", "--hysteresis", "5"],
            ["derive-thresholds", "--rate", "nan"],
        ],
        ids=" ".join,
    )
    def test_out_of_domain_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "sweep", "faults"])
    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--warmup", "-5", "must be >= 0, got -5"),
            ("--measure", "0", "must be > 0, got 0"),
            ("--seeds", "0", "must be > 0, got 0"),
            ("--jobs", "0", "must be > 0, got 0"),
            ("--width", "1", "mesh must be at least 2x2, got 1"),
            ("--height", "0", "mesh must be at least 2x2, got 0"),
        ],
    )
    def test_common_counts_checked_at_parse_time(
        self, command, flag, value, reason, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {reason}" in capsys.readouterr().err

    def test_main_returns_the_usage_error_status(self, capsys):
        assert main(["submit", "--seeds", "0"]) == 2
        assert "argument --seeds: must be > 0" in capsys.readouterr().err
        assert main(["run", "--help"]) == 0

    def test_smallest_legal_counts_parse(self):
        args = build_parser().parse_args(
            ["run", "--warmup", "0", "--measure", "1", "--seeds", "1",
             "--jobs", "1", "--width", "2", "--height", "2"]
        )
        assert (args.warmup, args.measure, args.width, args.height) == (
            0, 1, 2, 2
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # the reference loop is a test oracle, not a user engine
            ["run", "--engine", "naive"],
            # nothing runs client-side for --jobs to parallelise
            ["submit", "--jobs", "2"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flags_no_command_honours_are_not_registered(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_fault_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.rate == 0.25
        assert args.flap_rate == 4.0
        assert args.max_retries == 4
        assert not args.no_protection
        assert not args.json


class TestCommands:
    """Tiny cycle counts: these verify wiring, not physics."""

    FAST = ["--warmup", "300", "--measure", "800", "--seeds", "1"]

    def test_run(self, capsys):
        code = main(
            ["run", "--design", "afc", "--workload", "water"] + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "performance" in out
        assert "backpressured fraction" in out

    def test_compare(self, capsys):
        code = main(["compare", "--workload", "water"] + self.FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "geomean" in out
        assert "afc" in out

    def test_sweep(self, capsys):
        code = main(["sweep", "--rates", "0.2"] + self.FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "0.20" in out
        assert "backpressureless" in out

    def test_sweep_custom_designs(self, capsys):
        code = main(
            ["sweep", "--rates", "0.2", "--designs", "backpressured"]
            + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backpressureless" not in out

    def test_sweep_honours_base_seed(self, capsys):
        """``--base-seed`` used to parse and then be dropped: every
        sweep ran seeds 0..n-1."""
        from repro import Design
        from repro.harness import ExperimentRunner

        def sweep(base_seed):
            argv = [
                "sweep", "--rates", "0.3", "--designs", "backpressureless",
                "--base-seed", str(base_seed),
            ]
            assert main(argv + self.FAST) == 0
            return capsys.readouterr().out

        direct = ExperimentRunner(
            warmup_cycles=300, measure_cycles=800, seeds=1, base_seed=7
        ).run_open_loop(
            Design.BACKPRESSURELESS, 0.3, source_queue_limit=500
        )
        cell = f"{direct.throughput:.3f} / {direct.avg_network_latency:6.1f}"
        assert cell in sweep(7)
        assert cell not in sweep(0)

    def test_sweep_is_the_same_at_any_jobs_and_engine(self, capsys):
        """Every seed of every cell fans out over the workers; the table
        is still the serial one, and the engine changes nothing."""

        def sweep(*extra):
            argv = ["sweep", "--rates", "0.2", "0.4"] + self.FAST
            assert main(argv + ["--seeds", "2", *extra]) == 0
            return capsys.readouterr().out

        serial = sweep()
        assert sweep("--jobs", "2") == serial
        assert sweep("--engine", "vector") == serial

    def test_derive_thresholds(self, capsys):
        code = main(
            ["derive-thresholds", "--rate", "0.5"] + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "corner" in out
        assert "center" in out

    def test_faults_table_and_check(self, capsys):
        code = main(
            [
                "faults",
                "--flap-rate", "4",
                "--bit-error-rate", "2",
                "--credit-loss-rate", "2",
                "--check",
            ]
            + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault resilience" in out
        assert "delivered pkts" in out
        for design in ("backpressured", "backpressureless", "afc"):
            assert design in out

    def test_faults_single_design_no_protection(self, capsys):
        code = main(
            [
                "faults",
                "--designs", "backpressureless",
                "--bit-error-rate", "3",
                "--no-protection",
            ]
            + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backpressureless" in out
        assert "backpressured " not in out


class TestJsonOutput:
    """``--json`` emits the full stats dict, round-trippable."""

    FAST = ["--warmup", "300", "--measure", "800", "--seeds", "1"]

    def test_run_json_round_trip(self, capsys):
        code = main(["run", "--workload", "water", "--json"] + self.FAST)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "afc"
        assert payload["workload"] == "water"
        assert payload["performance"] > 0
        assert payload["seeds"] == 1
        assert payload["kind"] == "closed_loop"

    def test_compare_json_round_trip(self, capsys):
        code = main(["compare", "--workload", "water", "--json"] + self.FAST)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "water"
        assert set(payload["designs"]) >= {"backpressured", "afc"}
        for stats in payload["designs"].values():
            assert stats["performance"] > 0

    def test_faults_json_round_trip(self, capsys):
        code = main(
            [
                "faults",
                "--flap-rate", "4",
                "--bit-error-rate", "2",
                "--json",
                "--check",
            ]
            + self.FAST
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["link_flap_rate"] == 4.0
        designs = payload["designs"]
        assert set(designs) == {"backpressured", "backpressureless", "afc"}
        for stats in designs.values():
            assert stats["delivered_packet_rate"] > 0.9
            assert stats["design"] in designs
            assert stats["kind"] == "faulted"
        # One result shape, one key: the store's codec reads it back.
        from repro.service import JobSpec, result_from_dict

        afc = dict(designs["afc"])
        assert afc.pop("config_hash") == JobSpec(
            kind="faulted",
            rate=0.25,
            warmup_cycles=300,
            measure_cycles=800,
            fault=FaultSpec(**payload["spec"]),
        ).key()
        assert result_from_dict(afc).delivered_packet_rate > 0.9


class TestObservabilityFlags:
    """--trace / --metrics / --profile-sim / --probe-every wiring and
    the ``trace`` subcommand (docs/OBSERVABILITY.md)."""

    FAST = ["--warmup", "200", "--measure", "500", "--seeds", "1"]

    def test_run_with_metrics_and_profile(self, capsys):
        code = main(
            ["run", "--workload", "water", "--metrics", "--profile-sim"]
            + self.FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "noc_flits_dispatched_total{router=0}" in out
        assert "noc_packet_latency_cycles" in out
        assert "pipeline profile" in out
        assert "hottest router" in out

    def test_run_trace_and_probe_write_files(self, tmp_path, capsys):
        trace_out = tmp_path / "t.json"
        probe_out = tmp_path / "p.json"
        code = main(
            [
                "run", "--workload", "water",
                "--trace", "--trace-out", str(trace_out),
                "--probe-every", "100", "--probe-out", str(probe_out),
            ]
            + self.FAST
        )
        assert code == 0
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} >= {"M", "X", "i"}
        probe = json.loads(probe_out.read_text())
        assert probe["every"] == 100
        assert len(probe["cycles"]) >= 3

    def test_run_json_includes_percentiles_and_metrics(self, capsys):
        code = main(
            ["run", "--workload", "water", "--metrics", "--json"] + self.FAST
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p50_packet_latency"] > 0
        assert (
            payload["p50_packet_latency"]
            <= payload["p95_packet_latency"]
            <= payload["p99_packet_latency"]
        )
        counters = payload["observability"]["metrics"]["counters"]
        assert counters["noc_flits_ejected_total{router=0}"] > 0
        # The bulky raw trace never rides along in --json output.
        assert "trace" not in payload["observability"]

    def test_compare_trace_writes_per_design_files(self, tmp_path, capsys):
        trace_out = tmp_path / "t.json"
        code = main(
            [
                "compare", "--workload", "water",
                "--trace", "--trace-out", str(trace_out),
            ]
            + self.FAST
        )
        assert code == 0
        assert (tmp_path / "t-afc.json").exists()
        assert (tmp_path / "t-backpressured.json").exists()

    def test_trace_subcommand_hits_the_gossip_scenario(self, tmp_path, capsys):
        out = tmp_path / "hotspot.json"
        code = main(["trace", "--out", str(out), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["forward_switches"] >= 1
        assert summary["gossip_switches"] >= 1
        assert payload["most_deflected"]
        pid, count = payload["most_deflected"][0]
        assert count >= 1
        path = payload["hop_paths"][str(pid)]
        assert any(
            row["event"] == "dispatch" and row["deflected"] for row in path
        )
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        names = {e["name"] for e in document["traceEvents"]}
        assert "gossip switch" in names

    def test_trace_subcommand_table_mode(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(
            [
                "trace", "--pattern", "uniform", "--rate", "0.2",
                "--cycles", "400", "--out", str(out),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "gossip_switches" in output
        assert "ui.perfetto.dev" in output
        assert out.exists()
