"""Tests for the experiment harness and reporting."""

import dataclasses
import typing

import pytest

from repro import Design, EnergyBreakdown, NetworkConfig
from repro.faults import FaultSpec
from repro.harness import (
    ENERGY_DESIGNS_LOW_LOAD,
    MAIN_DESIGNS,
    ExperimentRunner,
    format_breakdown_table,
    format_normalized_table,
    format_table,
    geometric_mean,
)
from repro.harness.experiment import KINDS
from repro.traffic.patterns import UniformRandom
from repro.traffic.synthetic import PacketMix
from repro.traffic.workloads import WORKLOADS


class TestGeometricMean:
    def test_of_equal_values(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", "1"], ["longer", "22"]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_normalized_table_baseline_is_one(self):
        values = {
            "wl": {
                Design.BACKPRESSURED: 10.0,
                Design.AFC: 9.0,
            }
        }
        out = format_normalized_table(
            "perf", values, [Design.BACKPRESSURED, Design.AFC]
        )
        assert "1.000" in out
        assert "0.900" in out
        assert "geomean" in out

    def test_normalized_table_rejects_zero_baseline(self):
        values = {"wl": {Design.BACKPRESSURED: 0.0, Design.AFC: 1.0}}
        with pytest.raises(ValueError):
            format_normalized_table(
                "perf", values, [Design.BACKPRESSURED, Design.AFC]
            )

    def test_breakdown_table_normalizes_to_baseline_total(self):
        values = {
            "wl": {
                Design.BACKPRESSURED: EnergyBreakdown(
                    buffer_dynamic=2, link=5, crossbar=3
                ),
                Design.BACKPRESSURELESS: EnergyBreakdown(link=8, crossbar=2),
            }
        }
        out = format_breakdown_table(
            "wl" and values,
            [Design.BACKPRESSURED, Design.BACKPRESSURELESS],
        )
        assert "0.200" in out  # buffer share of baseline
        assert "1.000" in out  # baseline total


class TestDesignLists:
    def test_main_designs_order(self):
        assert MAIN_DESIGNS[0] is Design.BACKPRESSURED
        assert Design.AFC in MAIN_DESIGNS
        assert len(MAIN_DESIGNS) == 4

    def test_low_load_energy_adds_ideal_bypass(self):
        assert Design.BACKPRESSURED_IDEAL_BYPASS in ENERGY_DESIGNS_LOW_LOAD
        assert len(ENERGY_DESIGNS_LOW_LOAD) == 5


COUNT_ERRORS = [
    ("seeds", 0, "seeds must be >= 1, got 0"),
    ("warmup_cycles", -5, "warmup_cycles must be >= 0, got -5"),
    ("measure_cycles", 0, "measure_cycles must be >= 1, got 0"),
]


class TestCountChecks:
    @pytest.mark.parametrize(
        "field, value, message",
        COUNT_ERRORS + [("jobs", 0, "jobs must be >= 1, got 0")],
    )
    def test_runner_names_the_bad_count(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentRunner(**{field: value})

    @pytest.mark.parametrize("field, value, message", COUNT_ERRORS)
    def test_job_spec_names_the_bad_count(self, field, value, message):
        from repro.service.jobs import JobSpec

        with pytest.raises(ValueError, match=message):
            JobSpec(**{field: value})

    def test_smallest_legal_counts_accepted(self):
        runner = ExperimentRunner(
            warmup_cycles=0, measure_cycles=1, seeds=1, jobs=1
        )
        assert (runner.seeds, runner.jobs) == (1, 1)


class TestExperimentRunner:
    """Small-but-real runs; keep cycle counts low for test speed."""

    RUNNER = ExperimentRunner(
        warmup_cycles=400, measure_cycles=1200, seeds=1
    )

    def test_closed_loop_smoke(self):
        result = self.RUNNER.run_closed_loop(
            Design.BACKPRESSURED, WORKLOADS["ocean"]
        )
        assert result.performance > 0
        assert result.energy_per_txn > 0
        assert result.injection_rate > 0
        assert result.breakdown_per_txn.total == pytest.approx(
            result.energy_per_txn, rel=1e-6
        )

    def test_closed_loop_afc_reports_mode_stats(self):
        result = self.RUNNER.run_closed_loop(
            Design.AFC, WORKLOADS["apache"]
        )
        # The forward switch happens during warmup (before measurement
        # counters reset), so the measured fraction reflects steady state.
        assert result.backpressured_fraction > 0.9
        assert result.forward_switches >= 0

    def test_open_loop_smoke(self):
        result = self.RUNNER.run_open_loop(Design.BACKPRESSURELESS, 0.2)
        assert result.throughput == pytest.approx(0.2, rel=0.35)
        assert result.avg_network_latency > 0
        assert result.energy_per_flit > 0

    def test_open_loop_group_latency(self):
        net_cfg = NetworkConfig()
        runner = ExperimentRunner(
            config=net_cfg, warmup_cycles=300, measure_cycles=800, seeds=1
        )
        result = runner.run_open_loop(
            Design.BACKPRESSURED,
            0.2,
            pattern=UniformRandom(net_cfg.mesh),
            latency_groups={"left": [0, 3, 6], "right": [2, 5, 8]},
        )
        assert set(result.group_latency) == {"left", "right"}
        assert result.group_latency["left"] > 0

    def test_multi_seed_std(self):
        runner = ExperimentRunner(
            warmup_cycles=300, measure_cycles=800, seeds=2
        )
        result = runner.run_closed_loop(
            Design.BACKPRESSURED, WORKLOADS["water"]
        )
        assert result.seeds == 2
        assert result.performance_std >= 0.0


class TestDeclaredReducers:
    """The aggregator is a table (``experiment._REDUCERS`` over a
    default of ``fmean``), so it is checked as one: two synthetic
    samples per kind, every result field against arithmetic done here."""

    #: result field -> the sample field whose sample std it reports.
    STD_OF = {
        "performance_std": "performance",
        "energy_per_txn_std": "energy_per_txn",
        "latency_std": "avg_network_latency",
    }
    #: result fields that name the run rather than summarise samples.
    HEADER = {"design", "workload", "offered_rate", "seeds"}

    #: The run-specific job inputs of each kind (``seed_job`` adds the rest).
    INPUTS = {
        "closed_loop": dict(design=Design.AFC, workload=WORKLOADS["water"]),
        "open_loop": dict(
            design=Design.AFC,
            rate=(0.2, 0.4),
            mix=PacketMix(),
            source_queue_limit=None,
        ),
        "faulted": dict(
            design=Design.AFC,
            rate=0.2,
            fault=FaultSpec(),
            protection=None,
            drain_max_cycles=1,
        ),
    }

    @staticmethod
    def synthetic(sample_cls, scale):
        """A sample whose i-th field holds ``scale * (i + 1)``."""
        hints = typing.get_type_hints(sample_cls)
        values = {}
        for i, f in enumerate(dataclasses.fields(sample_cls), start=1):
            x = scale * i
            if hints[f.name] is EnergyBreakdown:
                values[f.name] = EnergyBreakdown(
                    **{
                        part.name: x + j
                        for j, part in enumerate(
                            dataclasses.fields(EnergyBreakdown)
                        )
                    }
                )
            elif f.name == "group_latency":
                values[f.name] = (("left", x), ("right", 2 * x))
            elif f.name == "observability":
                values[f.name] = {"probe": {"scale": scale}}
            else:
                values[f.name] = hints[f.name](x)
        return sample_cls(**values)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_result_field_is_the_declared_fold(self, kind):
        entry = KINDS[kind]
        a, b = (self.synthetic(entry.sample, scale) for scale in (1.0, 3.5))
        job = ExperimentRunner().seed_job(kind, 0, **self.INPUTS[kind])
        result = entry.fold(job, [a, b])
        assert isinstance(result, entry.result) and result.seeds == 2
        assert result.design is Design.AFC

        def mean(x, y):
            return (x + y) / 2

        for f in dataclasses.fields(entry.result):
            got = getattr(result, f.name)
            if f.name in self.HEADER:
                continue
            if f.name in self.STD_OF:
                x, y = (getattr(s, self.STD_OF[f.name]) for s in (a, b))
                assert got == pytest.approx(abs(x - y) / 2**0.5), f.name
                continue
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, EnergyBreakdown):
                want = EnergyBreakdown(
                    **{
                        part.name: mean(
                            getattr(x, part.name), getattr(y, part.name)
                        )
                        for part in dataclasses.fields(EnergyBreakdown)
                    }
                )
            elif f.name == "group_latency":
                want = {
                    name: mean(value, dict(y)[name]) for name, value in x
                }
            elif f.name == "observability":
                want = x  # single-run payloads come from the first seed
            else:
                want = mean(x, y)
            assert got == want, f.name

    def test_headers_name_the_run(self):
        def header(kind):
            entry = KINDS[kind]
            job = ExperimentRunner().seed_job(kind, 0, **self.INPUTS[kind])
            return entry.fold(job, [self.synthetic(entry.sample, 1.0)])

        assert header("closed_loop").workload == "water"
        assert header("open_loop").offered_rate == pytest.approx(0.3)
        assert header("faulted").offered_rate == 0.2
