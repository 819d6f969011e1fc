"""Tests for the parameter-sweep utility."""

import pytest

from repro import Design, NetworkConfig
from repro.harness import ExperimentRunner
from repro.harness.sweep import (
    SweepGrid,
    SweepTable,
    run_closed_loop_sweep,
    run_open_loop_sweep,
)
from repro.traffic.workloads import WORKLOADS


class TestSweepTable:
    def test_add_and_column(self):
        table = SweepTable(columns=["a", "b"])
        table.add([1, 2.5])
        table.add([3, 4.5])
        assert len(table) == 2
        assert table.column("b") == [2.5, 4.5]

    def test_row_width_checked(self):
        table = SweepTable(columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add([1])

    def test_render(self):
        table = SweepTable(columns=["design", "value"])
        table.add(["afc", 0.123456])
        out = table.render(title="T")
        assert "afc" in out and "0.1235" in out and out.startswith("T")

    def test_csv_roundtrip(self, tmp_path):
        table = SweepTable(columns=["x", "y"])
        table.add(["one", 1.5])
        path = tmp_path / "sweep.csv"
        table.save_csv(path)
        loaded = SweepTable.load_csv(path)
        assert loaded.columns == ["x", "y"]
        assert loaded.rows == [["one", "1.5"]]


class TestGrids:
    def test_closed_loop_requires_workloads(self):
        with pytest.raises(ValueError, match="workloads"):
            run_closed_loop_sweep(SweepGrid(designs=[Design.AFC]))

    def test_open_loop_requires_rates(self):
        with pytest.raises(ValueError, match="rates"):
            run_open_loop_sweep(SweepGrid(designs=[Design.AFC]))

    def test_default_config_item(self):
        grid = SweepGrid(designs=[Design.AFC])
        items = grid.config_items()
        assert items[0][0] == "default"

    def test_closed_loop_sweep_shape(self):
        grid = SweepGrid(
            designs=[Design.BACKPRESSURED, Design.AFC],
            workloads=[WORKLOADS["water"]],
        )
        table = run_closed_loop_sweep(
            grid, warmup_cycles=300, measure_cycles=800, seeds=1
        )
        assert len(table) == 2
        assert set(table.column("design")) == {"backpressured", "afc"}
        assert all(p > 0 for p in table.column("performance"))

    def test_open_loop_sweep_with_config_variants(self):
        grid = SweepGrid(
            designs=[Design.BACKPRESSURED],
            rates=[0.2],
            configs={
                "L=2": NetworkConfig(),
                "L=4": NetworkConfig(link_latency=4, gossip_threshold=8),
            },
        )
        table = run_open_loop_sweep(
            grid, warmup_cycles=300, measure_cycles=800, seeds=1
        )
        assert len(table) == 2
        latency = dict(zip(table.column("config"), table.column("network_latency")))
        # longer links, longer latency — the sweep detects config effects
        assert latency["L=4"] > latency["L=2"]

    def test_base_seed_and_engine_reach_every_cell(self):
        """A sweep cell is an ``ExperimentRunner`` run: the same seeds
        give the same numbers, other seeds give others, and the engine
        is the one asked for."""
        grid = SweepGrid(designs=[Design.BACKPRESSURELESS], rates=[0.3])
        fast = dict(warmup_cycles=200, measure_cycles=600, seeds=1)

        def latency(**settings):
            table = run_open_loop_sweep(grid, **fast, **settings)
            return table.column("network_latency")[0]

        direct = ExperimentRunner(base_seed=7, **fast).run_open_loop(
            Design.BACKPRESSURELESS, 0.3, source_queue_limit=500
        )
        assert latency(base_seed=7) == direct.avg_network_latency
        assert latency(base_seed=7, engine="vector") == latency(base_seed=7)
        assert latency(base_seed=0) != latency(base_seed=7)
        with pytest.raises(ValueError, match="engine"):
            latency(engine="warp")
