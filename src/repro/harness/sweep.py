"""Generic parameter sweeps with tabular/CSV output.

The benchmarks cover the paper's fixed experiment grid; this utility
covers the exploratory grids around it — any cartesian product of
designs × workloads (closed loop) or designs × rates (open loop),
optionally × network-config variants — collected into one result table
that can be printed or written as CSV for external plotting.

Example::

    from repro.harness.sweep import SweepGrid, run_closed_loop_sweep

    grid = SweepGrid(
        designs=[Design.BACKPRESSURED, Design.AFC],
        workloads=[WORKLOADS["ocean"], WORKLOADS["apache"]],
        configs={"L=2": NetworkConfig(), "L=4": NetworkConfig(
            link_latency=4, gossip_threshold=8, afc_vcs=(16, 16, 32))},
    )
    table = run_closed_loop_sweep(grid, seeds=2)
    print(table.render())
    table.save_csv("sweep.csv")
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..network.config import Design, NetworkConfig
from ..traffic.workloads import WorkloadProfile
from .experiment import ExperimentRunner, map_jobs
from .reporting import format_table


@dataclass
class SweepTable:
    """Uniform result rows from a sweep."""

    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add(self, row: Sequence[object]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(row))

    def render(self, title: Optional[str] = None) -> str:
        formatted = [
            [
                f"{cell:.4g}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
            for row in self.rows
        ]
        return format_table(self.columns, formatted, title=title)

    def save_csv(self, path: Union[str, pathlib.Path]) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)

    @classmethod
    def load_csv(cls, path: Union[str, pathlib.Path]) -> "SweepTable":
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            columns = next(reader)
            table = cls(columns=columns)
            for row in reader:
                table.add(row)
        return table

    def column(self, name: str) -> List[object]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SweepGrid:
    """The cartesian product to evaluate."""

    designs: Sequence[Design]
    workloads: Sequence[WorkloadProfile] = ()
    rates: Sequence[float] = ()
    configs: Optional[Dict[str, NetworkConfig]] = None

    def config_items(self):
        if self.configs:
            return list(self.configs.items())
        return [("default", NetworkConfig())]


#: Per sweep, table column -> result field (after the three key columns).
_CLOSED_LOOP_COLUMNS = {
    "performance": "performance",
    "performance_std": "performance_std",
    "energy_per_txn": "energy_per_txn",
    "injection_rate": "injection_rate",
    "miss_latency": "avg_miss_latency",
    "bp_fraction": "backpressured_fraction",
}
_OPEN_LOOP_COLUMNS = {
    "throughput": "throughput",
    "network_latency": "avg_network_latency",
    "deflection_rate": "deflection_rate",
    "energy_per_flit": "energy_per_flit",
    "bp_fraction": "backpressured_fraction",
}


def _run_cell(cell) -> List[object]:
    """One (config, design, point) sweep cell (module-level so it
    pickles); seeds inside the cell run serially in this worker."""
    config_name, runner, method, design, point, extra, result_fields = cell
    result = getattr(runner, method)(design, point, **extra)
    return [config_name, design.value, getattr(point, "name", point)] + [
        getattr(result, name) for name in result_fields
    ]


def _sweep(
    grid: SweepGrid,
    method: str,
    axis: str,
    points: Sequence[object],
    columns: Dict[str, str],
    jobs: int,
    extra: Dict[str, object],
    **runner_settings,
) -> SweepTable:
    """``ExperimentRunner.<method>`` over configs × designs × points.

    ``jobs > 1`` fans the independent grid cells out across worker
    processes; rows come back in grid order and every cell derives its
    own seeds, so the table is identical at any job count.
    """
    if not points:
        raise ValueError(f"sweep needs {axis}s")
    table = SweepTable(columns=["config", "design", axis] + list(columns))
    cells = [
        (
            config_name,
            ExperimentRunner(config=config, **runner_settings),
            method,
            design,
            point,
            extra,
            tuple(columns.values()),
        )
        for config_name, config in grid.config_items()
        for design in grid.designs
        for point in points
    ]
    for row in map_jobs(_run_cell, cells, jobs):
        table.add(row)
    return table


def run_closed_loop_sweep(
    grid: SweepGrid,
    warmup_cycles: int = 2_000,
    measure_cycles: int = 6_000,
    seeds: int = 1,
    jobs: int = 1,
    base_seed: int = 0,
    engine: str = "active",
) -> SweepTable:
    """Closed-loop sweep over configs × designs × workloads."""
    return _sweep(
        grid,
        "run_closed_loop",
        "workload",
        grid.workloads,
        _CLOSED_LOOP_COLUMNS,
        jobs,
        {},
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seeds=seeds,
        base_seed=base_seed,
        engine=engine,
    )


def run_open_loop_sweep(
    grid: SweepGrid,
    warmup_cycles: int = 1_500,
    measure_cycles: int = 4_000,
    seeds: int = 1,
    source_queue_limit: Optional[int] = 500,
    jobs: int = 1,
    base_seed: int = 0,
    engine: str = "active",
) -> SweepTable:
    """Open-loop sweep over configs × designs × rates."""
    return _sweep(
        grid,
        "run_open_loop",
        "rate",
        grid.rates,
        _OPEN_LOOP_COLUMNS,
        jobs,
        {"source_queue_limit": source_queue_limit},
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seeds=seeds,
        base_seed=base_seed,
        engine=engine,
    )
