"""Checks of the ledger itself.  Outside ``testpaths``; run explicitly:

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py

Every workload runs at ``--smoke`` size (a few seconds each).
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = sorted(metrics.WORKLOADS)


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    """One ``--smoke`` run (cached; ``attempt`` forces a fresh one)."""
    return run.run_once(workload, seed, 1.0, trace, smoke=True)


def test_contract_file_matches_the_tables():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == metrics.contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 2 <= len(contract["workloads"]) <= 8
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25
    } in contract["end_to_end"]
    assert all(path.startswith("benchmarks/ledger") for path in contract["paths"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_meets_the_contract(workload, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
        "--workload", workload, "--seed", "1", "--trace", str(trace),
    ]
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, timeout=120, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {row[0]: row[1] for row in table}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, name
    # every metric is also printed by name with its unit
    for name, unit in units.items():
        assert re.search(
            rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}", done.stdout, re.M
        ), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_repeats_exactly_another_seed_differs(workload):
    first = smoke(workload, 1, 1)
    again = smoke(workload, 1, 1, attempt=1)
    other = smoke(workload, 2, 1)
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
    for name in metrics.EXACT_LAYERS:
        assert (
            first["layers"][name]["value"] == again["layers"][name]["value"]
        ), name
    untraced = smoke(workload, 1, 0)
    assert untraced["sim_digest"] == first["sim_digest"]


def test_layers_show_the_intended_contrast():
    def layer(workload, name):
        return smoke(workload, 1, 1)["layers"][name]["value"]

    assert layer("idle_open_8x8", "simulation.awake_ratio") < layer(
        "sat_open_8x8", "simulation.awake_ratio"
    )
    assert layer("large_vector_mesh", "engine.vector.fallback_units") == 1
    assert layer("large_vector_mesh", "engine.vector.identity_mismatches") == 0
    for workload in WORKLOADS:
        busy = workload == "fig2_closed_3x3"
        for name, _, _ in metrics.PER_LAYER:
            if name.startswith("memsys."):
                assert (layer(workload, name) > 0) == busy, (workload, name)
    # smoke size: one round of 18 cold jobs, 1 deduped pair, 30 hits
    assert layer("service_frontdoor", "service.queue.deduped") == 1
    assert layer("service_frontdoor", "service.queue.cache_hits") == 30


def test_wrappers_are_fully_restored():
    from tracer import TARGETS, Tracer, _resolve

    missing = object()

    def snapshot():
        return [
            vars(_resolve(path)).get(attr, missing)
            for _, path, attr in TARGETS
        ]

    before = snapshot()
    tracer = Tracer().install()
    try:
        assert all(a is not b for a, b in zip(before, snapshot()))
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, snapshot()))


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = subprocess.run(
        [
            sys.executable, "benchmarks/ledger/run.py", "--workload",
            "sat_open_8x8", "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
