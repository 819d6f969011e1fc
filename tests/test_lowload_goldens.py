"""Replay of the golden fingerprint grid.

``tests/fixtures/goldens.json`` is written by ``scripts/gen_goldens.py``
at the commit *before* a behaviour-preserving change; this suite re-runs
the same grid — every design x four meshes x two link latencies x two
ejection bandwidths x three low rates, plus the three paper designs
saturated on 8x8, plus the closed-loop Fig. 2 grid (six workloads x
four designs on 3x3, memsys as the source) — and compares whole
:func:`repro.analysis.fingerprint.fingerprint` rows.  The rate-0.5
goldens and the active-vs-naive comparisons share the router code under
test; this fence does not.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import Design
from repro.analysis.fingerprint import COLUMNS, differing
from repro.harness import MAIN_DESIGNS

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gen_goldens.py"
_spec = importlib.util.spec_from_file_location("gen_goldens", _SCRIPT)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

GOLDEN = gen.load()
CASES = list(gen.cases())
CLOSED_CASES = list(gen.closed_cases())


def test_archive_covers_the_whole_grid():
    assert GOLDEN["columns"] == COLUMNS
    assert list(GOLDEN["cases"]) == [gen.case_key(*case) for case in CASES]
    saturated = [case for case in CASES if case[4] in gen.SATURATED_RATES]
    assert len(saturated) == 9 and len(CASES) == 384 + 9


@pytest.mark.parametrize("mesh", gen.MESHES, ids=lambda m: f"{m[0]}x{m[1]}")
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_fingerprints_match_the_parent(design, mesh):
    bad = {}
    for case in CASES:
        if case[:2] == (design, mesh):
            key = gen.case_key(*case)
            columns = differing(GOLDEN["cases"][key], gen.run_case(*case))
            if columns:
                bad[key] = columns
    assert not bad


def test_closed_loop_archive_covers_the_grid():
    keys = [gen.closed_key(*case) for case in CLOSED_CASES]
    assert list(GOLDEN["closed_loop"]) == keys and len(keys) == 6 * 4


@pytest.mark.parametrize("design", MAIN_DESIGNS, ids=lambda d: d.value)
def test_closed_loop_fingerprints_match_the_parent(design):
    bad = {}
    for case in CLOSED_CASES:
        if case[1] is design:
            key = gen.closed_key(*case)
            row = gen.run_closed_case(*case)
            columns = differing(GOLDEN["closed_loop"][key], row)
            if columns:
                bad[key] = columns
    assert not bad
