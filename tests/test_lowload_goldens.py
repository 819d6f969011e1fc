"""Replay of the low-load golden fingerprints.

``tests/fixtures/lowload_goldens.json`` was written by
``scripts/gen_lowload_goldens.py`` at the commit *before* the routers'
low-load fast paths landed; this suite re-runs the same grid (every
design x four meshes x two link latencies x two ejection bandwidths x
three low rates) and compares every counter, every energy component bit
for bit, the per-router mode statistics and every RNG stream's final
state.  The rate-0.5 goldens and the active-vs-naive comparisons share
the router code under test; this fence does not.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import Design

_SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "gen_lowload_goldens.py"
)
_spec = importlib.util.spec_from_file_location("gen_lowload_goldens", _SCRIPT)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

GOLDEN = gen.load()


def test_archive_covers_the_whole_grid():
    assert GOLDEN["columns"] == gen.columns()
    assert sorted(GOLDEN["cases"]) == sorted(
        gen.case_key(*case) for case in gen.cases()
    )


@pytest.mark.parametrize("mesh", gen.MESHES, ids=lambda m: f"{m[0]}x{m[1]}")
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
def test_fingerprints_match_the_parent(design, mesh):
    differing = {}
    for latency in gen.LINK_LATENCIES:
        for eject in gen.EJECT_BANDWIDTHS:
            for rate in gen.RATES:
                key = gen.case_key(design, mesh, latency, eject, rate)
                row = gen.fingerprint(design, mesh, latency, eject, rate)
                columns = gen.mismatches(GOLDEN, key, row)
                if columns:
                    differing[key] = columns
    assert not differing
