"""``scripts/ab_pairs.py``: the archive survives crashes and states
whether a gain claim holds.  The ledger runs are stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _run(peak_rss_mb, wall_s=1.0):
    return {
        "exit_code": 0,
        "sim_digest": "d",
        "failed": 0,
        "metrics": {"peak_rss_mb": peak_rss_mb, "wall_s": wall_s},
    }


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """Stub ledger runs: the parent's RSS is 30 + seed/10 MB, the
    change's 25 MB (wall equal), and the parent's run of seed 13
    crashes.  Records how many pairs the archive held at each call."""
    out = tmp_path / "ab.json"
    seen = []

    def ledger_run(checkout, workload, seed, seconds, trace):
        archived = json.loads(out.read_text()) if out.exists() else None
        seen.append(
            len(archived["workloads"][workload]["pairs"]) if archived else 0
        )
        if checkout == tmp_path:
            if seed == 13:
                return {"exit_code": 1, "stderr_tail": ["Traceback", "Boom"]}
            return _run(30 + seed / 10)
        return _run(25.0)

    monkeypatch.setattr(ab_pairs, "ledger_run", ledger_run)
    return tmp_path, out, seen


def test_archive_written_after_every_pair_and_crash_recorded(stubbed):
    parent, out, seen = stubbed
    ab_pairs.main(
        ["--parent", str(parent), "--workload", "fig2_closed_3x3",
         "--seeds", "11-14", "--out", str(out)]
    )
    assert seen == [0, 0, 1, 1, 2, 2, 3, 3]
    entry = json.loads(out.read_text())["workloads"]["fig2_closed_3x3"]
    assert len(entry["pairs"]) == 4
    assert entry["crashed_runs"] == entry["failed_runs"] == 1
    assert entry["complete_pairs"] == 3
    crashed = entry["pairs"][2]["parent"]
    assert crashed == {"exit_code": 1, "stderr_tail": ["Traceback", "Boom"]}
    rss = entry["summary"]["peak_rss_mb"]
    assert rss["pairs"] == 3 and rss["change_wins"] == 3
    assert rss["gain_rule_met"] and rss["change_better_every_run"]
    wall = entry["summary"]["wall_s"]
    assert wall["ties"] == 3
    assert not wall["gain_rule_met"] and not wall["change_better_every_run"]


def test_gain_rule_needs_wins_and_a_gap_beyond_the_parent_iqr():
    better = {"peak_rss_mb": "lower", "wall_s": "lower"}

    def summary(parent, change):
        pairs = [
            {"parent": _run(p), "change": _run(c)}
            for p, c in zip(parent, change)
        ]
        return ab_pairs.summarise(pairs, better)["peak_rss_mb"]

    # 9 of 10 wins, medians 5 MB apart, parent IQR 0.5 MB.
    won = summary([30.0, 30.5] * 5, [25.0] * 9 + [31.0])
    assert won["change_wins"] == 9
    assert won["gain_rule_met"] and not won["change_better_every_run"]
    # 8 of 10 wins is not enough.
    few = summary([30.0, 30.5] * 5, [25.0] * 8 + [31.0, 31.0])
    assert not few["gain_rule_met"]
    # Every pair won, but by less than the parent's spread.
    close = summary([30.0, 34.0] * 5, [29.9, 33.9] * 5)
    assert close["change_wins"] == 10
    assert close["parent_iqr"] == 4.0 and not close["gain_rule_met"]


def test_a_crashing_run_is_returned_not_raised(tmp_path):
    ledger = tmp_path / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (ledger / "run.py").write_text(
        "import sys\nprint('first', file=sys.stderr)\n"
        "raise SystemExit('out of memory')\n"
    )
    run = ab_pairs.ledger_run(tmp_path, "fig2_closed_3x3", 11, 1, 0)
    assert run == {
        "exit_code": 1,
        "stderr_tail": ["first", "out of memory"],
    }
