"""The fast engine and the parallel harness change wall-clock only.

Two families of guarantees, both *bit-exact* (no tolerances anywhere):

* the active-set cycle engine (``engine="active"``, the default) must
  finish with the same :func:`repro.analysis.fingerprint.fingerprint`
  row (counters, energy by ``float.hex``, mode statistics, every RNG
  stream's end state) as the naive loop (``engine="naive"``) for
  every design, including the dropping design's retransmit path and
  AFC's self-timed reverse switches out of deep idle;
* the process-parallel experiment harness (``jobs > 1``) must merge
  per-seed samples into exactly the numbers the serial loop produces;
* a run must not depend on ``PYTHONHASHSEED``: fresh interpreters under
  two fixed hash seeds replay the committed golden rows.

Flit conservation is additionally asserted every few cycles while the
active engine is skipping quiescent routers — sleeping a router that
still owes (or is owed) a flit would show up here immediately.
"""

import json
from pathlib import Path

import pytest

from conftest import run_python
from repro import Design, Network, NetworkConfig
from repro.analysis.fingerprint import differing, fingerprint
from repro.analysis.sanitizer import Sanitizer
from repro.harness.experiment import ExperimentRunner
from repro.harness.sweep import SweepGrid, run_open_loop_sweep
from repro.network.flit import reset_packet_ids
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource, uniform_random_traffic
from repro.traffic.workloads import WORKLOADS


def run_scenario(
    design: Design,
    engine: str,
    rate: float,
    cycles: int,
    conservation_stride: int = 0,
):
    """Run to a drain; return ``(net, fingerprint row)``."""
    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=11, engine=engine)
    source = uniform_random_traffic(
        net, rate, seed=5, source_queue_limit=300
    )
    if conservation_stride:
        for _ in range(0, cycles, conservation_stride):
            source.run(conservation_stride)
            net.check_flit_conservation()
    else:
        source.run(cycles)
    net.drain(max_cycles=20_000)
    net.check_flit_conservation()
    return net, fingerprint(net, source)


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
@pytest.mark.parametrize("rate", [0.06, 0.35], ids=["low", "high"])
def test_engines_bit_identical(design, rate):
    """Active-set engine == naive loop, for every design, both in the
    mostly-asleep regime (low load) and the mostly-awake one."""
    _, naive = run_scenario(design, "naive", rate, 600)
    _, active = run_scenario(design, "active", rate, 600)
    assert active == naive


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_engines_bit_identical_at_saturation(design):
    """Saturated load keeps every router awake and drives the paths the
    saturation fast path rebuilt: the precomputed deflection-fallback
    rows (all productive ports taken), AFC's credit-masked allocation
    and emergency buffering, and the persistent switch-allocation
    request lists under full contention."""
    net, naive = run_scenario(design, "naive", 0.7, 400)
    _, active = run_scenario(design, "active", 0.7, 400)
    assert active == naive
    assert net.stats.flits_ejected > 0


def test_engines_bit_identical_at_saturation_8x8():
    """Same guarantee on a mesh with corner/edge/center port layouts
    all present at depth — the fallback rows differ per node class."""
    reset_packet_ids()
    states = {}
    for engine in ("naive", "active"):
        reset_packet_ids()
        net = Network(
            NetworkConfig(width=8, height=8),
            Design.AFC,
            seed=11,
            engine=engine,
        )
        source = uniform_random_traffic(
            net, 0.65, seed=5, source_queue_limit=60
        )
        source.run(300)
        net.drain(max_cycles=40_000)
        net.check_flit_conservation()
        states[engine] = fingerprint(net, source)
    assert states["active"] == states["naive"]


@pytest.mark.parametrize(
    "design",
    [Design.AFC, Design.BACKPRESSURELESS_DROPPING],
    ids=lambda d: d.value,
)
def test_conservation_under_quiescence_skipping(design):
    """No flit is lost or duplicated while routers sleep — checked
    every 7 cycles, mid-protocol, including the dropping design's
    NACK/retransmit circuit (which re-enters the network through a
    sleeping source's interface)."""
    net, _ = run_scenario(
        design, "active", 0.35, 700, conservation_stride=7
    )
    if design is Design.BACKPRESSURELESS_DROPPING:
        assert net.stats.flits_dropped > 0, (
            "scenario too gentle: the retransmit path was never taken"
        )


def test_afc_self_wake_reverse_switch():
    """An idle backpressured AFC router must wake itself on the exact
    cycle its decayed EWMA crosses the reverse threshold (no neighbour
    event arrives to wake it).  The long drain after a saturating burst
    is where a lazy engine would sleep through the switch."""
    net, naive = run_scenario(Design.AFC, "naive", 0.55, 900)
    _, active = run_scenario(Design.AFC, "active", 0.55, 900)
    assert active == naive
    reverse = sum(
        entry.reverse_switches for entry in net.stats.mode_stats.values()
    )
    assert reverse > 0, "scenario too gentle: no reverse switch happened"


def test_settling_reserve_is_engine_independent():
    """On the smallest layout adaptive AFC admits, the credits a router
    holds back after a START notice decide what it may send; a router
    the active engine lets sleep through part of that phase must wake
    with the reserve the naive loop counted down cycle by cycle."""
    rows = []
    for engine in ("naive", "active"):
        reset_packet_ids()
        config = NetworkConfig(width=4, height=4, afc_vcs=(5, 5, 5))
        net = Network(config, Design.AFC, seed=11, engine=engine)
        source = OpenLoopSource(
            net, 0.25, pattern=Hotspot(net.mesh, hotspot=5), seed=5
        )
        source.run(600)
        net.drain(max_cycles=20_000)
        rows.append(fingerprint(net, source))
        assert net.stats.mode(5).forward_switches > 0
    assert rows[0] == rows[1]


# -- invariant sanitizer is a pure observer -----------------------------------
def _run_sanitized_scenario(
    design: Design, engine: str, rate: float, cycles: int, detach_first: bool
) -> list:
    """Like :func:`run_scenario` but with a Sanitizer in the picture —
    either watching the whole run (``detach_first=False``) or attached
    and detached again before any cycle executes (``detach_first=True``,
    the sanitizer-off path)."""
    from repro.traffic.synthetic import uniform_random_traffic

    reset_packet_ids()
    net = Network(NetworkConfig(), design, seed=11, engine=engine)
    source = uniform_random_traffic(net, rate, seed=5, source_queue_limit=300)
    sanitizer = Sanitizer(net).attach()
    if detach_first:
        sanitizer.detach()
    source.run(cycles)
    net.drain(max_cycles=20_000)
    sanitizer.detach()
    net.check_flit_conservation()
    return fingerprint(net, source)


@pytest.mark.parametrize("engine", ["naive", "active"])
@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_sanitizer_runs_are_bit_identical(design, engine):
    """Attached or detached, the sanitizer never perturbs a run: every
    externally observable accumulator matches the plain run exactly on
    both engines (it reads state, never writes it)."""
    _, plain = run_scenario(design, engine, 0.35, 500)
    detached = _run_sanitized_scenario(design, engine, 0.35, 500, True)
    watched = _run_sanitized_scenario(design, engine, 0.35, 500, False)
    assert detached == plain
    assert watched == plain


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Network(NetworkConfig(), Design.AFC, seed=0, engine="warp")


# -- process-parallel harness -------------------------------------------------
def test_closed_loop_parallel_matches_serial():
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            warmup_cycles=300,
            measure_cycles=700,
            seeds=2,
            jobs=jobs,
        )
        results[jobs] = runner.run_closed_loop(
            Design.AFC, WORKLOADS["apache"]
        )
    assert results[1] == results[2]


def test_open_loop_parallel_matches_serial():
    results = {}
    for jobs in (1, 2):
        runner = ExperimentRunner(
            warmup_cycles=300,
            measure_cycles=700,
            seeds=3,
            jobs=jobs,
        )
        results[jobs] = runner.run_open_loop(
            Design.BACKPRESSURELESS, 0.3, source_queue_limit=200
        )
    assert results[1] == results[2]


def test_sweep_parallel_matches_serial():
    grid = SweepGrid(
        designs=[Design.BACKPRESSURED, Design.AFC], rates=[0.2, 0.4]
    )
    tables = {
        jobs: run_open_loop_sweep(
            grid,
            warmup_cycles=200,
            measure_cycles=500,
            seeds=1,
            source_queue_limit=200,
            jobs=jobs,
        )
        for jobs in (1, 2)
    }
    assert tables[1].columns == tables[2].columns
    assert tables[1].rows == tables[2].rows


#: Run in a fresh interpreter: one 3x3 golden case per design, through
#: the golden script's own runner, printed as ``{case key: row}``.
_REPLAY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("gen_goldens", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
from repro import Design
cases = [(design, (3, 3), 2, 2, 0.1) for design in Design]
json.dump({gen.case_key(*c): gen.run_case(*c) for c in cases}, sys.stdout)
"""


def test_goldens_replay_under_two_hash_seeds():
    """Hash order must never reach the simulation.  ``str`` hashes (and
    so the iteration order of any set or dict keyed by names) change
    with ``PYTHONHASHSEED``; a run that consumed such an order anywhere
    between the traffic source and the RNG end states would differ
    from the committed rows under at least one of two fixed seeds —
    deterministically, not once per random seed of the test runner."""
    root = Path(__file__).resolve().parent.parent
    golden = json.loads(
        (root / "tests" / "fixtures" / "goldens.json").read_text()
    )["cases"]
    for hash_seed in ("1", "4242"):
        proc = run_python(
            "-c",
            _REPLAY,
            root / "scripts" / "gen_goldens.py",
            PYTHONHASHSEED=hash_seed,
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert len(rows) == len(Design)
        bad = {
            key: columns
            for key, row in rows.items()
            if (columns := differing(golden[key], row))
        }
        assert not bad, f"PYTHONHASHSEED={hash_seed}: {bad}"
