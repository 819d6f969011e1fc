"""Vector (structure-of-arrays) batch engine: bit-identity + fallback.

Three families of guarantees for ``engine="vector"``:

* **Bit-identity** — for every design, with and without faults, with
  and without a sanitizer attached, a vector-engine run finishes with
  the :func:`repro.analysis.fingerprint.fingerprint` row of the naive
  reference loop — RNG end states included, read from the batched
  generator while still adopted.  For the vectorized design
  (backpressureless) this exercises the numpy passes; for everything
  else it exercises the transparent scalar fallback, which must be
  equally exact.
* **Fallback semantics** — ineligible networks (other designs, fault
  injectors, observability sinks) fall back up front with a recorded
  ``vector_fallback_reason``; hooks attached *mid-run* are detected at
  the next cycle boundary and the engine materializes its buffers back
  into the scalar objects so the run continues bit-identically.
* **Building blocks** — the vectorized routing tables match the
  scalar :func:`repro.network.routing.routing_tables` entry-for-entry,
  and the batched Mersenne-Twister replays ``random.Random`` draws
  (values *and* word consumption) exactly, including rejection streaks
  and block-boundary rollovers.
"""

import random
import sys

import numpy as np
import pytest

from repro import Design, Network, NetworkConfig
from repro.analysis.fingerprint import fingerprint
from repro.analysis.sanitizer import Sanitizer
from repro.engine.mt import BatchedMT19937
from repro.engine.vector import _numpy_routing_tables, ineligibility
from repro.faults import FaultInjector, FaultSpec, ProtectionConfig
from repro.network.flit import reset_packet_ids
from repro.network.routing import routing_tables
from repro.network.topology import Direction, Mesh
from repro.traffic.synthetic import uniform_random_traffic

from conftest import assert_occupancy_mirrors

CONFIG = NetworkConfig(width=4, height=4)


def run_scenario(design: Design, engine: str, rate: float, cycles: int):
    reset_packet_ids()
    net = Network(CONFIG, design, seed=11, engine=engine)
    source = uniform_random_traffic(net, rate, seed=5, source_queue_limit=300)
    source.run(cycles)
    net.drain(max_cycles=20_000)
    net.check_flit_conservation()
    return net, fingerprint(net, source)


# -- bit-identity across designs (vectorized path + design fallback) ----------


@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
@pytest.mark.parametrize("rate", [0.06, 0.55], ids=["low", "high"])
def test_vector_matches_naive(design, rate):
    _, naive = run_scenario(design, "naive", rate, 600)
    net, vector = run_scenario(design, "vector", rate, 600)
    assert vector == naive
    if design is Design.BACKPRESSURELESS:
        assert net.engine == "vector"
        assert net.vector_fallback_reason is None
        # Still adopted: the RNG rows above came straight from the
        # batched generator, nothing was materialised to compare.
        assert net._vector_engine is not None
        _, active = run_scenario(design, "active", rate, 600)
        assert vector == active
    else:
        # Non-vectorized designs fall back to the active-set scalar
        # engine up front, with the reason recorded.
        assert net.engine == "active"
        assert design.value in net.vector_fallback_reason


def test_vector_saturation_with_conservation_checks():
    """Deep saturation on 8x8: every router busy, ejection-bandwidth
    limited, flit conservation asserted *while* the numpy passes run."""
    config = NetworkConfig(width=8, height=8)

    def run(engine):
        reset_packet_ids()
        net = Network(config, Design.BACKPRESSURELESS, seed=11, engine=engine)
        source = uniform_random_traffic(
            net, 0.8, seed=5, source_queue_limit=60
        )
        for _ in range(8):
            source.run(100)
            net.check_flit_conservation()
        net.drain(max_cycles=20_000)
        net.check_flit_conservation()
        return net, fingerprint(net, source)

    _, naive = run("naive")
    net, vector = run("vector")
    assert vector == naive
    assert net.engine == "vector"
    assert net.stats.dispatched_flit_hops > 0


# -- fault / sanitizer fallback ------------------------------------------------


def test_faulted_schedule_falls_back_bit_identical():
    """A fault injector makes the network ineligible (channel fault
    slots + per-cycle hook); the run must fall back and stay exact."""
    spec = FaultSpec(
        seed=3, link_flap_rate=5.0, bit_error_rate=3.0, flap_duration=20
    )

    def run(engine):
        reset_packet_ids()
        net = Network(CONFIG, Design.BACKPRESSURELESS, seed=11, engine=engine)
        schedule = spec.schedule(net.mesh, start=0, horizon=1500)
        assert len(schedule) > 0, "fault schedule unexpectedly empty"
        injector = FaultInjector(net, schedule, ProtectionConfig())
        source = uniform_random_traffic(
            net, 0.25, seed=5, source_queue_limit=300
        )
        source.run(1500)
        injector.drain(max_cycles=100_000)
        return net, fingerprint(net, source)

    _, naive = run("naive")
    net, vector = run("vector")
    assert vector == naive
    assert net.engine == "active"
    assert net.vector_fallback_reason is not None


def test_sanitized_run_falls_back_bit_identical():
    def run(engine):
        reset_packet_ids()
        net = Network(CONFIG, Design.BACKPRESSURELESS, seed=11, engine=engine)
        source = uniform_random_traffic(
            net, 0.3, seed=5, source_queue_limit=300
        )
        with Sanitizer(net):
            source.run(600)
            net.drain(max_cycles=20_000)
        return net, fingerprint(net, source)

    _, naive = run("naive")
    net, vector = run("vector")
    assert vector == naive
    assert net.vector_fallback_reason is not None


def test_mid_run_hook_attach_materializes():
    """Hooks attached after adoption: the engine must notice at the
    next cycle boundary, write its buffers back into the scalar
    objects (materialize) and continue bit-identically."""

    def run(engine):
        reset_packet_ids()
        net = Network(CONFIG, Design.BACKPRESSURELESS, seed=11, engine=engine)
        source = uniform_random_traffic(
            net, 0.3, seed=5, source_queue_limit=300
        )
        source.run(300)
        if engine == "vector":
            # The numpy passes really were running before the attach.
            assert net.engine == "vector"
            assert net._vector_engine is not None
        sanitizer = Sanitizer(net).attach()
        # The scalar engine takes over state it did not build: its awake
        # list must agree with its flags from the first cycle on.
        net.subscribe("cycle_end", lambda cycle: assert_occupancy_mirrors(net))
        source.run(300)
        net.drain(max_cycles=20_000)
        sanitizer.check_now()
        return net, fingerprint(net, source)

    _, naive = run("naive")
    net, vector = run("vector")
    assert vector == naive
    assert net.engine == "active"
    assert net.vector_fallback_reason is not None
    assert net._vector_engine is None


# -- construction guards -------------------------------------------------------


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown cycle engine"):
        Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="simd")


def test_missing_numpy_raises_clear_import_error(monkeypatch):
    """Without numpy, engine="vector" must fail fast with a message
    naming the dependency and the scalar engines; the scalar engines
    themselves must keep constructing."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError, match="requires numpy"):
        Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="vector")
    Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="active")
    Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="naive")


def test_ineligibility_reports_design():
    net = Network(CONFIG, Design.AFC, seed=1)
    reason = ineligibility(net)
    assert reason is not None and "afc" in reason
    # A fresh vector-engine network is eligible.  (The default active
    # engine attaches NI activity hooks for its wake tracking, so only
    # an engine="vector" network is hook-free before the first step.)
    assert ineligibility(
        Network(CONFIG, Design.BACKPRESSURELESS, seed=1, engine="vector")
    ) is None


# -- vectorized routing tables -------------------------------------------------


@pytest.mark.parametrize("width,height", [(4, 4), (8, 8), (5, 3)])
def test_numpy_routing_tables_match_scalar(width, height):
    mesh = Mesh(width, height)
    R = mesh.num_nodes
    has_out = np.zeros((R, 4), dtype=bool)
    for node in range(R):
        x, y = node % width, node // width
        has_out[node, int(Direction.EAST)] = x < width - 1
        has_out[node, int(Direction.WEST)] = x > 0
        has_out[node, int(Direction.NORTH)] = y > 0
        has_out[node, int(Direction.SOUTH)] = y < height - 1
    prod0, prod1, fb, fb_n = _numpy_routing_tables(mesh, has_out)
    tables = routing_tables(mesh)
    for node in range(R):
        for dst in range(R):
            prod = tables.productive[node][dst]
            assert prod0[node, dst] == (int(prod[0]) if prod else -1)
            assert prod1[node, dst] == (
                int(prod[1]) if len(prod) > 1 else -1
            )
            fallback = [int(p) for p in tables.fallback[node][dst]]
            count = int(fb_n[node, dst])
            assert count == len(fallback)
            assert fb[node, dst, :count].tolist() == fallback
            assert (fb[node, dst, count:] == -1).all()


# -- batched Mersenne-Twister --------------------------------------------------


def test_batched_mt_matches_cpython_draws_and_consumption():
    """Value *and* word-consumption parity with ``random.Random`` over
    thousands of draws: rejection streaks, per-row bound arrays,
    subset draws, and several 624-word block rollovers."""
    seeds = [f"11:{i}" for i in range(7)]
    bmt = BatchedMT19937([random.Random(s) for s in seeds])
    mirror = [random.Random(s) for s in seeds]
    all_rows = np.arange(len(seeds), dtype=np.int64)
    sub_rows = np.array([0, 2, 5], dtype=np.int64)
    bounds = [2, 3, 4, 5, 7, 8, 10, 33, 63]
    for it in range(1200):
        bmt.maintain()
        n = bounds[it % len(bounds)]
        got = bmt.randbelow(n, all_rows)
        assert got.tolist() == [m._randbelow(n) for m in mirror]
        if it % 5 == 0:  # per-row bound array
            narr = np.array(
                [bounds[(it + r) % len(bounds)] for r in range(len(seeds))],
                dtype=np.int64,
            )
            got = bmt.randbelow(narr, all_rows)
            assert got.tolist() == [
                m._randbelow(int(k)) for m, k in zip(mirror, narr)
            ]
        if it % 7 == 0:  # subset of rows; the rest must not advance
            got = bmt.randbelow(3, sub_rows)
            assert got.tolist() == [
                mirror[r]._randbelow(3) for r in sub_rows.tolist()
            ]
    # Exact consumption: every row's exported state matches the
    # scalar generator word for word (position included).
    for row, m in enumerate(mirror):
        assert bmt.getstate(row) == m.getstate()


def test_batched_mt_single_row_helpers_match():
    rngs = [random.Random(f"7:{i}") for i in range(3)]
    bmt = BatchedMT19937(rngs)
    mirror = [random.Random(f"7:{i}") for i in range(3)]
    for _ in range(150):
        bmt.maintain()
        for row, m in enumerate(mirror):
            got, exp = list(range(6)), list(range(6))
            bmt.shuffle_one(row, got)
            m.shuffle(exp)
            assert got == exp
            assert bmt.choice_one(row, ["a", "b", "c", "d"]) == m.choice(
                ["a", "b", "c", "d"]
            )
            assert bmt.randbelow_one(row, 5) == m._randbelow(5)
    for row, m in enumerate(mirror):
        assert bmt.getstate(row) == m.getstate()


def test_batched_mt_state_roundtrip_and_export():
    bmt = BatchedMT19937([random.Random("a"), random.Random("b")])
    rows = np.arange(2, dtype=np.int64)
    for _ in range(800):  # push both rows past a block rollover
        bmt.maintain()
        bmt.randbelow(5, rows)
    state = bmt.getstate(0)
    scalar = random.Random()
    scalar.setstate(state)
    expected = [scalar._randbelow(9) for _ in range(40)]
    clone = BatchedMT19937([random.Random()])
    clone.setstate(0, state)
    got = []
    for _ in range(40):
        clone.maintain()
        got.append(int(clone.randbelow(9, np.arange(1))[0]))
    assert got == expected
    # export_all: the materialize path hands streams back unchanged.
    originals = [random.Random(), random.Random()]
    bmt.export_all(originals)
    assert originals[0].getstate() == state
    assert originals[1].getstate() == bmt.getstate(1)


def test_batched_mt_exports_a_row_on_the_block_boundary_like_cpython():
    """A stream that never drew sits exactly on the 624-word boundary
    (so does one that drew a whole block): CPython reports the old
    block at position 624 and twists on the next draw, and the export
    must say the same, not the stream-equivalent (next block, 0)."""
    bmt = BatchedMT19937([random.Random("idle")])
    bmt.maintain()
    assert bmt.getstate(0) == random.Random("idle").getstate()
    mirror = random.Random("idle")
    for _ in range(3):
        bmt.maintain()
        assert bmt.randbelow_one(0, 5) == mirror._randbelow(5)
    bmt.maintain()
    assert bmt.getstate(0) == mirror.getstate()


def test_float_accumulate_is_a_sequential_fold():
    """``np.add.accumulate`` is the same left-to-right float64 fold as
    the scalar ``acc += x`` loop — bit-exact, not merely close (the
    property simlint's ``numpy-dtype-mixing`` rule protects)."""
    values = np.array([0.1, 0.7, 1e-9, 3.14159, 0.07] * 400, np.float64)
    acc = 0.0
    for v in values.tolist():
        acc += v
    assert float(np.add.accumulate(values)[-1]) == acc
