"""Canonical hashing, exact serialization, and the result store.

The load-bearing property here is **bit-identity**: a result that
round-trips through the store's JSON codec equals the original
dataclass field-for-field, so a cached answer is indistinguishable
from a fresh simulation.  The key tests pin the hashing discipline:
every result-determining knob changes the key; the engine (bit-
identical across engines by repo contract) does not.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultSpec, ProtectionConfig
from repro.harness.experiment import ExperimentRunner
from repro.network.config import Design, NetworkConfig
from repro.obs.hub import ObservabilityOptions
from repro.service import (
    JobSpec,
    ResultStore,
    canonical_json,
    canonicalize,
    content_key,
    result_from_dict,
    result_to_dict,
    sample_from_dict,
    sample_to_dict,
)
from repro.traffic.workloads import WORKLOADS

FAST = dict(warmup_cycles=100, measure_cycles=300, seeds=2)


# -- canonical JSON --------------------------------------------------------


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2, {"z": None, "y": 0.5}]})
    b = canonical_json({"a": [1, 2, {"y": 0.5, "z": None}], "b": 1})
    assert a == b
    assert content_key({"b": 1, "a": 2}) == content_key({"a": 2, "b": 1})


def test_canonicalize_handles_enums_dataclasses_tuples():
    payload = canonicalize(
        {
            "design": Design.AFC,
            "config": NetworkConfig(width=4, height=2),
            "pair": (1, 2),
        }
    )
    assert payload["design"] == "afc"
    assert payload["config"]["width"] == 4
    assert payload["pair"] == [1, 2]
    # The result is pure JSON: dumps round-trips it.
    assert json.loads(canonical_json(payload)) == payload


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonicalize_rejects_key_collisions():
    with pytest.raises(ValueError):
        canonicalize({1: "a", "1": "b"})


# -- key discipline --------------------------------------------------------


#: Default-spec keys of the three kinds.  If one changes, every stored
#: result is orphaned, which is only correct when the hashed payload
#: deliberately changed shape (bump _HASH_SCHEMA when it does).
PINNED_KEYS = {
    "closed_loop": (
        dict(workload="apache"),
        "408d35d599eb6add8b40e0e9c20d9409ca070dc5677e2d24042f51372a8d8596",
    ),
    "open_loop": (
        dict(rate=0.2),
        "3d6e1a45d9cc240f65457b6aa12194c1fc69215b8029342cdb60ea5736be8288",
    ),
    "faulted": (
        dict(rate=0.2),
        "b987efd09bcac04a8772c944dca15599afe0ff298720d88d160614fcbcf1d34e",
    ),
}


def test_key_is_stable_across_processes():
    specs = {
        kind: JobSpec(kind=kind, **params)
        for kind, (params, _) in PINNED_KEYS.items()
    }
    for kind, spec in specs.items():
        assert spec.key() == PINNED_KEYS[kind][1]
        assert spec.key() == JobSpec.from_dict(spec.to_dict()).key()
    # A fresh interpreter under another string-hash seed agrees.
    script = (
        "import json, sys; from repro.service import JobSpec; "
        "print(json.dumps([JobSpec.from_dict(s).key() "
        "for s in json.load(sys.stdin)]))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([spec.to_dict() for spec in specs.values()]),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(out.stdout) == [key for _, key in PINNED_KEYS.values()]


@pytest.mark.parametrize(
    "change",
    [
        dict(config=NetworkConfig(width=4)),
        dict(measure_cycles=400),
        dict(seeds=3),
        dict(base_seed=7),
        dict(design=Design.BACKPRESSURED),
        dict(workload="ocean"),
        dict(metrics=True),
    ],
)
def test_key_sees_every_result_determining_knob(change):
    base = JobSpec(kind="closed_loop", workload="apache", **FAST)
    kwargs = {"kind": "closed_loop", "workload": "apache", **FAST, **change}
    assert base.key() != JobSpec(**kwargs).key()


def test_key_excludes_engine():
    """Engines are bit-identical by contract (pinned by
    test_engine_determinism / test_vector_engine), so a vector-engine
    result answers an active-engine request."""
    active = JobSpec(kind="open_loop", rate=0.2, **FAST)
    vector = JobSpec(kind="open_loop", rate=0.2, engine="vector", **FAST)
    assert active.key() == vector.key()


def test_key_sees_fault_and_protection():
    base = JobSpec(kind="faulted", rate=0.15, **FAST)
    flapped = JobSpec(
        kind="faulted",
        rate=0.15,
        fault=FaultSpec(link_flap_rate=2e-4),
        **FAST,
    )
    unprotected = JobSpec(
        kind="faulted", rate=0.15, protection=None, **FAST
    )
    retuned = JobSpec(
        kind="faulted",
        rate=0.15,
        protection=ProtectionConfig(max_retries=9),
        **FAST,
    )
    keys = {s.key() for s in (base, flapped, unprotected, retuned)}
    assert len(keys) == 4


@pytest.mark.parametrize(
    "name, nested",
    [("fault", f) for f in dataclasses.fields(FaultSpec)]
    + [("protection", f) for f in dataclasses.fields(ProtectionConfig)],
    ids=lambda value: getattr(value, "name", value),
)
def test_every_nested_field_survives_the_wire(name, nested):
    """Workers simulate ``from_dict(to_dict(spec))`` and the result is
    stored under ``spec.key()``: a fault / protection knob the wire
    shape dropped would cache a wrong result under a content key."""
    default = getattr(JobSpec(), name)
    perturbed = dataclasses.replace(
        default, **{nested.name: getattr(default, nested.name) + 1}
    )
    spec = JobSpec(kind="faulted", rate=0.2, **{name: perturbed}, **FAST)
    wired = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert getattr(wired, name) == perturbed
    assert wired == spec
    assert wired.key() == spec.key()
    assert spec.key() != JobSpec(kind="faulted", rate=0.2, **FAST).key()


def test_kinds_never_collide():
    closed = JobSpec(kind="closed_loop", workload="apache", **FAST)
    open_ = JobSpec(kind="open_loop", rate=0.2, **FAST)
    faulted = JobSpec(kind="faulted", rate=0.2, **FAST)
    assert len({closed.key(), open_.key(), faulted.key()}) == 3


def test_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(kind="warp_drive")
    with pytest.raises(ValueError):
        JobSpec(kind="closed_loop", workload="nope")
    with pytest.raises(ValueError):
        JobSpec(kind="open_loop", rate=1.5)
    with pytest.raises(ValueError):
        JobSpec.from_dict({"kind": "open_loop", "rate": 0.2, "bogus": 1})


@pytest.mark.parametrize("design", ["afc", "nope", None])
def test_design_must_be_a_design_member(design):
    """A design name is not a ``Design``: it would key like the member
    and then fail deep inside a worker's energy model."""
    with pytest.raises(ValueError, match="design") as err:
        JobSpec(design=design)
    assert all(f"Design.{d.name}" in str(err.value) for d in Design)
    assert JobSpec.from_dict({"design": "afc"}).design is Design.AFC


@pytest.mark.parametrize(
    "mesh", [dict(width=0), dict(width=-2), dict(width=1, height=1)]
)
def test_illegal_mesh_rejected_at_admission(mesh):
    """Not inside a forked worker, after taking a queue slot."""
    with pytest.raises(ValueError, match="at least 2x2"):
        JobSpec(kind="open_loop", rate=0.2, config=NetworkConfig(**mesh))
    with pytest.raises(ValueError, match="at least 2x2"):
        JobSpec.from_dict({"kind": "open_loop", "rate": 0.2, **mesh})


@pytest.mark.parametrize(
    "kind, field, value",
    [
        # Each used to be admitted and keyed; the first two then failed
        # in the run with a TypeError, the last two inside the run.
        ("closed_loop", "seeds", 1.5),
        ("closed_loop", "warmup_cycles", 10.5),
        # Ran exactly like 1, but keyed apart from it.
        ("closed_loop", "measure_cycles", True),
        ("closed_loop", "base_seed", 0.5),
        ("open_loop", "source_queue_limit", -1),
        ("faulted", "drain_max_cycles", 0),
    ],
)
def test_out_of_domain_field_rejected_at_admission(kind, field, value):
    with pytest.raises(ValueError, match=field) as err:
        JobSpec.from_dict({"kind": kind, field: value})
    assert repr(value) in str(err.value)


# -- exact result round-trips ---------------------------------------------


def _through_json(payload: dict) -> dict:
    """Force the value through an actual JSON encode/decode, exactly
    as the store and the wire protocol do."""
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("engine", ["active", "vector"])
def test_closed_loop_result_round_trips_exactly(engine):
    runner = ExperimentRunner(
        NetworkConfig(3, 3),
        jobs=1,
        engine=engine,
        obs=ObservabilityOptions(metrics=True),
        **FAST,
    )
    result = runner.run_closed_loop(Design.AFC, WORKLOADS["apache"])
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result
    assert result_to_dict(result_from_dict(encoded)) == encoded


@pytest.mark.parametrize("engine", ["active", "vector"])
def test_open_loop_result_round_trips_exactly(engine):
    runner = ExperimentRunner(
        NetworkConfig(3, 3), jobs=1, engine=engine, **FAST
    )
    result = runner.run_open_loop(
        Design.AFC, rate=0.2, latency_groups={"corner": [0]}
    )
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result


def test_fault_result_round_trips_exactly():
    runner = ExperimentRunner(NetworkConfig(3, 3), jobs=1, **FAST)
    result = runner.run_faulted(
        Design.AFC,
        rate=0.15,
        spec=FaultSpec(link_flap_rate=2e-4, bit_error_rate=1e-4),
        drain_max_cycles=5_000,
    )
    encoded = _through_json(result_to_dict(result))
    assert result_from_dict(encoded) == result


def test_sample_round_trips_exactly():
    spec = JobSpec(kind="open_loop", rate=0.2, metrics=True, **FAST)
    sample = spec.run_seed(0)
    encoded = _through_json(sample_to_dict(sample))
    assert sample_from_dict(encoded) == sample


# -- stores written by earlier commits stay readable ----------------------

PARENT_STORE = Path(__file__).parent / "fixtures" / "parent_store"


@pytest.mark.parametrize(
    "key",
    sorted(p.stem for p in PARENT_STORE.glob("objects/*/*.json")),
    ids=lambda key: key[:8],
)
def test_parent_written_store_loads_and_reencodes_identically(key, tmp_path):
    """``fixtures/parent_store`` holds one object and one seed partial
    per kind, written by the commit before the registry refactor.  The
    codec must load them, re-encode them byte-identically in canonical
    JSON, and today's simulation of the stored spec must still produce
    exactly that sample and result."""
    store = ResultStore(shutil.copytree(PARENT_STORE, tmp_path / "store"))
    record = store.get(key)
    spec = JobSpec.from_dict(record["spec"])
    assert spec.kind == record["kind"] and spec.key() == key

    result = result_from_dict(record["result"])
    assert canonical_json(result_to_dict(result)) == canonical_json(
        record["result"]
    )
    (stored_sample,) = store.partial_seeds(key).values()
    sample = sample_from_dict(stored_sample)
    assert canonical_json(sample_to_dict(sample)) == canonical_json(
        stored_sample
    )
    assert spec.run_seed(0) == sample
    assert spec.aggregate([sample]) == result


# -- the store -------------------------------------------------------------


def test_store_put_get_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec(
        kind="open_loop",
        rate=0.2,
        warmup_cycles=100,
        measure_cycles=300,
        seeds=1,
    )
    result = spec.aggregate([spec.run_seed(0)])
    key = spec.key()
    assert key not in store
    record = store.put(key, spec.kind, spec.to_dict(), result_to_dict(result))
    assert key in store
    assert store.get(key) == record
    assert result_from_dict(store.get(key)["result"]) == result
    assert list(store.keys()) == [key]
    assert len(store) == 1


def test_damaged_object_stops_being_counted(tmp_path):
    """``keys()`` and ``len`` agree with ``get``: once ``get`` finds an
    object that does not decode, it is no longer listed, and ``put``
    still writes a fresh one."""
    store = ResultStore(tmp_path)
    key = "ab" * 32
    store.put(key, "open_loop", {}, {"x": 1})
    path = tmp_path / "objects" / key[:2] / f"{key}.json"
    path.write_text(path.read_text()[:10])
    assert store.get(key) is None
    assert len(store) == 0
    assert key not in list(store.keys())
    assert key not in store
    record = store.put(key, "open_loop", {}, {"x": 1})
    assert store.get(key) == record
    assert list(store.keys()) == [key]


def test_store_rejects_garbage_keys(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(ValueError):
        store.get("../../../etc/passwd")


def test_store_survives_reopen(tmp_path):
    store = ResultStore(tmp_path)
    store.put("ab" * 32, "open_loop", {"spec": 1}, {"kind": "open_loop"})
    again = ResultStore(tmp_path)
    assert ("ab" * 32) in again
    assert again.get("ab" * 32)["spec"] == {"spec": 1}


def test_partials_checkpoint_and_tolerate_torn_tail(tmp_path):
    store = ResultStore(tmp_path)
    key = "cd" * 32
    store.checkpoint_seed(key, 0, {"kind": "x", "value": 1})
    store.checkpoint_seed(key, 2, {"kind": "x", "value": 3})
    # A crash mid-append leaves a torn final line; readers drop it.
    with open(
        tmp_path / "partials" / f"{key}.jsonl", "a", encoding="utf-8"
    ) as handle:
        handle.write('{"seed_index": 5, "sam')
    seeds = store.partial_seeds(key)
    assert set(seeds) == {0, 2}
    assert seeds[2] == {"kind": "x", "value": 3}
    store.clear_partials(key)
    assert store.partial_seeds(key) == {}
