"""A ``JobSpec`` names a whole run: its network config and its traffic
pattern are fields, on the wire and in the key.

Keys are content addresses, so they must not move: every spec that was
legal before specs carried a config keeps the hex key recorded for it
then, and the wire form of those days (``width``/``height`` at the top
level) still decodes to the same spec.
"""

from dataclasses import replace

import pytest

from repro import ContentionThresholds, Design, NetworkConfig
from repro.harness.experiment import MAIN_DESIGNS
from repro.service import JobSpec
from repro.service.canonical import canonicalize
from repro.service.jobs import run_specs
from repro.service.serialize import decode
from repro.traffic.patterns import HotspotSpec
from repro.traffic.workloads import WORKLOADS

#: The closed-loop specs of the service front-door workload (every
#: workload x the Fig. 2 designs, 300 + 1 200 cycles, base seed 100)
#: and their keys, recorded before specs carried a config.
FRONTDOOR_KEYS = [
    "ad21c97c242bf7eb809317813d0c70fcf95674f36f6571559fd7552d4b742bd5",
    "97c18bfa3a5e81dbfe0f81f6685a19790ae9635693d26803eb140d63625a284e",
    "b60397b592188f558b43339f65221992965f09fe02874847a1989beb1d5022aa",
    "9639be754b742755318eb76998dea10d11d83e4cc2bfcbe006641f031f6e82c6",
    "39d8d74a97e60040df6adf920ae54b8a2db2ad5284bd486d4e1dde10f1fc57e4",
    "34278e2e1380b800cbe24f4ac41c30ad5b77a5cdedfe615ab1121d261f370e32",
    "a464d005c47cd269de03515df5535dbbd273085003994a1a6a7137f6c717fc5c",
    "22a9a06d10256e2efab83a30166e36b6e2e936b363e2976e8f53ddd2a82189ad",
    "736081317653cc9b6c4ea6749133e700d008b127808d4d131df08385461b7da6",
    "678c6a5db635dc60bcb1a8f356d2b367ddb4b62bb29059d644b6d504009d688e",
    "51d54a02fdfba10b448d16a019f7881270a05abc4237b238a804513790b57f00",
    "8849cb5ed21b4b2b863850c3ca6febc04b8d7ac5d8ac31ba6cff98cefe290593",
    "311f333e2ca82362f9f1e58b6e4e89d1abee28260626d00ae4985473875ee8c4",
    "79b4e1b0ecbd542ce3d9b04063e95b18eee8d1d5de0cbf77c47bce683718055c",
    "a06b98c127dcaf319483b2669bb56075e2482112f63553914e51def12ac2bfbb",
    "8170bf5f6accc3c87808080397121008dec9cb9eade6d8afd92926962c18b646",
    "703ce05ec97dc8eb024d29954b66eb6dab1beb2bb3a3f05f3c95e0093f76697f",
    "ef5921ccc17e1579e3b982356e5ba3d7856a12f84e0cb4d738dd0b0870fb8783",
    "deeb74428667c0541254d4be6e4b90d1a820eb1ed8f8de5d9c5ee8a7e434f3f4",
    "875a35e0fae20a46cc02cdcd9293114a2710af8c8fbb7ce0fc4166ff55493707",
    "fba05fb3067cfe859d46d336758237430d3107c2826a0ff011605931f4d07a8d",
    "eafea47a76e5520f1da5777088703ea506eb4fd3f081bc361260c8036fd18aff",
    "40b0cd10d34c27d78314f9a0f6e3b0a433e639a596901140988244988a107998",
    "8e89de9f11c5f9cda0c341fde128523d0e4c817aacd0bf7d8282511d9dd5c899",
]

#: An open-loop spec on a 4x4 mesh, as the wire carried it before specs
#: carried a config, and its key then.
LEGACY_OPEN_LOOP = {
    "kind": "open_loop",
    "design": "afc",
    "width": 4,
    "height": 4,
    "warmup_cycles": 200,
    "measure_cycles": 600,
    "seeds": 1,
    "base_seed": 0,
    "engine": "active",
    "metrics": False,
    "rate": 0.3,
    "source_queue_limit": 500,
}
LEGACY_OPEN_LOOP_KEY = (
    "477f0328e626f19503a5c3f7f03f4514b6750d7e5a541e72d1799746cbec7118"
)

FAST = dict(warmup_cycles=200, measure_cycles=600)


def _open_loop(**fields):
    return JobSpec(**{"kind": "open_loop", "rate": 0.3, **FAST, **fields})


def test_frontdoor_keys_are_the_recorded_ones():
    specs = [
        JobSpec(
            kind="closed_loop",
            design=design,
            workload=workload,
            warmup_cycles=300,
            measure_cycles=1_200,
            seeds=1,
            base_seed=100,
        )
        for workload in WORKLOADS
        for design in MAIN_DESIGNS
    ]
    assert [spec.key() for spec in specs] == FRONTDOOR_KEYS
    for spec in specs:
        assert JobSpec.from_dict(spec.to_dict()) == spec


def test_open_loop_key_is_the_recorded_one():
    spec = _open_loop(
        config=NetworkConfig(width=4, height=4), source_queue_limit=500
    )
    assert spec.key() == LEGACY_OPEN_LOOP_KEY
    assert JobSpec.from_dict(spec.to_dict()) == spec


def test_legacy_wire_dict_decodes_to_the_same_spec_and_key():
    spec = JobSpec.from_dict(LEGACY_OPEN_LOOP)
    assert spec.config == NetworkConfig(width=4, height=4)
    assert spec.key() == LEGACY_OPEN_LOOP_KEY
    assert spec == JobSpec.from_dict(
        {**spec.to_dict(), "config": {"width": 4, "height": 4}}
    )


def test_legacy_mesh_side_is_still_checked():
    with pytest.raises(ValueError, match="mesh must be at least 2x2"):
        JobSpec.from_dict({"kind": "open_loop", "rate": 0.2, "width": 1})


def test_wire_form_carries_changed_config_fields_and_the_pattern():
    spec = _open_loop(
        config=NetworkConfig(gossip_threshold=8),
        pattern=HotspotSpec(node=4, fraction=0.7),
    )
    wire = spec.to_dict()
    assert wire["config"] == {"gossip_threshold": 8}
    assert wire["pattern"] == {"node": 4, "fraction": 0.7}
    assert "config" not in _open_loop().to_dict()
    assert "pattern" not in _open_loop().to_dict()
    # only open-loop runs read a pattern
    assert "pattern" not in JobSpec().to_dict()


def test_hotspot_spec_round_trips_and_keys_apart_from_uniform():
    hot = _open_loop(pattern=HotspotSpec(node=4, fraction=0.7))
    assert JobSpec.from_dict(hot.to_dict()) == hot
    assert hot.key() != _open_loop().key()
    assert hot.key() != _open_loop(pattern=HotspotSpec(node=3)).key()


def test_hotspot_outside_the_mesh_is_refused_naming_the_field():
    with pytest.raises(ValueError, match=r"pattern\.node must be < 9.*got 9"):
        _open_loop(pattern=HotspotSpec(node=9))
    with pytest.raises(ValueError, match="pattern.node"):
        JobSpec.from_dict({**_open_loop().to_dict(), "pattern": {"node": 9}})
    big = NetworkConfig(width=4, height=4)
    assert _open_loop(config=big, pattern=HotspotSpec(node=15)).key()


def test_network_config_decodes_and_hashes():
    config = NetworkConfig(gossip_threshold=8)
    assert decode(NetworkConfig, canonicalize(config)) == config
    assert hash(config) == hash(NetworkConfig(gossip_threshold=8))
    spelled_out = NetworkConfig(thresholds=dict(NetworkConfig().thresholds))
    assert hash(spelled_out) == hash(NetworkConfig())
    with pytest.raises(TypeError, match="read-only"):
        config.thresholds[0] = config.thresholds[1]


def test_equal_specs_dedupe():
    """The sensitivity bench's ``alpha=0.99`` and ``thresholds x1.0``
    runs are the default config spelled two ways: one cell."""
    base = NetworkConfig()
    scaled = {
        cls: ContentionThresholds(high=pair.high * 1.0, low=pair.low * 1.0)
        for cls, pair in base.thresholds.items()
    }
    one = JobSpec(config=replace(base, ewma_alpha=0.99))
    two = JobSpec(config=replace(base, thresholds=scaled))
    assert one == two and hash(one) == hash(two)
    assert len({one, two, JobSpec()}) == 1
    assert one.key() == JobSpec().key()


def test_a_config_variant_changes_latency():
    """Longer links, longer latency: a config reaches the run."""
    short, long = run_specs(
        [
            _open_loop(design=Design.BACKPRESSURED, rate=0.2),
            _open_loop(
                design=Design.BACKPRESSURED,
                rate=0.2,
                config=NetworkConfig(link_latency=4, gossip_threshold=8),
            ),
        ]
    )
    assert long.avg_network_latency > short.avg_network_latency


def test_base_seed_and_engine_reach_every_cell():
    """The same seeds give the same numbers, other seeds others, and
    a vector-engine cell is the active-engine one (engines are
    bit-identical, and the key leaves the engine out)."""
    specs = [
        _open_loop(design=design, base_seed=7, source_queue_limit=500)
        for design in (Design.BACKPRESSURELESS, Design.AFC)
    ]
    seeded = run_specs(specs, jobs=2)
    assert seeded == [spec.run() for spec in specs]
    vector = [replace(spec, engine="vector") for spec in specs]
    assert run_specs(vector) == seeded
    other = run_specs([replace(spec, base_seed=0) for spec in specs])
    assert all(a != b for a, b in zip(other, seeded))
    with pytest.raises(ValueError, match="engine"):
        replace(specs[0], engine="warp")

