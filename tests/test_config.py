"""Unit tests for the system configuration (Table II)."""

import pytest

from repro import (
    ContentionThresholds,
    Design,
    Network,
    NetworkConfig,
    RouterClass,
)
from repro.analysis.sanitizer import Sanitizer
from repro.network.config import CONTROL_BITS, DEFAULT_THRESHOLDS, MachineConfig
from repro.traffic.patterns import Hotspot
from repro.traffic.synthetic import OpenLoopSource, PacketMix


class TestDesign:
    def test_baseline_classification(self):
        assert Design.BACKPRESSURED.is_backpressured_baseline
        assert Design.BACKPRESSURED_IDEAL_BYPASS.is_backpressured_baseline
        assert not Design.AFC.is_backpressured_baseline
        assert not Design.BACKPRESSURELESS.is_backpressured_baseline

    def test_afc_family(self):
        assert Design.AFC.is_afc_family
        assert Design.AFC_ALWAYS_BACKPRESSURED.is_afc_family
        assert not Design.BACKPRESSURED.is_afc_family


class TestFlitWidths:
    """Section IV: 41 / 45 / 49-bit flits."""

    def test_control_bits(self):
        assert CONTROL_BITS[Design.BACKPRESSURED] == 9
        assert CONTROL_BITS[Design.BACKPRESSURELESS] == 13
        assert CONTROL_BITS[Design.AFC] == 17

    def test_total_widths(self):
        cfg = NetworkConfig()
        assert cfg.flit_bits(Design.BACKPRESSURED) == 41
        assert cfg.flit_bits(Design.BACKPRESSURELESS) == 45
        assert cfg.flit_bits(Design.AFC) == 49
        assert cfg.flit_bits(Design.AFC_ALWAYS_BACKPRESSURED) == 49
        assert cfg.flit_bits(Design.BACKPRESSURED_IDEAL_BYPASS) == 41


class TestBufferLayouts:
    """Section IV: baseline 64 flits/port, AFC 32 (halved by lazy VCA)."""

    def test_baseline_64_flits(self):
        cfg = NetworkConfig()
        assert cfg.buffer_flits_per_port(Design.BACKPRESSURED) == 64

    def test_afc_32_flits(self):
        cfg = NetworkConfig()
        assert cfg.buffer_flits_per_port(Design.AFC) == 32

    def test_halving_factor(self):
        cfg = NetworkConfig()
        assert (
            cfg.buffer_flits_per_port(Design.BACKPRESSURED)
            == 2 * cfg.buffer_flits_per_port(Design.AFC)
        )

    def test_backpressureless_has_no_buffers(self):
        assert NetworkConfig().buffer_flits_per_port(
            Design.BACKPRESSURELESS
        ) == 0

    def test_vc_layouts(self):
        cfg = NetworkConfig()
        assert cfg.vcs_for(Design.BACKPRESSURED) == (2, 2, 4)
        assert cfg.vcs_for(Design.AFC) == (8, 8, 16)
        assert cfg.vc_depth_for(Design.BACKPRESSURED) == 8
        assert cfg.vc_depth_for(Design.AFC) == 1

    def test_backpressureless_has_no_vc_layout(self):
        with pytest.raises(ValueError):
            NetworkConfig().vcs_for(Design.BACKPRESSURELESS)


class TestValidation:
    def test_gossip_threshold_must_cover_2l(self):
        with pytest.raises(ValueError, match="2L"):
            NetworkConfig(link_latency=3, gossip_threshold=5)

    def test_gossip_threshold_exactly_2l_ok(self):
        cfg = NetworkConfig(link_latency=3, gossip_threshold=6)
        assert cfg.gossip_threshold == 6

    def test_ewma_alpha_range(self):
        with pytest.raises(ValueError):
            NetworkConfig(ewma_alpha=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(ewma_alpha=0.0)

    def test_link_latency_positive(self):
        with pytest.raises(ValueError):
            NetworkConfig(link_latency=0)

    def test_every_vnet_needs_a_vc(self):
        with pytest.raises(ValueError):
            NetworkConfig(baseline_vcs=(0, 2, 4))

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [2.5, "4", True, 1])
    def test_mesh_sides_checked_where_they_are_set(self, field, value):
        # Not deep inside Network construction, and naming the field.
        with pytest.raises(ValueError, match=field) as raised:
            NetworkConfig(**{field: value})
        assert str(value) in str(raised.value)

    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            ContentionThresholds(high=1.0, low=1.5)
        with pytest.raises(ValueError):
            ContentionThresholds(high=1.0, low=0.0)


class TestDefaults:
    def test_paper_thresholds(self):
        """Section IV's experimentally determined values."""
        assert DEFAULT_THRESHOLDS[RouterClass.CORNER] == ContentionThresholds(
            1.8, 1.2
        )
        assert DEFAULT_THRESHOLDS[RouterClass.EDGE] == ContentionThresholds(
            2.1, 1.3
        )
        assert DEFAULT_THRESHOLDS[RouterClass.CENTER] == ContentionThresholds(
            2.2, 1.7
        )

    def test_table_ii_network(self):
        cfg = NetworkConfig()
        assert (cfg.width, cfg.height) == (3, 3)
        assert cfg.link_latency == 2
        assert cfg.data_bits == 32
        assert cfg.router_stages == 2
        assert cfg.ewma_alpha == 0.99
        assert cfg.load_window == 4
        assert cfg.gossip_threshold == 2 * cfg.link_latency

    def test_table_ii_machine(self):
        machine = MachineConfig()
        assert machine.l1_mshrs == 16
        assert machine.l2_mshrs == 16
        assert machine.l2_latency == 12
        assert machine.memory_latency == 250

    def test_packet_sizes(self):
        cfg = NetworkConfig()
        assert cfg.packet_flits(is_data=True) == 18
        assert cfg.packet_flits(is_data=False) == 2

    def test_scaled_mesh(self):
        cfg = NetworkConfig().scaled(8, 8)
        assert cfg.mesh.num_nodes == 64
        assert cfg.link_latency == NetworkConfig().link_latency


class TestKnobValidation:
    """Knobs no router honours, or that break every router, are
    rejected at construction with a message naming the field."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("inject_bandwidth", 2),  # every design injects 1 flit/cycle
            ("inject_bandwidth", 0),
            ("eject_bandwidth", 0),  # nothing would ever drain
            ("load_window", 0),  # ZeroDivisionError in the load average
            ("baseline_vc_depth", 0),
            ("afc_vc_depth", 0),
            # Read by the leakage bill only: LazyInputPort holds one
            # flit per VC whatever this says.
            ("afc_vc_depth", 2),
            ("router_stages", 1),  # read by no line of the simulator
            ("router_stages", 3),
            ("data_bits", 0),
            ("data_bits", -32),  # billed negative joules
            # One entry per virtual network: a short tuple was a bare
            # KeyError from router construction, a fourth entry never
            # held a flit but was billed leakage.
            ("afc_vcs", (8, 8)),
            ("baseline_vcs", (2, 2)),
            ("baseline_vcs", (2, 2, 4, 4)),
            ("thresholds", {}),  # was a KeyError from the first router
            (
                "thresholds",
                {RouterClass.CENTER: ContentionThresholds(2.2, 1.7)},
            ),
            # Built fine, then the first closed-loop packet died with
            # "packet must have >= 1 flit" (in a worker, under submit).
            ("control_packet_flits", 0),
            ("data_packet_flits", -3),
        ],
    )
    def test_rejected_with_the_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    def test_legal_edge_values_accepted(self):
        cfg = NetworkConfig(
            eject_bandwidth=1, load_window=1, baseline_vc_depth=1,
            control_packet_flits=1, data_packet_flits=1,
        )
        assert cfg.inject_bandwidth == 1

    def test_field_set_unchanged(self):
        """Service job keys hash the config's fields: validation must
        not add or remove any."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(NetworkConfig)] == [
            "width", "height", "link_latency", "router_stages",
            "data_bits", "control_packet_flits", "data_packet_flits",
            "baseline_vcs", "baseline_vc_depth", "afc_vcs", "afc_vc_depth",
            "eject_bandwidth", "inject_bandwidth", "load_window",
            "ewma_alpha", "gossip_threshold", "thresholds",
        ]


class TestIntegerFields:
    """Counts, widths and latencies must be integers: a fractional
    latency put events on cycles nothing ever pops (a closed loop that
    completed no transaction), a fractional packet length or VC count
    died later with a bare ``TypeError``, and ``True`` passed as 1."""

    NETWORK_FIELDS = [
        "link_latency", "router_stages", "data_bits",
        "control_packet_flits", "data_packet_flits", "baseline_vc_depth",
        "afc_vc_depth", "eject_bandwidth", "inject_bandwidth",
        "load_window", "gossip_threshold",
    ]
    MACHINE_FIELDS = ["l1_mshrs", "l2_mshrs", "l2_latency", "memory_latency"]

    @staticmethod
    def _bad(default: int, kind: str) -> object:
        return {
            "fraction": default + 0.5,
            "bool": True,
            "integral float": float(default),
        }[kind]

    @pytest.mark.parametrize("field", NETWORK_FIELDS)
    @pytest.mark.parametrize("kind", ["fraction", "bool", "integral float"])
    def test_network_field_rejects_non_integers(self, field, kind):
        value = self._bad(getattr(NetworkConfig(), field), kind)
        with pytest.raises(ValueError, match=field) as raised:
            NetworkConfig(**{field: value})
        assert repr(value) in str(raised.value)

    @pytest.mark.parametrize("field", ["baseline_vcs", "afc_vcs"])
    @pytest.mark.parametrize("entry", [1.5, True, "4"])
    def test_every_vc_count_is_an_integer(self, field, entry):
        vcs = list(getattr(NetworkConfig(), field))
        vcs[2] = entry
        with pytest.raises(ValueError, match=rf"{field}\[2\]"):
            NetworkConfig(**{field: tuple(vcs)})

    @pytest.mark.parametrize("field", MACHINE_FIELDS)
    @pytest.mark.parametrize("kind", ["fraction", "bool", "integral float"])
    def test_machine_field_rejects_non_integers(self, field, kind):
        value = self._bad(getattr(MachineConfig(), field), kind)
        with pytest.raises(ValueError, match=field) as raised:
            MachineConfig(**{field: value})
        assert repr(value) in str(raised.value)

    def test_integer_like_values_become_ints(self):
        import numpy as np

        cfg = NetworkConfig(
            link_latency=np.int64(3), gossip_threshold=np.int64(6),
            baseline_vcs=[2, 2, np.int64(4)],
        )
        assert type(cfg.link_latency) is int and cfg.link_latency == 3
        assert cfg.baseline_vcs == (2, 2, 4)
        assert all(type(n) is int for n in cfg.baseline_vcs)
        machine = MachineConfig(l2_latency=np.int64(12))
        assert type(machine.l2_latency) is int


class TestMachineConfigValidation:
    """Closed-loop machine values that crashed a run mid-way
    (``events must be scheduled in the future``), silently completed
    nothing, or were not a probability are rejected at construction."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("l1_mshrs", 0),  # 0 transactions, every cycle a stall
            ("l2_mshrs", 0),  # 0 transactions, requests stuck in banks
            ("l2_latency", 0),  # a completion scheduled for "now"
            ("memory_latency", -20),  # a miss scheduled in the past
            ("l2_miss_rate", 1.5),
        ],
    )
    def test_rejected_with_the_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: value})

    def test_legal_edge_values_accepted(self):
        MachineConfig(
            l1_mshrs=1, l2_mshrs=1, l2_latency=1, memory_latency=0,
            l2_miss_rate=1.0,
        )
        MachineConfig(l2_miss_rate=0.0)

    def test_field_set_unchanged(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(MachineConfig)] == [
            "l1_mshrs", "l2_mshrs", "l2_latency", "memory_latency",
            "l2_miss_rate",
        ]


class TestAfcWindowCapacity:
    """Adaptive AFC needs ``2L + 1`` VCs per virtual network (one
    mode-switch window of emergency writes, docs/FLOW_CONTROL.md):
    smaller layouts are refused when the network is built, admitted
    ones never over-commit a slot."""

    @pytest.mark.parametrize(
        "latency, vcs",
        [
            (1, (8, 8, 2)),
            (2, (8, 8, 3)),  # died with "lazy buffer overflow" at cycle 75
            (2, (4, 4, 4)),
            (2, (1, 1, 1)),
            (3, (8, 8, 4)),
            (4, (8, 8, 16)),
        ],
    )
    def test_small_layouts_rejected_for_adaptive_afc(self, latency, vcs):
        config = NetworkConfig(
            afc_vcs=vcs,
            link_latency=latency,
            gossip_threshold=max(4, 2 * latency),
        )
        with pytest.raises(ValueError, match="afc_vcs.*link_latency"):
            Network(config, Design.AFC, seed=2)
        # No mode switch, no window: the pinned twin takes any layout
        # (the Section III-E ablation sweeps (4, 4, 8) on it).
        Network(config, Design.AFC_ALWAYS_BACKPRESSURED, seed=2)

    @pytest.mark.parametrize("rate", [0.3, 0.9])
    @pytest.mark.parametrize("latency", [1, 2, 3, 4])
    def test_smallest_admitted_layout_drains_sanitizer_clean(
        self, latency, rate
    ):
        """Cache-line-only hotspot traffic floods a deflecting router
        from full backpressured neighbours with one vnet — the pattern
        that over-committed layouts up to ``4L`` VCs (six of these
        eight cases) before credits were held back while a START notice
        settles."""
        config = NetworkConfig(
            width=4,
            height=4,
            afc_vcs=(2 * latency + 1,) * 3,
            link_latency=latency,
            gossip_threshold=max(4, 2 * latency),
        )
        net = Network(config, Design.AFC, seed=2)
        source = OpenLoopSource(
            net,
            rate,
            pattern=Hotspot(net.mesh, hotspot=5),
            mix=PacketMix(data_packet_fraction=1.0),
            seed=2,
            source_queue_limit=100,
        )
        with Sanitizer(net):
            source.run(300)
            net.drain()
        net.check_flit_conservation()
        assert net.stats.mode(5).forward_switches > 0
