"""System configuration (Table II of the paper) and design registry.

The five *designs* compared in the paper's evaluation are:

* ``BACKPRESSURED`` — the baseline credit-based virtual-channel router
  with the charitable 0-cycle VC allocation of Section II.
* ``BACKPRESSURELESS`` — the BLESS/Chaos-style flit-by-flit deflection
  router with randomized (priority-free) port allocation.
* ``AFC`` — the paper's adaptive router.
* ``AFC_ALWAYS_BACKPRESSURED`` — AFC with adaptation disabled, pinned to
  its backpressured (lazy-VC, half-buffer) mode; isolates the lazy-VC
  mechanism from the adaptation mechanism (Section V-A).
* ``BACKPRESSURED_IDEAL_BYPASS`` — the baseline router with *all* buffer
  dynamic energy elided in accounting; a lower bound on buffer-bypass
  energy optimisations (Section V-A).  Identical timing to the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Tuple

from ..domain import Each, Integer, Only, Real, validate
from .flit import NUM_VNETS, VirtualNetwork
from .topology import SIDE, Mesh, RouterClass


class Design(Enum):
    """Router/flow-control design under evaluation.

    Beyond the paper's five evaluated configurations, three further
    designs from its Sections II and VI discussion are implemented:

    * ``BACKPRESSURELESS_PRIORITY`` — deflection with hardware age
      priorities (oldest flit never misrouted), the deterministic
      livelock-freedom variant the paper argues is unnecessary;
    * ``BACKPRESSURELESS_DROPPING`` — the SCARAB-style variant that
      drops (and retransmits) rather than deflects on contention, which
      the paper notes "saturates at lower loads";
    * ``BACKPRESSURED_BYPASS`` — a realistic buffer-bypass baseline
      (Wang et al. [1]) that elides buffer reads/writes only for flits
      that cut through an empty queue, sitting between the plain
      baseline and the ideal-bypass bound.
    """

    BACKPRESSURED = "backpressured"
    BACKPRESSURELESS = "backpressureless"
    AFC = "afc"
    AFC_ALWAYS_BACKPRESSURED = "afc_always_backpressured"
    BACKPRESSURED_IDEAL_BYPASS = "backpressured_ideal_bypass"
    BACKPRESSURELESS_PRIORITY = "backpressureless_priority"
    BACKPRESSURELESS_DROPPING = "backpressureless_dropping"
    BACKPRESSURED_BYPASS = "backpressured_bypass"

    @property
    def is_backpressured_baseline(self) -> bool:
        """True for designs that use the baseline per-packet VC router."""
        return self in (
            Design.BACKPRESSURED,
            Design.BACKPRESSURED_IDEAL_BYPASS,
            Design.BACKPRESSURED_BYPASS,
        )

    @property
    def is_afc_family(self) -> bool:
        return self in (Design.AFC, Design.AFC_ALWAYS_BACKPRESSURED)

    @property
    def is_deflection_family(self) -> bool:
        """Deflection-based backpressureless designs (keep every flit
        moving; no buffers)."""
        return self in (
            Design.BACKPRESSURELESS,
            Design.BACKPRESSURELESS_PRIORITY,
        )

    @property
    def is_backpressureless(self) -> bool:
        """Any design without credit backpressure on network ports."""
        return self.is_deflection_family or self is (
            Design.BACKPRESSURELESS_DROPPING
        )


#: Control bits carried per flit by each design (Section IV): the
#: baseline needs VC ids only; backpressureless needs destination,
#: flit-number and MSHR id for flit-by-flit routing; AFC needs both sets.
CONTROL_BITS: Dict[Design, int] = {
    Design.BACKPRESSURED: 9,
    Design.BACKPRESSURED_IDEAL_BYPASS: 9,
    Design.BACKPRESSURED_BYPASS: 9,
    Design.BACKPRESSURELESS: 13,
    # Age-priority deflection carries an age/timestamp field per flit —
    # one of the costs of deterministic livelock freedom.
    Design.BACKPRESSURELESS_PRIORITY: 21,
    Design.BACKPRESSURELESS_DROPPING: 13,
    Design.AFC: 17,
    Design.AFC_ALWAYS_BACKPRESSURED: 17,
}


@dataclass(frozen=True)
class ContentionThresholds:
    """Hysteresis pair for AFC's local contention mechanism.

    ``high`` triggers the forward (to backpressured) switch; ``low`` is
    the ceiling below which the reverse switch is permitted.  Values are
    EWMA-smoothed flits-traversed-per-cycle (Section IV gives 1.8/1.2 for
    corners, 2.1/1.3 for edges, 2.2/1.7 for center routers).
    """

    high: float = Real(0.0, open_low=True).field()
    low: float = Real(0.0, open_low=True).field()

    def __post_init__(self) -> None:
        validate(self)
        if not self.low < self.high:
            raise ValueError(
                f"need 0 < low < high, got low={self.low}, high={self.high}"
            )


class ThresholdTable(dict):
    """A read-only ``{RouterClass: ContentionThresholds}``: it hashes by
    value, so a :class:`NetworkConfig` does too (equal configs key one
    job and one grid cell), and no holder can edit a table it shares."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a threshold table is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


#: Paper's experimentally determined thresholds (Section IV).
DEFAULT_THRESHOLDS: Dict[RouterClass, ContentionThresholds] = ThresholdTable(
    {
        RouterClass.CORNER: ContentionThresholds(high=1.8, low=1.2),
        RouterClass.EDGE: ContentionThresholds(high=2.1, low=1.3),
        RouterClass.CENTER: ContentionThresholds(high=2.2, low=1.7),
    }
)


@dataclass(frozen=True)
class NetworkConfig:
    """All network parameters of Table II plus design-independent knobs.

    The defaults reproduce the paper's simulated machine: a 3x3 mesh,
    32-bit data flits, 2-cycle links, 2 virtual control networks plus a
    data network, baseline (2 + 2 + 4) VCs of depth 8, and AFC
    (8 + 8 + 16) one-flit VCs.
    """

    width: int = SIDE.field(3)
    height: int = SIDE.field(3)

    # -- timing -----------------------------------------------------------
    #: Link traversal latency L in cycles.
    link_latency: int = Integer(1).field(2)
    #: Router pipeline depth (Table I: 2 stages for every design); no
    #: router is modelled with another depth.
    router_stages: int = Only(2).field(2)

    # -- flit geometry ------------------------------------------------------
    #: Flit width scales every energy term, negative joules included.
    data_bits: int = Integer(1).field(32)
    #: Control packet length in flits (request / short ack); every
    #: packet carries at least its head flit.
    control_packet_flits: int = Integer(1).field(2)
    #: Data packet length in flits: a 64-byte line over 32-bit flits plus
    #: two header/command flits.
    data_packet_flits: int = Integer(1).field(18)

    # -- baseline buffer layout (per input port) ----------------------------
    #: VCs per virtual network: (control-req, control-resp, data).
    baseline_vcs: Tuple[int, int, int] = Each(Integer(1)).field((2, 2, 4))
    baseline_vc_depth: int = Integer(1).field(8)

    # -- AFC buffer layout (per input port) ---------------------------------
    #: One-flit VCs per virtual network under lazy VC allocation.
    afc_vcs: Tuple[int, int, int] = Each(Integer(1)).field((8, 8, 16))
    #: Lazy VC allocation holds one flit per VC; any other depth would
    #: change only the leakage bill.
    afc_vc_depth: int = Only(1).field(1)

    # -- endpoint bandwidth --------------------------------------------------
    #: Flits per cycle the local ejection port can sink.  Two flits per
    #: cycle keeps the MSHR receive path from becoming the bottleneck at
    #: the commercial workloads' ~0.78 flits/node/cycle loads (a
    #: single-flit ejection port would saturate every design at the
    #: endpoint rather than in the fabric under study).  With none, no
    #: design can ever drain.
    eject_bandwidth: int = Integer(1).field(2)
    #: Flits per cycle the local injection port can source.  Every
    #: router injects exactly one flit per cycle; any other value is
    #: rejected rather than silently simulated as 1.
    inject_bandwidth: int = Only(1).field(1)

    # -- AFC adaptation ------------------------------------------------------
    #: Load is averaged over this many cycles before EWMA smoothing.
    load_window: int = Integer(1).field(4)
    #: EWMA weight on the old value (Section IV: 0.99).
    ewma_alpha: float = Real(0.0, 1.0, open_low=True, open_high=True).field(0.99)
    #: Gossip threshold X: force a forward switch when a backpressured
    #: neighbour has fewer than X free slots.  Must be >= 2L; the paper
    #: uses exactly 2L.
    gossip_threshold: int = Integer(2).field(4)
    thresholds: Dict[RouterClass, ContentionThresholds] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        # Before the cross-field rules: a fractional latency put flits
        # on cycles the event wheel never reaches, a fractional packet
        # length or VC count died later with a bare TypeError.
        validate(self)
        if self.gossip_threshold < 2 * self.link_latency:
            raise ValueError(
                "gossip threshold must be >= 2L for correctness "
                f"(got {self.gossip_threshold}, 2L = {2 * self.link_latency})"
            )
        for name in ("baseline_vcs", "afc_vcs"):
            vcs = getattr(self, name)
            if len(vcs) != NUM_VNETS:
                raise ValueError(
                    f"{name} needs one entry per virtual network "
                    f"({NUM_VNETS}: "
                    f"{', '.join(v.name for v in VirtualNetwork)}), "
                    f"got {len(vcs)}"
                )
        if type(self.thresholds) is not ThresholdTable:
            object.__setattr__(
                self, "thresholds", ThresholdTable(self.thresholds)
            )
        missing = [c.name for c in RouterClass if c not in self.thresholds]
        if missing:
            raise ValueError(
                "thresholds needs an entry for every RouterClass "
                f"(missing {', '.join(missing)})"
            )

    # -- derived quantities ----------------------------------------------
    @property
    def mesh(self) -> Mesh:
        return Mesh(self.width, self.height)

    def flit_bits(self, design: Design) -> int:
        """Total flit width (data + control) for ``design``."""
        return self.data_bits + CONTROL_BITS[design]

    def buffer_flits_per_port(self, design: Design) -> int:
        """Input-buffer capacity per physical port, in flits.

        Baseline: (2 + 2 + 4) x 8 = 64 flits.  AFC: 8 + 8 + 16 = 32
        one-flit VCs — the factor-of-two reduction enabled by lazy VC
        allocation (Section III-E).  Backpressureless routers carry no
        input buffers (pipeline latches only).
        """
        if design.is_backpressureless:
            return 0
        if design.is_afc_family:
            return sum(self.afc_vcs) * self.afc_vc_depth
        return sum(self.baseline_vcs) * self.baseline_vc_depth

    def vcs_for(self, design: Design) -> Tuple[int, int, int]:
        """The per-vnet VC layout ``design``'s routers are built with.

        Adaptive AFC needs ``2L + 1`` VCs per virtual network: a router
        switching forward keeps deflecting for a ``2L + 1``-cycle window
        (``ModeController.transition_window``) in which every flit a
        neighbour sent before it learnt of the switch may have to be
        emergency-buffered — up to one per cycle per input port, all of
        one vnet in the worst case.  Fewer slots can overflow before a
        single credit is spent (docs/FLOW_CONTROL.md).  The
        always-backpressured variant never switches and takes any
        layout.
        """
        if design is Design.AFC:
            need = 2 * self.link_latency + 1
            if min(self.afc_vcs) < need:
                raise ValueError(
                    f"afc_vcs={self.afc_vcs} cannot serve adaptive AFC at "
                    f"link_latency={self.link_latency}: every virtual "
                    f"network needs >= 2 * link_latency + 1 = {need} VCs "
                    "to hold the flits of one mode-switch window"
                )
        if design.is_afc_family:
            return self.afc_vcs
        if design.is_backpressured_baseline:
            return self.baseline_vcs
        raise ValueError(f"{design} has no VC layout")

    def vc_depth_for(self, design: Design) -> int:
        if design.is_afc_family:
            return self.afc_vc_depth
        if design.is_backpressured_baseline:
            return self.baseline_vc_depth
        raise ValueError(f"{design} has no VC layout")

    def packet_flits(self, is_data: bool) -> int:
        return self.data_packet_flits if is_data else self.control_packet_flits

    def scaled(self, width: int, height: int) -> "NetworkConfig":
        """A copy of this config on a different mesh (e.g. the 8x8 mesh
        of the spatial-variation experiment)."""
        return replace(self, width=width, height=height)


#: Table IV / Section IV closed-loop machine parameters that belong to
#: the memory system rather than the network; collected here so that the
#: harness has a single source of truth.
@dataclass(frozen=True)
class MachineConfig:
    """CMP parameters of Table II outside the network itself."""

    #: With no MSHR nothing is ever issued or admitted.
    l1_mshrs: int = Integer(1).field(16)
    l2_mshrs: int = Integer(1).field(16)
    #: A bank completes in a later cycle than it admits.
    l2_latency: int = Integer(1).field(12)
    memory_latency: int = Integer(0).field(250)
    #: Fraction of L2 accesses that miss to memory (adds memory_latency).
    l2_miss_rate: float = Real(0.0, 1.0).field(0.10)

    def __post_init__(self) -> None:
        validate(self)


DEFAULT_NETWORK_CONFIG = NetworkConfig()
DEFAULT_MACHINE_CONFIG = MachineConfig()
