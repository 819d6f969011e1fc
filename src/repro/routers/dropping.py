"""Dropping (SCARAB-style) backpressureless router.

The second backpressureless variant of Section II: on contention, one
flit proceeds on the desired output and the losers are *dropped* rather
than deflected.  A dropped flit is retransmitted from its source — the
NACK travels back on a dedicated control circuit (SCARAB's circuit-
switched NACK network), modelled here as a fixed per-hop delay after
which the flit reappears at the head of its source queue.

The paper evaluates the *deflection* variant "because the variant that
drops packets saturates at lower loads, even according to the original
paper"; this implementation exists so that claim can be measured
(``benchmarks/bench_backpressureless_variants.py``).  Drops are at
SCARAB's *packet* granularity: any flit lost to contention poisons its
whole packet (epoch bump), sibling flits already in flight are
discarded at the destination, and the source retransmits the packet in
full once the NACK arrives — so a single collision costs an entire
packet's worth of work, which is exactly why this variant saturates
earlier than deflection.

Differences from the deflection router:

* losers of port allocation are dropped, never misrouted — flits only
  ever move along productive ports, so delivered flits take minimal
  paths;
* a flit at its destination whose ejection port is busy is likewise
  dropped (there is nowhere productive to send it);
* injection requires a free *productive* port.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..network.config import Design
from ..network.flit import Flit, VNETS
from ..network.topology import Direction
from .backpressureless import DeflectionRouter


class DroppingRouter(DeflectionRouter):
    """Backpressureless router that drops on contention: the deflection
    router's latch stage under a cycle of its own."""

    design = Design.BACKPRESSURELESS_DROPPING
    #: A packet dropped this many times is served with absolute
    #: oldest-first priority until it completes (starvation escape).
    ESCALATION_EPOCH = 6
    #: Set by the Network: notifies it that a flit was dropped so the
    #: whole packet is retransmitted after the NACK delay.
    drop_notify = None
    STAGES = {"step": ("_eject_or_drop", "_inject")}

    # -- per-cycle operation ----------------------------------------------------
    def step(self, cycle: int) -> None:
        if self._net_ports is None:
            self._cache_tables()
        if not self._latched and (self.ni is None or not self.ni.has_pending):
            return  # idle: the full path below would do exactly nothing
        resident = self._latched
        self._latched = []
        remaining = self._eject_or_drop(resident, cycle)
        assignment: Dict[Direction, Flit] = {}
        # Randomized service in the common case; packets that have been
        # dropped ESCALATION_EPOCH times get absolute oldest-first
        # priority.  Without the escalation, packets retransmitting
        # toward the same region can poison each other indefinitely —
        # packet-granularity drops need a starvation escape hatch that
        # per-flit deflection does not.
        escalated = [
            f for f in remaining if f.packet.epoch >= self.ESCALATION_EPOCH
        ]
        normal = [
            f for f in remaining if f.packet.epoch < self.ESCALATION_EPOCH
        ]
        escalated.sort(key=lambda f: (f.packet.created_at, f.pid, f.seq))
        self.rng.shuffle(normal)
        order = escalated + normal
        prod_row = self._prod_row
        out_channels = self.out_channels
        for flit in order:
            chosen: Optional[Direction] = None
            for port in prod_row[flit.dst]:
                if port in out_channels and port not in assignment:
                    chosen = port
                    break
            if chosen is None:
                self._drop(flit, cycle)
            else:
                assignment[chosen] = flit
        self._inject(assignment, cycle)
        for out_port, flit in assignment.items():
            self.stats.record_switch_traversal()
            self._dispatch(flit, out_port, cycle)
        dispatched = len(assignment)
        energy = self.energy
        energy.latches += len(resident)
        energy.arbitrations += dispatched
        energy.links += dispatched
        energy.crossings += dispatched

    def _eject_or_drop(self, resident: List[Flit], cycle: int) -> List[Flit]:
        candidates = [f for f in resident if f.dst == self.node]
        if not candidates:
            return resident
        # Oldest packet first: under sustained ejection contention the
        # oldest packet's flits always win, so it completes and leaves —
        # without this, packets converging on one node can poison each
        # other's retransmissions indefinitely (a livelock the
        # deflection variant cannot have).
        candidates.sort(key=lambda f: (f.packet.created_at, f.pid, f.seq))
        gone = set()
        ejecting = candidates[: self.config.eject_bandwidth]
        for flit in ejecting:
            self.stats.record_switch_traversal()
            self._eject(flit, cycle)
            gone.add(flit)
        self.energy.crossings += len(ejecting)
        for flit in candidates[self.config.eject_bandwidth:]:
            # At the destination with the ejection port busy: there is
            # no productive network port, so the flit is dropped.
            self._drop(flit, cycle)
            gone.add(flit)
        return [f for f in resident if f not in gone]

    def _drop(self, flit: Flit, cycle: int) -> None:
        if self.drop_notify is None:
            raise RuntimeError(
                "dropping router has no retransmission path wired"
            )
        self.stats.record_drop()
        # NACK circuit back to the source: one link hop (1 + L) per hop
        # of distance, minimum one cycle; the whole packet is then
        # retransmitted (SCARAB drops at packet granularity).
        delay = max(
            1,
            self.mesh.hop_distance(self.node, flit.src)
            * (1 + self.config.link_latency),
        )
        self.energy.credit(self.node)  # NACK signalling
        self.drop_notify(flit, cycle + delay)

    def _inject(self, assignment: Dict[Direction, Flit], cycle: int) -> None:
        """Inject one flit if a productive port is still free."""
        if self.ni is None or not self.ni.has_pending:
            return
        vnets = VNETS
        for offset in range(len(vnets)):
            vnet = vnets[(self._inject_rr + offset) % len(vnets)]
            flit = self.ni.peek(vnet)
            if flit is None:
                continue
            chosen: Optional[Direction] = None
            for port in self._prod_row[flit.dst]:
                if port in self.out_channels and port not in assignment:
                    chosen = port
                    break
            if chosen is None:
                continue  # this vnet's head flit cannot progress
            assignment[chosen] = self.ni.pop(vnet, cycle)
            self._inject_rr = (self._inject_rr + offset + 1) % len(vnets)
            return
