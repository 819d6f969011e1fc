"""The closed-loop CMP: cores + banks + network.

:class:`MemorySystem` owns one :class:`~repro.memsys.core_model.Core`
and one :class:`~repro.memsys.l2bank.L2Bank` per node, wires itself to
the network's per-node packet-delivery callbacks, and advances
everything in lock-step with the network::

    net = Network(NetworkConfig(), Design.AFC, seed=1)
    system = MemorySystem(net, WORKLOADS["apache"], seed=2)
    system.run(5_000)           # warmup
    system.begin_measurement()
    system.run(30_000)
    print(system.transactions_per_kilocycle_per_core)

Transaction flow (homes are address-interleaved, i.e. uniform over
nodes):

* miss at core C, home H == C → bank access only, no network traffic;
* miss, home H != C → GETS/GETX (control) C→H; the bank completes after
  the L2 (± memory) latency and sends DATA H→C, or with probability
  ``sharing_fraction`` forwards: FWD H→O (control), then OWNER_DATA O→C;
* a completed fill evicts a dirty line with probability
  ``dirty_writeback_fraction`` → WB (data) C→H', answered by WB_ACK.

The system holds its network, so a system held alone keeps its network
running; the network's delivery callbacks hold the system only weakly,
so hold the system for as long as the network runs.

Execution time: performance is completed transactions per cycle within
the measurement window; for a fixed amount of work this is exactly the
inverse of the paper's execution-time metric.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, DefaultDict, Dict, List, Optional

from ..network.config import DEFAULT_MACHINE_CONFIG, MachineConfig
from ..network.flit import Packet
from ..network.reassembly import CompletedPacket
from ..simulation import Network, weak_method
from ..traffic.workloads import WorkloadProfile
from .core_model import Core, Transaction
from .l2bank import BankRequest, L2Bank
from .protocol import MessageType, message_flits, message_vnet

#: ``packet.kind`` -> message class: a dict lookup per delivered packet
#: instead of an ``Enum`` value lookup.
_MESSAGE_TYPES = {mtype.value: mtype for mtype in MessageType}


class MemorySystem:
    """Closed-loop memory traffic driver for one network."""

    def __init__(
        self,
        network: Network,
        profile: WorkloadProfile,
        machine: MachineConfig = DEFAULT_MACHINE_CONFIG,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.profile = profile
        self.machine = machine
        self.rng = random.Random(f"memsys:{seed}")
        num_nodes = network.mesh.num_nodes
        self.cores: List[Core] = [
            Core(n, profile, machine, random.Random(f"core:{seed}:{n}"))
            for n in range(num_nodes)
        ]
        self.banks: List[L2Bank] = [
            L2Bank(
                n,
                machine,
                random.Random(f"bank:{seed}:{n}"),
                sharing_fraction=profile.sharing_fraction,
            )
            for n in range(num_nodes)
        ]
        #: ``(bank, completion callback)`` per node, the callback bound
        #: once here rather than per bank per cycle.  Like every hook
        #: the system hands to its parts, it holds the system weakly.
        self._bank_ports = tuple(
            (bank, weak_method(self._bank_complete, bank.node))
            for bank in self.banks
        )
        self._wheel: DefaultDict[int, List[Callable[[int], None]]] = (
            defaultdict(list)
        )
        for node in range(num_nodes):
            network.interface(node).on_packet = weak_method(
                self._on_packet, node
            )
        self._measure_start = network.cycle
        self.writebacks_issued = 0
        #: Packets handed to the network interfaces (never reset).
        self.offered_packets = 0

    # -- event wheel ----------------------------------------------------------
    def schedule(self, at_cycle: int, fn: Callable[[int], None]) -> None:
        if at_cycle <= self.network.cycle:
            raise ValueError("events must be scheduled in the future")
        self._wheel[at_cycle].append(fn)

    # -- main loop ----------------------------------------------------------------
    def tick(self) -> None:
        """Advance cores/banks one cycle (call before ``network.step``)."""
        cycle = self.network.cycle
        for fn in self._wheel.pop(cycle, ()):  # completions due now
            fn(cycle)
        schedule = self.schedule
        for bank, complete in self._bank_ports:
            if bank.queue:  # an empty bank's tick admits nothing
                bank.tick(cycle, schedule, complete)
        for core in self.cores:
            txn = core.tick(cycle)
            if txn is not None:
                self._issue(core, txn, cycle)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.tick()
            self.network.step()
        self.network.sync_bookkeeping()

    def rng_streams(self) -> tuple:
        """Every random stream the closed loop draws from: the system's
        own, then each core's, then each bank's."""
        return (
            self.rng,
            *(core.rng for core in self.cores),
            *(bank.rng for bank in self.banks),
        )

    # -- transaction flow -------------------------------------------------------------
    def _issue(self, core: Core, txn: Transaction, cycle: int) -> None:
        home = self.rng.randrange(len(self.banks))
        request = BankRequest(
            requestor=core.node, tid=txn.tid, is_write=txn.is_write
        )
        if home == core.node:
            self.banks[home].enqueue(request)
            return
        self._send(
            core.request_type(txn),
            src=core.node,
            dst=home,
            cycle=cycle,
            meta={"tid": txn.tid, "requestor": core.node},
        )

    def _bank_complete(
        self, home: int, request: BankRequest, forwarded: bool, cycle: int
    ) -> None:
        if forwarded:
            owner = self._pick_owner(exclude=request.requestor)
            meta = {"tid": request.tid, "requestor": request.requestor}
            if owner == home:
                self._owner_supply(owner, meta, cycle)
            else:
                self._send(
                    MessageType.FWD, src=home, dst=owner, cycle=cycle,
                    meta=meta,
                )
            return
        acks = 0
        if request.is_write and self.profile.invalidation_fanout > 0:
            acks = self._send_invalidations(home, request, cycle)
        if request.requestor == home:
            self._complete_fill(
                home, request.tid, cycle, acks_expected=acks
            )
        else:
            self._send(
                MessageType.DATA,
                src=home,
                dst=request.requestor,
                cycle=cycle,
                meta={"tid": request.tid, "acks": acks},
            )

    def _send_invalidations(
        self, home: int, request: BankRequest, cycle: int
    ) -> int:
        """Invalidate a sampled sharer set for a write miss; returns the
        number of INV_ACKs the requestor must collect."""
        sharers = self._pick_sharers(exclude=request.requestor)
        meta = {"tid": request.tid, "requestor": request.requestor}
        for sharer in sharers:
            if sharer == home:
                # The home node's own L1 invalidates locally and acks
                # the requestor directly.
                self._send(
                    MessageType.INV_ACK,
                    src=home,
                    dst=request.requestor,
                    cycle=cycle,
                    meta={"tid": request.tid},
                )
            else:
                self._send(
                    MessageType.INV,
                    src=home,
                    dst=sharer,
                    cycle=cycle,
                    meta=dict(meta),
                )
        return len(sharers)

    def _pick_sharers(self, exclude: int) -> List[int]:
        """Binomial sharer sample with mean ``invalidation_fanout``."""
        candidates = [
            n for n in range(len(self.cores)) if n != exclude
        ]
        prob = min(
            1.0, self.profile.invalidation_fanout / len(candidates)
        )
        return [n for n in candidates if self.rng.random() < prob]

    def _pick_owner(self, exclude: int) -> int:
        owner = self.rng.randrange(len(self.cores) - 1)
        return owner if owner < exclude else owner + 1

    def _owner_supply(self, owner: int, meta: Dict[str, int], cycle: int) -> None:
        requestor = meta["requestor"]
        assert owner != requestor, "owner cannot be the requestor"
        self._send(
            MessageType.OWNER_DATA,
            src=owner,
            dst=requestor,
            cycle=cycle,
            meta={"tid": meta["tid"]},
        )

    def _complete_fill(
        self, node: int, tid: int, cycle: int, acks_expected: int = 0
    ) -> None:
        dirty = self.cores[node].on_fill(
            tid, cycle, acks_expected=acks_expected
        )
        self._after_completion(node, dirty, cycle)

    def _after_completion(
        self, node: int, dirty, cycle: int
    ) -> None:
        """Handle a (possibly still-pending) transaction completion."""
        if not dirty:  # None (still waiting for acks) or a clean victim
            return
        victim_home = self.rng.randrange(len(self.banks))
        if victim_home == node:
            return  # local writeback, no network traffic
        self.writebacks_issued += 1
        self._send(
            MessageType.WB,
            src=node,
            dst=victim_home,
            cycle=cycle,
            meta={"requestor": node},
        )

    # -- network delivery -------------------------------------------------------------
    def _on_packet(self, node: int, done: CompletedPacket) -> None:
        packet = done.packet
        mtype = _MESSAGE_TYPES[packet.kind]
        cycle = done.completed_at
        meta = packet.meta or {}
        if mtype.is_request:
            self.banks[node].enqueue(
                BankRequest(
                    requestor=meta["requestor"],
                    tid=meta["tid"],
                    is_write=mtype is MessageType.GETX,
                )
            )
        elif mtype.is_fill:
            self._complete_fill(
                node, meta["tid"], cycle,
                acks_expected=meta.get("acks", 0),
            )
        elif mtype is MessageType.FWD:
            self._owner_supply(node, meta, cycle)
        elif mtype is MessageType.INV:
            # Invalidate the local copy (state-only) and ack the writer.
            self._send(
                MessageType.INV_ACK,
                src=node,
                dst=meta["requestor"],
                cycle=cycle,
                meta={"tid": meta["tid"]},
            )
        elif mtype is MessageType.INV_ACK:
            dirty = self.cores[node].on_inv_ack(meta["tid"], cycle)
            self._after_completion(node, dirty, cycle)
        elif mtype is MessageType.WB:
            # Called as ``(at)``: ``_send(WB_ACK, src, dst, cycle=at)``.
            self.schedule(
                cycle + self.machine.l2_latency,
                weak_method(
                    self._send, MessageType.WB_ACK, node, meta["requestor"]
                ),
            )
        # WB_ACK needs no action: the write buffer entry is freed.

    def _send(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        cycle: int,
        meta: Optional[Dict[str, int]] = None,
    ) -> None:
        self.offered_packets += 1
        self.network.interface(src).offer(
            Packet(
                src=src,
                dst=dst,
                vnet=message_vnet(mtype),
                num_flits=message_flits(self.network.config, mtype),
                created_at=cycle,
                kind=mtype.value,
                meta=meta,
            )
        )

    # -- measurement ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """End warmup: zero network and core counters."""
        self.network.begin_measurement()
        for core in self.cores:
            core.reset_counters()
        self._measure_start = self.network.cycle

    @property
    def measured_cycles(self) -> int:
        return self.network.cycle - self._measure_start

    @property
    def transactions_completed(self) -> int:
        return sum(core.completed for core in self.cores)

    @property
    def transactions_per_kilocycle_per_core(self) -> float:
        """The performance metric (inverse execution time for fixed
        work)."""
        cycles = self.measured_cycles
        if cycles == 0:
            return 0.0
        return 1000.0 * self.transactions_completed / (
            cycles * len(self.cores)
        )

    @property
    def avg_miss_latency(self) -> float:
        completed = self.transactions_completed
        if completed == 0:
            return 0.0
        total = sum(core.latency_sum for core in self.cores)
        return total / completed
