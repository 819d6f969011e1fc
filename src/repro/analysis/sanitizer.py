"""Runtime NoC invariant sanitizer (layer 2 of ``simcheck``).

An opt-in, ASan/TSan-style per-cycle checker: attach a
:class:`Sanitizer` to a built :class:`~repro.simulation.Network` and
every ``net.step()`` first verifies the cross-layer invariants the
paper's correctness argument rests on, raising a cycle-stamped,
router-addressed :class:`InvariantViolation` on the first breach.

Checked invariants (see docs/ANALYSIS.md for the paper references):

* **Flit conservation** — offered == delivered + in-network +
  at-sources + discarded, from the NIs' absolute counters.
* **Energy counts** — the meter's link count equals the channels'
  traversal counters, and its switch-crossing count equals links plus
  the NIs' ejections: the event counts routers add once per step are
  checked against counters kept per flit elsewhere.
* **Deflection in-degree == out-degree** — every flit entering a
  deflection router's switch in a cycle leaves it the same cycle
  (dispatch or ejection); checked both structurally (the arrival latch
  is empty at every cycle boundary) and by per-cycle flow counting for
  the pure deflection designs.
* **Credit agreement** — for the baseline, the per-VC ledger
  ``credits + queue + in-flight flits + in-flight credits == depth``
  plus VC ``busy``/owner legality; for AFC, the per-vnet equivalent
  between the upstream :class:`NeighborCreditState` and the downstream
  :class:`LazyInputPort`, whenever it is well-defined (upstream
  tracking, downstream settled backpressured, no mode notification in
  flight — the transition window reconciles occupancy via its own
  snapshot/debit protocol and is left alone).
* **Lazy-VC state-machine legality** — per-vnet occupancy within
  capacity, running counts consistent, flits filed under their own
  vnet; neighbour credit state internally consistent (``total_free``,
  ``ok`` mask, untracked == all-free).
* **Occupancy mirrors** — the counters the low-load fast paths read
  instead of their containers equal a recount: the baseline's per-port
  VC occupancy mask, buffered count and count of VCs still awaiting a
  route or downstream VC, AFC's router-wide
  :class:`~repro.core.lazy_vc.BufferBank` total.
* **EWMA bounds and hysteresis ordering** — the contention estimate
  stays within [0, max per-cycle load] and thresholds satisfy
  ``low < high``; the mode FSM is legal (in TRANSITION iff a completion
  cycle is scheduled).
* **The gossip rule** — a backpressureless AFC router that sees a
  tracked (backpressured) neighbour below the gossip threshold X for a
  full stepped cycle must have begun a forward switch.

The sanitizer is a pure observer: it mutates nothing, so a sanitized
run is bit-identical to a plain one, and the sanitizer-*off* path
(nothing subscribed) is exactly the zero-overhead empty ``cycle_start``
site (pinned by tests/test_allocation_budget.py and
tests/test_engine_determinism.py).

The sanitizer subscribes to ``Network``'s ``cycle_start`` site and
coexists with a :class:`~repro.faults.FaultInjector` in either attach
order.  Note that credit-loss and link-down faults deliberately break
the credit ledgers of the credit-tracking designs, so sanitized faulted
runs are meant for the deflection designs (or fault-free schedules).

Usage::

    net = Network(config, Design.AFC, seed=1)
    with Sanitizer(net):
        source.run(2_000)

or via the CLI: ``repro run --design afc --sanitize``.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.mode_controller import Mode
from ..network.flit import VNETS
from ..network.link import CreditMessage, ModeNotification
from ..network.topology import Direction

__all__ = ["InvariantViolation", "Sanitizer"]


class InvariantViolation(RuntimeError):
    """A NoC invariant failed.  The message is cycle-stamped and names
    the router (or channel) where the breach was observed."""

    def __init__(self, message: str, cycle: Optional[int] = None,
                 node: Optional[int] = None) -> None:
        super().__init__(message)
        self.cycle = cycle
        self.node = node


class Sanitizer:
    """Per-cycle invariant checker for a built network.

    ``every`` checks each N-th cycle (1 = every cycle; the flow-count
    and gossip checks need consecutive boundaries and quietly skip
    otherwise).  Use as a context manager (attaches on entry, runs a
    final check and detaches on clean exit), or call :meth:`attach` /
    :meth:`detach` / :meth:`check_now` directly.
    """

    def __init__(self, net, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.net = net
        self.every = every
        self.checks_run = 0
        self.violations_found = 0
        self._attached = False
        self._last_checked: Optional[int] = None

        design = net.design
        self._afc = design.is_afc_family
        self._baseline = design.is_backpressured_baseline
        self._deflection = design.is_deflection_family
        self._dropping = not (
            self._afc or self._baseline or self._deflection
        )
        n = len(net.routers)
        self._num_nodes = n
        #: Per-node channel views (built once; checks are per cycle).
        self._in_channels = [[] for _ in range(n)]
        self._out_channels = [[] for _ in range(n)]
        for channel in net.channels:
            self._out_channels[channel.upstream].append(channel)
            self._in_channels[channel.downstream].append(channel)
        if self._afc:
            config = net.config
            self._ewma_bound = [
                # Max per-cycle recorded load: entries (one per input
                # channel + one injection) + dispatches (one per output
                # channel + the ejection bandwidth); the EWMA is a
                # convex combination of window averages of such loads.
                (
                    len(self._in_channels[node])
                    + 1
                    + len(self._out_channels[node])
                    + config.eject_bandwidth
                )
                * (1.0 + 1e-12)
                for node in range(n)
            ]
            self._gossip_pressure_prev = [False] * n
        if self._deflection:
            #: Flow-counting state: cumulative out-flow (switch exits)
            #: and source-side counters at the previous checked
            #: boundary, plus the arrivals pending delivery there.
            self._out_total_prev = [0] * n
            self._offered_prev = [0] * n
            self._queued_prev = [0] * n
            self._arrivals_pending_prev = [0] * n
            self._flow_state_valid = False

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> "Sanitizer":
        """Subscribe the per-cycle check to ``cycle_start``."""
        if self._attached:
            raise RuntimeError("sanitizer already attached")
        self.net.subscribe("cycle_start", self._on_cycle)
        self._attached = True
        return self

    def detach(self) -> None:
        self.net.unsubscribe("cycle_start", self._on_cycle)
        self._attached = False

    def __enter__(self) -> "Sanitizer":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.check_now(self.net.cycle)
        finally:
            self.detach()

    def _on_cycle(self, cycle: int) -> None:
        if cycle % self.every == 0:
            self.check_now(cycle)

    # -- checking -----------------------------------------------------------
    def _fail(self, cycle: int, where: str, message: str,
              node: Optional[int] = None) -> None:
        self.violations_found += 1
        raise InvariantViolation(
            f"[cycle {cycle}] {where}: {message}", cycle=cycle, node=node
        )

    def check_now(self, cycle: Optional[int] = None) -> None:
        """Verify every invariant against the current cycle boundary
        (the consistent post-step state of cycle ``cycle - 1``)."""
        net = self.net
        if cycle is None:
            cycle = net.cycle
        self.checks_run += 1
        self._check_conservation(cycle)
        for node, router in enumerate(net.routers):
            if self._afc:
                self._check_afc_router(cycle, node, router)
            elif self._baseline:
                self._check_baseline_router(cycle, node, router)
            else:
                self._check_latch_empty(cycle, node, router)
        if self._baseline:
            for channel in net.channels:
                self._check_baseline_channel(cycle, channel)
        elif self._afc:
            for channel in net.channels:
                self._check_afc_channel(cycle, channel)
            self._check_gossip(cycle)
        if self._deflection:
            self._check_deflection_flow(cycle)
        self._check_energy_counts(cycle)
        self._last_checked = cycle

    # -- global: conservation ----------------------------------------------
    def _check_conservation(self, cycle: int) -> None:
        try:
            self.net.check_flit_conservation()
        except RuntimeError as exc:
            self._fail(cycle, "network", str(exc))

    # -- global: energy event counts ----------------------------------------
    def _check_energy_counts(self, cycle: int) -> None:
        net = self.net
        meter = net.energy
        links = sum(channel.flit_traversals for channel in net.channels)
        if meter.links != links:
            self._fail(
                cycle, "network",
                f"energy meter counts {meter.links} link traversals, "
                f"the channels {links}",
            )
        ejected = sum(ni.flits_ejected_total for ni in net.interfaces)
        if meter.crossings != links + ejected:
            self._fail(
                cycle, "network",
                f"energy meter counts {meter.crossings} switch crossings, "
                f"not links {links} + ejections {ejected}",
            )

    # -- structural: deflection latches ------------------------------------
    def _check_latch_empty(self, cycle: int, node: int, router) -> None:
        latched = getattr(router, "_latched", None)
        if latched:
            self._fail(
                cycle,
                f"node {node}",
                f"{len(latched)} flit(s) left in the arrival latch at a "
                "cycle boundary — deflection in-degree != out-degree",
                node=node,
            )

    # -- AFC routers ---------------------------------------------------------
    def _check_afc_router(self, cycle: int, node: int, router) -> None:
        self._check_latch_empty(cycle, node, router)
        where = f"node {node}"
        # Lazy-VC (one-flit VC bank) legality.
        bank_total = 0
        for direction, port in router._input_ports.items():
            total = 0
            for vnet in VNETS:
                flits = port._by_vnet[vnet]
                total += len(flits)
                if len(flits) > port.capacity[vnet]:
                    self._fail(
                        cycle, where,
                        f"lazy VC bank over capacity on port "
                        f"{direction.name} vnet {vnet.name}: "
                        f"{len(flits)} > {port.capacity[vnet]}",
                        node=node,
                    )
                for flit in flits:
                    if flit.vnet is not vnet:
                        self._fail(
                            cycle, where,
                            f"flit of vnet {flit.vnet.name} filed under "
                            f"vnet {vnet.name} on port {direction.name}",
                            node=node,
                        )
            if total != port._count:
                self._fail(
                    cycle, where,
                    f"lazy VC occupancy count drifted on port "
                    f"{direction.name}: counter {port._count}, "
                    f"actual {total}",
                    node=node,
                )
            bank_total += total
        if bank_total != router._bank.flits:
            self._fail(
                cycle, where,
                f"router-wide buffered count drifted: bank "
                f"{router._bank.flits}, actual {bank_total}",
                node=node,
            )
        # Neighbour credit state internal consistency.
        for direction, state in router._neighbors.items():
            total_free = sum(state.credits.values())
            if total_free != state._total_free:
                self._fail(
                    cycle, where,
                    f"neighbour credit sum drifted toward "
                    f"{direction.name}: running {state._total_free}, "
                    f"actual {total_free}",
                    node=node,
                )
            for vnet in VNETS:
                credits = state.credits[vnet]
                capacity = state.capacity[vnet]
                if not 0 <= credits <= capacity:
                    self._fail(
                        cycle, where,
                        f"neighbour credits out of range toward "
                        f"{direction.name} vnet {vnet.name}: {credits} "
                        f"not in [0, {capacity}]",
                        node=node,
                    )
                if state.tracking:
                    if state.ok[vnet] != (credits > state.reserve):
                        self._fail(
                            cycle, where,
                            f"ok-mask disagrees with credits toward "
                            f"{direction.name} vnet {vnet.name}: "
                            f"ok={state.ok[vnet]}, credits={credits}, "
                            f"reserve={state.reserve}",
                            node=node,
                        )
                elif credits != capacity or not state.ok[vnet]:
                    self._fail(
                        cycle, where,
                        f"untracked neighbour toward {direction.name} "
                        f"must look all-free: vnet {vnet.name} has "
                        f"credits={credits}/{capacity}, "
                        f"ok={state.ok[vnet]}",
                        node=node,
                    )
        # Mode FSM legality + EWMA bounds + hysteresis ordering.
        controller = router._mode
        in_transition = controller.mode is Mode.TRANSITION
        if in_transition != (controller.backpressured_from is not None):
            self._fail(
                cycle, where,
                f"mode FSM illegal: mode={controller.mode.value}, "
                f"backpressured_from={controller.backpressured_from}",
                node=node,
            )
        ewma = controller.ewma
        if not 0.0 <= ewma <= self._ewma_bound[node]:
            self._fail(
                cycle, where,
                f"EWMA {ewma:.3f} outside [0, "
                f"{self._ewma_bound[node]:.1f}] — load accounting "
                "corrupted",
                node=node,
            )
        thresholds = controller.thresholds
        if not thresholds.low < thresholds.high:
            self._fail(
                cycle, where,
                f"hysteresis ordering violated: low {thresholds.low} "
                f">= high {thresholds.high}",
                node=node,
            )

    # -- AFC channels: per-vnet credit agreement ------------------------------
    def _check_afc_channel(self, cycle: int, channel) -> None:
        """Upstream per-vnet credit counters must equal downstream free
        slots minus in-flight flits/credits — exactly, whenever the
        ledger is well-defined (cf. FaultInjector._resync_afc, which
        repairs this equation under injected credit loss)."""
        routers = self.net.routers
        up = routers[channel.upstream]
        down = routers[channel.downstream]
        state = up._neighbors[channel.direction]
        if not state.tracking:
            return
        if down._mode.mode is not Mode.BACKPRESSURED:
            return
        backflow = channel._backflow._items
        if any(type(msg) is ModeNotification for _ready, msg in backflow):
            return
        in_port = down._input_ports[channel.direction.opposite]
        nvnets = len(VNETS)
        inflight_f = [0] * nvnets
        for _ready, flit in channel._flits._items:
            inflight_f[flit.vnet] += 1
        inflight_c = [0] * nvnets
        for _ready, msg in backflow:
            if type(msg) is CreditMessage:
                inflight_c[msg.vnet] += -1 if msg.debit else 1
        for vnet in VNETS:
            expected = (
                state.capacity[vnet]
                - in_port.occupied(vnet)
                - inflight_f[vnet]
                - inflight_c[vnet]
            )
            if state.credits[vnet] != expected:
                self._fail(
                    cycle,
                    f"node {channel.upstream} -> node {channel.downstream} "
                    f"({channel.direction.name})",
                    f"per-vnet credit disagreement on {vnet.name}: "
                    f"upstream counter {state.credits[vnet]}, "
                    f"ground truth {expected} (capacity "
                    f"{state.capacity[vnet]}, downstream occupied "
                    f"{in_port.occupied(vnet)}, in-flight flits "
                    f"{inflight_f[vnet]}, in-flight credits "
                    f"{inflight_c[vnet]})",
                    node=channel.upstream,
                )

    # -- AFC: the gossip rule -------------------------------------------------
    def _check_gossip(self, cycle: int) -> None:
        """A backpressureless router with a tracked neighbour under the
        gossip threshold must switch at its next step (Section III-D).
        The reverse path legitimately lands in this state for one cycle
        (``_adapt`` reverses before re-evaluating gossip), so only a
        condition persisting across two consecutive checked boundaries
        of a stepped router is a violation."""
        net = self.net
        threshold = net.config.gossip_threshold
        consecutive = self._last_checked == cycle - 1
        asleep = getattr(net, "_asleep", None)
        for node, router in enumerate(net.routers):
            controller = router._mode
            pressure = (
                controller.adaptive
                and controller.mode is Mode.BACKPRESSURELESS
                and any(
                    nb.tracking and nb.total_free < threshold
                    for nb in router._neighbors.values()
                )
            )
            was_awake = asleep is None or not asleep[node]
            if (
                pressure
                and consecutive
                and self._gossip_pressure_prev[node]
            ):
                self._fail(
                    cycle,
                    f"node {node}",
                    "gossip rule violated: backpressureless router kept "
                    "deflecting for a full cycle although a tracked "
                    "neighbour had fewer than "
                    f"{threshold} free slots",
                    node=node,
                )
            # Arm only when the router will actually step this cycle —
            # a sleeping router's frozen state is exempt by design.
            self._gossip_pressure_prev[node] = pressure and was_awake

    # -- baseline routers ------------------------------------------------------
    def _check_baseline_router(self, cycle: int, node: int, router) -> None:
        where = f"node {node}"
        total = 0
        unallocated = 0
        for direction, port in router._input_ports.items():
            occupied = 0
            for idx, vc in enumerate(port.vcs):
                queue_len = len(vc.queue)
                total += queue_len
                if queue_len:
                    occupied |= 1 << idx
                    if vc.out_port is None or (
                        vc.out_port is not Direction.LOCAL
                        and vc.out_vc is None
                    ):
                        unallocated += 1
                if queue_len > vc.depth:
                    self._fail(
                        cycle, where,
                        f"VC over depth on port {direction.name} vc "
                        f"{idx}: {queue_len} > {vc.depth}",
                        node=node,
                    )
                if queue_len and vc.owner_pid is None:
                    self._fail(
                        cycle, where,
                        f"occupied VC without an owner on port "
                        f"{direction.name} vc {idx}",
                        node=node,
                    )
                if vc.owner_pid is not None:
                    for flit in vc.queue:
                        if flit.pid != vc.owner_pid:
                            self._fail(
                                cycle, where,
                                f"foreign flit (packet {flit.pid}) in VC "
                                f"owned by packet {vc.owner_pid} on port "
                                f"{direction.name} vc {idx}",
                                node=node,
                            )
            if occupied != port.occupied:
                self._fail(
                    cycle, where,
                    f"VC occupancy mask drifted on port {direction.name}: "
                    f"mask {port.occupied:#b}, actual {occupied:#b}",
                    node=node,
                )
        if total != router._buffered:
            self._fail(
                cycle, where,
                f"buffered-flit count drifted: counter "
                f"{router._buffered}, actual {total}",
                node=node,
            )
        if unallocated != router._unallocated:
            self._fail(
                cycle, where,
                f"count of VCs awaiting a route or downstream VC drifted: "
                f"counter {router._unallocated}, actual {unallocated}",
                node=node,
            )

    # -- baseline channels: per-VC credit ledger -------------------------------
    def _check_baseline_channel(self, cycle: int, channel) -> None:
        """Per downstream VC: ``credits + queue + in-flight flits +
        in-flight credits == depth`` and the busy latch is set iff the
        VC is referenced by an allocation, an in-flight flit, a
        downstream owner, or an in-flight tail credit (cf.
        FaultInjector._resync_baseline)."""
        routers = self.net.routers
        up = routers[channel.upstream]
        down = routers[channel.downstream]
        out_state = up._out_state[channel.direction]
        in_port = down._input_ports[channel.direction.opposite]
        vc_states = out_state.vc_states
        nvc = len(vc_states)
        where = (
            f"node {channel.upstream} -> node {channel.downstream} "
            f"({channel.direction.name})"
        )
        inflight_f = [0] * nvc
        for _ready, flit in channel._flits._items:
            inflight_f[flit.vc] += 1
        inflight_c = [0] * nvc
        frees = [False] * nvc
        for _ready, msg in channel._backflow._items:
            if type(msg) is CreditMessage and msg.vc >= 0:
                inflight_c[msg.vc] += 1
                if msg.frees_vc:
                    frees[msg.vc] = True
        alloc = [False] * nvc
        for port in up._iport_list:
            for vc in port.vcs:
                if vc.out_port is channel.direction and vc.out_vc is not None:
                    alloc[vc.out_vc] = True
        depth = up._depth
        for idx in range(nvc):
            state = vc_states[idx]
            queue_len = len(in_port.vcs[idx].queue)
            total = state.credits + queue_len + inflight_f[idx] + inflight_c[idx]
            if total != depth:
                self._fail(
                    cycle, where,
                    f"credit ledger broken on vc {idx}: credits "
                    f"{state.credits} + queued {queue_len} + in-flight "
                    f"flits {inflight_f[idx]} + in-flight credits "
                    f"{inflight_c[idx]} != depth {depth}",
                    node=channel.upstream,
                )
            referenced = (
                alloc[idx]
                or inflight_f[idx] > 0
                or in_port.vcs[idx].owner_pid is not None
                or frees[idx]
            )
            if state.busy != referenced:
                self._fail(
                    cycle, where,
                    f"busy latch disagrees on vc {idx}: busy="
                    f"{state.busy} but referenced={referenced} "
                    f"(alloc={alloc[idx]}, in-flight={inflight_f[idx]}, "
                    f"owner={in_port.vcs[idx].owner_pid}, "
                    f"tail-credit-in-flight={frees[idx]})",
                    node=channel.upstream,
                )

    # -- deflection designs: per-cycle flow counting ----------------------------
    def _check_deflection_flow(self, cycle: int) -> None:
        """Count in-degree and out-degree of every deflection router for
        the elapsed cycle: arrivals pending at the previous boundary
        plus NI injections must equal dispatches plus ejections."""
        net = self.net
        interfaces = net.interfaces
        consecutive = (
            self._flow_state_valid and self._last_checked == cycle - 1
        )
        for node in range(self._num_nodes):
            ni = interfaces[node]
            out_total = ni.flits_ejected_total
            for channel in self._out_channels[node]:
                out_total += channel.flit_traversals
            queued = ni._queued
            offered = ni.flits_offered_total
            if consecutive:
                injected = (
                    self._queued_prev[node]
                    - queued
                    + offered
                    - self._offered_prev[node]
                )
                in_degree = self._arrivals_pending_prev[node] + injected
                out_degree = out_total - self._out_total_prev[node]
                if in_degree != out_degree:
                    self._fail(
                        cycle,
                        f"node {node}",
                        f"deflection in-degree {in_degree} != out-degree "
                        f"{out_degree} during cycle {cycle - 1} "
                        f"(arrivals {self._arrivals_pending_prev[node]}, "
                        f"injections {injected})",
                        node=node,
                    )
            self._out_total_prev[node] = out_total
            self._offered_prev[node] = offered
            self._queued_prev[node] = queued
            pending = 0
            for channel in self._in_channels[node]:
                pending += channel._flits.ready_count(cycle)
            self._arrivals_pending_prev[node] = pending
        self._flow_state_valid = True
