"""Structure-of-arrays batch engine for the deflection network.

:class:`VectorEngine` adopts a built :class:`~repro.simulation.Network`
into preallocated numpy buffers and advances every pipeline stage as a
vectorized pass over all routers at once, bit-identical to the scalar
per-router loop (the determinism suite enforces this).

SoA layout
==========

* **Flit slab** — every in-network flit occupies one slot of a flat
  slab: payload columns ``f_dst`` / ``f_hops`` / ``f_defl`` plus the
  live :class:`~repro.network.flit.Flit` object in ``objs`` (identity
  is preserved; array fields are written back on ejection and on
  materialization).  A free-slot stack recycles slots without per-cycle
  allocation.
* **Channel rings** — the flit pipes of all channels live in one ring
  buffer ``ring[router, in_port, cycle % (L+2)]``: a dispatch at cycle
  ``t`` writes slot ids at ``(t + L + 1) % (L+2)``; the deliver pass
  reads column ``t % (L+2)``.  At most one flit per channel per cycle
  makes the ring conflict-free (this is the DelayLine contract).
* **Router state** — pipeline latches as ``(router, 4)`` slot arrays
  with counts, injection round-robin pointers, and per-node source
  queue mirrors (``src_q``) refreshed through each network interface's
  engine-internal ``on_activity`` notification (the queues themselves
  stay live — injection pops through :meth:`NetworkInterface.pop` so
  ``injected_at`` stamping and statistics behave exactly as under the
  scalar engines).
* **RNG** — per-router ``random.Random`` streams are advanced by
  :class:`~repro.engine.mt.BatchedMT19937`, replaying CPython's draw
  sequence word-for-word so randomized ejection, port allocation and
  injection consume the same draws in the same per-router order.

Per-cycle pass order (backpressureless design)
==============================================

1. **deliver** — drain the four input-ring columns in the canonical
   input-drain order (N, W, E, S), appending to the pipeline latches.
2. **eject** — per-router shuffle of at-destination flits, first
   ``eject_bandwidth`` leave through the real NI (reassembly, latency
   statistics and completion callbacks are the live scalar objects).
3. **allocate** — random service permutation, then for each service
   position a vectorized productive-port test (DOR-first) with a
   batched random fallback draw (a deflection) where both productive
   ports are taken.
4. **inject** — one flit per router if a network port is still free,
   round-robin over virtual networks, with the scalar source-queue pop.
5. **traverse** — scatter all assigned flits into the neighbour rings,
   bump hop counts, and add the cycle's event counts to the energy
   meter and statistics.

Scalar fallback
===============

Only plain-:class:`BackpressurelessRouter` networks with no subscriber
at any event site are adopted; :func:`ineligibility` names the reason a
network is not (other designs, ``Network.subscribed`` sites, a client
packet callback...), and :class:`~repro.simulation.Network` then falls
back to the active-set scalar engine for the whole run.  A subscriber
arriving *after* adoption pushes the engine out: ``Network.subscribe``
calls :meth:`VectorEngine.materialize` — every buffer goes back into
the scalar objects (flit pipes, latches, RNG states, round-robin
pointers) — and the run continues, bit-identically, on the scalar path.
The engine never polls for hooks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..energy.model import OrionEnergyMeter
from ..network.config import Design
from ..network.energy_hooks import NullEnergyMeter
from ..network.flit import VNETS
from ..network.interface import discard_completed
from ..network.topology import Direction
from ..routers.backpressureless import BackpressurelessRouter
from .mt import BatchedMT19937
#: Canonical input-drain order (matches the wiring order of
#: ``Mesh.links()``: for each router the upstream neighbours appear in
#: ascending node id, i.e. north, west, east, south).
_IN_DRAIN = (
    Direction.NORTH,
    Direction.WEST,
    Direction.EAST,
    Direction.SOUTH,
)
_OPP = np.array([1, 0, 3, 2], dtype=np.int64)  # E<->W, N<->S


def ineligibility(net) -> Optional[str]:
    """Why ``net`` cannot run on the vector engine (``None`` if it can).

    The conditions mirror what the vectorized passes actually model: a
    plain backpressureless mesh with no subscriber at any event site,
    no client packet callback (the no-op ``discard_completed`` is
    none) and no retransmission traffic.  Anything
    else — including every other flow-control design for now — runs on
    the scalar active-set engine instead.
    """
    if net.design is not Design.BACKPRESSURELESS:
        return f"design {net.design.value!r} is not vectorized"
    if net.subscribed:
        return f"subscribers attached at {', '.join(net.subscribed)}"
    if not isinstance(net.energy, (OrionEnergyMeter, NullEnergyMeter)):
        return f"unsupported energy meter {type(net.energy).__name__}"
    if net._retransmit_heap:
        return "retransmissions pending"
    for router in net.routers:
        if type(router) is not BackpressurelessRouter:
            return f"router type {type(router).__name__} is not vectorized"
        expected = [d for d in _IN_DRAIN if d in router.in_channels]
        if list(router.in_channels.keys()) != expected:
            return "non-canonical input-channel wiring"
        for channel in router.out_channels.values():
            if channel.fault is not None:
                return "channel fault state attached"
            if channel._backflow._items:
                return "backflow in flight"
    if any(
        ni.on_packet not in (None, discard_completed) for ni in net.interfaces
    ):
        # Completions would offer replies in the middle of the eject pass.
        return "client packet callback attached"
    return None


def _numpy_routing_tables(mesh, has_out: np.ndarray):
    """Vectorized equivalent of :func:`routing_tables` for the engine.

    Returns ``(prod0, prod1, fb, fb_n)`` indexed ``[node, dst]``:
    the DOR-first productive ports (-1 when absent), the existing
    non-productive ports packed in the node's canonical port order
    (ascending :class:`Direction`, matching ``network_port_table``),
    and their count.
    """
    R = mesh.num_nodes
    ar = np.arange(R, dtype=np.int64)
    xs = ar % mesh.width
    ys = ar // mesh.width
    xd = np.sign(xs[None, :] - xs[:, None])  # [node, dst]: +1 = dst east
    yd = np.sign(ys[None, :] - ys[:, None])  # +1 = dst south
    xport = np.where(
        xd > 0,
        np.int8(Direction.EAST),
        np.where(xd < 0, np.int8(Direction.WEST), np.int8(-1)),
    )
    yport = np.where(
        yd > 0,
        np.int8(Direction.SOUTH),
        np.where(yd < 0, np.int8(Direction.NORTH), np.int8(-1)),
    )
    prod0 = np.where(xport >= 0, xport, yport)
    prod1 = np.where((xport >= 0) & (yport >= 0), yport, np.int8(-1))
    packed = np.empty((R, R, 4), np.int8)
    for p in range(4):
        include = has_out[:, p][:, None] & (prod0 != p) & (prod1 != p)
        packed[:, :, p] = np.where(include, np.int8(p), np.int8(9))
    packed.sort(axis=2)
    fb = np.where(packed < 9, packed, np.int8(-1))
    fb_n = (fb >= 0).sum(axis=2).astype(np.int8)
    return prod0, prod1, fb, fb_n


class VectorEngine:
    """Batch-stepped state of one adopted backpressureless network."""

    __slots__ = (
        "net",
        "R",
        "EB",
        "LF",
        "SF",
        "has_out",
        "nports_n",
        "nbr",
        "net_ports",
        "prod0",
        "prod1",
        "fb",
        "fb_n",
        "objs",
        "free",
        "f_dst",
        "f_hops",
        "f_defl",
        "ring",
        "ch_trav",
        "lat_slot",
        "lat_n",
        "inject_rr",
        "inflight",
        "src_q",
        "src_tot",
        "mt",
        "orion",
        "_static_buffer",
        "_static_logic",
        "_nodes",
        "_col4",
        "_drain",
        "_taken",
        "_pslot",
        "_ejflag",
        "_eject_fns",
        "_pop_fns",
    )

    def __init__(self, net) -> None:
        self.net = net
        mesh = net.mesh
        config = net.config
        R = mesh.num_nodes
        self.R = R
        self.EB = config.eject_bandwidth
        self.LF = config.link_latency + 1  # flit-pipe latency
        self.SF = config.link_latency + 2  # ring size (latency + 1 slots)

        # -- topology ----------------------------------------------------
        nbr = np.full((R, 4), -1, np.int64)
        has_out = np.zeros((R, 4), bool)
        for channel in net.channels:
            nbr[channel.upstream, int(channel.direction)] = channel.downstream
            has_out[channel.upstream, int(channel.direction)] = True
        self.nbr = nbr
        self.has_out = has_out
        self.nports_n = has_out.sum(axis=1)
        self.net_ports: List[List[int]] = [
            [int(d) for d in router.network_ports] for router in net.routers
        ]

        # -- flat routing tables (DOR-productive + deflection fallback) --
        # Built directly from mesh coordinate math: same data as
        # routing_tables(mesh) (the unit tests assert table equality),
        # but O(R^2) numpy instead of an O(R^2) python loop so 16x16+
        # adoption is not a measurable fraction of a benchmark run.
        prod0, prod1, fb, fb_n = _numpy_routing_tables(mesh, has_out)
        self.prod0 = prod0
        self.prod1 = prod1
        self.fb = fb
        self.fb_n = fb_n

        # -- flit slab ---------------------------------------------------
        cap = R * 4 * self.SF + R * 4 + 8
        self.f_dst = np.zeros(cap, np.int64)
        self.f_hops = np.zeros(cap, np.int64)
        self.f_defl = np.zeros(cap, np.int64)
        self.objs: List = [None] * cap
        self.free: List[int] = list(range(cap - 1, -1, -1))
        self.inflight = 0

        # -- channel rings (indexed by receiving router and input port) --
        self.ring = np.full((R, 4, self.SF), -1, np.int64)
        self.ch_trav = np.zeros((R, 4), np.int64)  # flit_traversals deltas

        # -- router state ------------------------------------------------
        self.lat_slot = np.zeros((R, 4), np.int64)
        self.lat_n = np.zeros(R, np.int64)
        self.inject_rr = np.array(
            [router._inject_rr for router in net.routers], np.int64
        )

        # -- source-queue mirrors ---------------------------------------
        self.src_q = np.zeros((R, 3), np.int64)
        self.src_tot = np.zeros(R, np.int64)
        for ni in net.interfaces:
            ni.on_activity = self._make_mirror(ni)
            ni.on_activity()

        # -- adopt in-flight state (mid-run adoption is supported) -------
        for node, router in enumerate(net.routers):
            for flit in router._latched:
                k = self.lat_n[node]
                self.lat_slot[node, k] = self._new_slot(flit)
                self.lat_n[node] = k + 1
            router._latched.clear()
        for channel in net.channels:
            in_dir = int(_OPP[int(channel.direction)])
            for ready, flit in channel._flits._items:
                pos = ready % self.SF
                self.ring[channel.downstream, in_dir, pos] = self._new_slot(
                    flit
                )
                self.inflight += 1
            channel._flits._items.clear()

        # -- batched RNG -------------------------------------------------
        self.mt = BatchedMT19937([router.rng for router in net.routers])

        # -- per-cycle leakage (bit-exact with static_cycle) -------------
        energy = net.energy
        self.orion = isinstance(energy, OrionEnergyMeter)
        if self.orion:
            # Replicate OrionEnergyMeter.static_cycle's per-cycle floats
            # with the identical accumulation loop.
            leak_per_bit = energy.params.buffer_leak_pj_per_bit_cycle
            gating = energy.params.power_gating_effectiveness
            buffer_leak = 0.0
            logic_leak = 0.0
            for router in net.routers:
                bits = router.buffer_capacity_flits * energy.physical_bits
                if bits:
                    scale = (
                        (1.0 - gating) if router.buffers_power_gated else 1.0
                    )
                    buffer_leak += bits * leak_per_bit * scale
                ports = len(router.in_channels) + 1
                logic_leak += ports * energy.params.logic_leak_pj_per_port_cycle
            self._static_buffer = buffer_leak
            self._static_logic = logic_leak

        # -- preallocated per-cycle scratch ------------------------------
        self._nodes = np.arange(R, dtype=np.int64)
        self._col4 = np.arange(4, dtype=np.int64)
        self._drain = np.array([int(d) for d in _IN_DRAIN], np.int64)
        self._taken = np.zeros((R, 5), bool)
        self._pslot = np.full((R, 4), -1, np.int64)
        self._ejflag = np.zeros((R, 4), bool)
        # Pre-bound NI endpoints (the objects are stable for the life of
        # the network; both methods read their hooks at call time).
        self._eject_fns = [ni.eject for ni in net.interfaces]
        self._pop_fns = [ni.pop for ni in net.interfaces]

    # -- helpers ---------------------------------------------------------
    def _new_slot(self, flit) -> int:
        slot = self.free.pop()
        self.objs[slot] = flit
        self.f_dst[slot] = flit.dst
        self.f_hops[slot] = flit.hops
        self.f_defl[slot] = flit.deflections
        return slot

    def _make_mirror(self, ni):
        """``on_activity`` callback copying ``ni``'s queue lengths into
        the mirror arrays (it fires after every offer)."""
        node = ni.node
        src_q = self.src_q
        src_tot = self.src_tot
        queues = [ni._queues[vnet] for vnet in VNETS]

        def sync():
            for v, queue in enumerate(queues):
                src_q[node, v] = len(queue)
            src_tot[node] = ni._queued

        return sync

    def flits_in_network(self) -> int:
        return self.inflight + int(self.lat_n.sum())

    # -- the cycle -------------------------------------------------------
    def step_cycle(self) -> None:
        net = self.net
        c = net.cycle
        ring = self.ring
        lat_slot = self.lat_slot
        lat_n = self.lat_n
        f_dst = self.f_dst
        f_hops = self.f_hops
        f_defl = self.f_defl
        mt = self.mt
        mt.maintain()

        # ---- deliver: drain input rings in canonical order (N,W,E,S) --
        # The latch position of each arriving flit is its prefix count
        # in the drain-ordered columns, so one cumsum scatter reproduces
        # the per-direction append order of the scalar loop.
        col = ring[:, :, c % self.SF]
        dcol = col[:, self._drain]
        mask = dcol >= 0
        n_latch = int(np.count_nonzero(mask))
        if n_latch:
            before = np.cumsum(mask, axis=1)
            rr, kk = np.nonzero(mask)
            lat_slot[rr, before[rr, kk] - 1] = dcol[rr, kk]
            lat_n[:] = before[:, 3]
            col[:] = -1
            self.inflight -= n_latch

        n_ej = 0
        n_disp = 0
        if n_latch or self.src_tot.any():
            if np.any(lat_n > self.nports_n):
                raise RuntimeError("deflection invariant violated")
            taken = self._taken
            taken[:] = False
            pslot = self._pslot
            pslot.fill(-1)

            # ---- eject: shuffled at-destination flits, EB per router --
            valid = self._col4[None, :] < lat_n[:, None]
            owner = f_dst[lat_slot] == self._nodes[:, None]
            cand_mask = valid & owner
            if cand_mask.any():
                kd = cand_mask.sum(axis=1)
                cand = np.argsort(~cand_mask, axis=1, kind="stable")
                for i in (3, 2, 1):
                    rows = np.nonzero(kd > i)[0]
                    if rows.size:
                        j = mt.randbelow(i + 1, rows)
                        ci = cand[rows, i]
                        cj = cand[rows, j]
                        cand[rows, i] = cj
                        cand[rows, j] = ci
                e = np.minimum(kd, self.EB)
                # One (router, rank) pair per ejecting flit; nonzero's
                # row-major order IS the scalar visit order (routers
                # ascending, EB ranks in shuffled-candidate order).
                pr, pt = np.nonzero(self._col4[None, :] < e[:, None])
                slots_e = lat_slot[pr, cand[pr, pt]]
                hops_l = f_hops[slots_e].tolist()
                defl_l = f_defl[slots_e].tolist()
                eject_fns = self._eject_fns
                objs = self.objs
                free = self.free
                for k, (r, slot) in enumerate(
                    zip(pr.tolist(), slots_e.tolist())
                ):
                    obj = objs[slot]
                    obj.hops = hops_l[k]
                    obj.deflections = defl_l[k]
                    eject_fns[r](obj, c)
                    objs[slot] = None
                    free.append(slot)
                n_ej = pr.size
            else:
                e = None

            # ---- allocate: remaining flits in a random permutation ----
            if n_ej:
                ejf = self._ejflag
                ejf[:] = False
                for t in range(min(self.EB, 4)):
                    rows = np.nonzero(e > t)[0]
                    if rows.size:
                        ejf[rows, cand[rows, t]] = True
                remord = np.argsort(ejf | ~valid, axis=1, kind="stable")
                rs = np.take_along_axis(lat_slot, remord, axis=1)
                m = lat_n - e
            else:
                # No router ejected: the survivors are the latch rows in
                # arrival order, so the (stable) reorder is the identity
                # over the populated prefix and the shuffle can permute
                # lat_slot in place (the latch is consumed this cycle).
                rs = lat_slot
                m = lat_n
            for i in (3, 2, 1):
                rows = np.nonzero(m > i)[0]
                if rows.size:
                    j = mt.randbelow(i + 1, rows)
                    si = rs[rows, i]
                    sj = rs[rows, j]
                    rs[rows, i] = sj
                    rs[rows, j] = si
            prod0 = self.prod0
            prod1 = self.prod1
            for q in range(4):
                rows = np.nonzero(m > q)[0]
                if rows.size == 0:
                    break
                slots = rs[rows, q]
                d = f_dst[slots]
                p0 = prod0[rows, d]
                ok0 = (p0 >= 0) & ~taken[rows, p0]
                p1 = prod1[rows, d]
                ok1 = ~ok0 & (p1 >= 0) & ~taken[rows, p1]
                chosen = np.where(ok0, p0, p1)
                need = np.nonzero(~(ok0 | ok1))[0]
                if need.size:
                    nr = rows[need]
                    fbp = self.fb[nr, d[need]]
                    avail = (fbp >= 0) & ~taken[nr[:, None], fbp]
                    cnt = avail.sum(axis=1).astype(np.int64)
                    if np.any(cnt == 0):
                        raise RuntimeError(
                            "deflection router failed to place flits"
                        )
                    j = mt.randbelow(cnt, nr)
                    csum = np.cumsum(avail, axis=1)
                    sel = np.argmax(csum == (j + 1)[:, None], axis=1)
                    chosen[need] = fbp[np.arange(nr.size), sel]
                    f_defl[slots[need]] += 1
                taken[rows, chosen] = True
                pslot[rows, chosen] = slots

            # ---- inject: one flit per router onto a still-free port ---
            can_inject = (self.src_tot > 0) & (
                self.has_out & ~taken[:, :4]
            ).any(axis=1)
            rows0 = np.nonzero(can_inject)[0]
            if rows0.size:
                rr0 = self.inject_rr[rows0]
                inj_done = np.zeros(rows0.size, bool)
                pop_fns = self._pop_fns
                src_q = self.src_q
                src_tot = self.src_tot
                objs = self.objs
                free_slots = self.free
                net_ports = self.net_ports
                for off in range(3):
                    v = (rr0 + off) % 3
                    sub = np.nonzero(~inj_done & (src_q[rows0, v] > 0))[0]
                    if sub.size == 0:
                        continue
                    rsel = rows0[sub]
                    vsel = v[sub]
                    deferred = []
                    for r, vv in zip(rsel.tolist(), vsel.tolist()):
                        flit = pop_fns[r](VNETS[vv], c)
                        src_q[r, vv] -= 1
                        src_tot[r] -= 1
                        slot = free_slots.pop()
                        objs[slot] = flit
                        dd = flit.dst
                        f_dst[slot] = dd
                        f_hops[slot] = flit.hops
                        f_defl[slot] = flit.deflections
                        tk = taken[r]
                        p = int(prod0[r, dd])
                        if p < 0 or tk[p]:
                            p = int(prod1[r, dd])
                            if p < 0 or tk[p]:
                                fl = [
                                    x for x in net_ports[r] if not tk[x]
                                ]
                                deferred.append((r, slot, fl))
                                continue
                        tk[p] = True
                        pslot[r, p] = slot
                    if deferred:
                        nr = np.array(
                            [x[0] for x in deferred], np.int64
                        )
                        cnts = np.array(
                            [len(x[2]) for x in deferred], np.int64
                        )
                        jj = mt.randbelow(cnts, nr)
                        for k, (r, slot, fl) in enumerate(deferred):
                            p = fl[int(jj[k])]
                            taken[r, p] = True
                            pslot[r, p] = slot
                            f_defl[slot] += 1
                    inj_done[sub] = True
                    self.inject_rr[rsel] = (vsel + 1) % 3

            # ---- traverse: scatter assignments into neighbour rings ---
            dr, dp = np.nonzero(pslot >= 0)
            n_disp = dr.size
            if n_disp:
                slots = pslot[dr, dp]
                f_hops[slots] += 1
                self.ch_trav[dr, dp] += 1
                ring[
                    self.nbr[dr, dp], _OPP[dp], (c + self.LF) % self.SF
                ] = slots
                self.inflight += n_disp
            lat_n[:] = 0

        # ---- per-cycle bookkeeping: the scalar routers' counts --------
        energy = net.energy
        energy.latches += n_latch
        energy.crossings += n_ej + n_disp
        energy.links += n_disp
        energy.arbitrations += n_disp
        if self.orion:
            energy.buffer_static += self._static_buffer
            energy.logic_static += self._static_logic
        stats = net.stats
        stats.dispatched_flit_hops += n_ej + n_disp
        stats.tick()
        net.cycle = c + 1

    # -- hand everything back to the scalar engines ----------------------
    def materialize(self) -> None:
        """Write every buffer back into the scalar objects so the run
        can continue — bit-identically — on the active-set engine."""
        net = self.net
        c = net.cycle
        objs = self.objs
        f_hops = self.f_hops
        f_defl = self.f_defl
        self.mt.export_all([router.rng for router in net.routers])
        for channel in net.channels:
            in_dir = int(_OPP[int(channel.direction)])
            row = self.ring[channel.downstream, in_dir]
            entries = []
            for pos in range(self.SF):
                slot = int(row[pos])
                if slot < 0:
                    continue
                ready = c + ((pos - c) % self.SF)
                obj = objs[slot]
                obj.hops = int(f_hops[slot])
                obj.deflections = int(f_defl[slot])
                entries.append((ready, obj))
                row[pos] = -1
                self.free.append(slot)
                objs[slot] = None
            entries.sort(key=lambda item: item[0])
            items = channel._flits._items
            items.clear()
            items.extend(entries)
            channel.flit_traversals += int(
                self.ch_trav[channel.upstream, int(channel.direction)]
            )
        self.ch_trav[:] = 0
        self.inflight = 0
        for node, router in enumerate(net.routers):
            latched = router._latched
            latched.clear()
            for k in range(int(self.lat_n[node])):
                slot = int(self.lat_slot[node, k])
                obj = objs[slot]
                obj.hops = int(f_hops[slot])
                obj.deflections = int(f_defl[slot])
                latched.append(obj)
                self.free.append(slot)
                objs[slot] = None
            router._inject_rr = int(self.inject_rr[node])
        self.lat_n[:] = 0
        for ni in net.interfaces:
            ni.on_activity = None
