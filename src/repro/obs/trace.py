"""Flit-lifecycle tracing with Chrome trace-event export.

A :class:`FlitTracer` records per-packet lifecycle events — injection,
per-hop arrival and dispatch (with the router's AFC mode and whether
the hop was a deflection), emergency buffering, ejection, completion,
and per-router mode switches — into a **preallocated ring buffer** of
plain tuples.  Recording is an index store plus a counter increment;
when the ring wraps, the oldest events are overwritten (``dropped``
counts them), so a long run traces its tail at constant memory.

The recorded window exports as Chrome trace-event JSON
(:meth:`chrome_trace` / :meth:`write_chrome_trace`) loadable in
Perfetto (https://ui.perfetto.dev): one *flit track* per flit showing
its router-visit spans (1 simulated cycle = 1 µs), and one *router
track* per node showing mode-switch instants.  For debugging misroutes
without leaving the terminal, :meth:`hop_path` reconstructs a single
packet's journey as readable rows and :meth:`most_deflected_pids`
ranks the packets worth looking at.

The tracer is a passive data sink — the
:class:`~repro.obs.hub.Observability` hub owns the router/NI hooks and
calls the ``record_*`` methods; nothing here touches simulation state.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..domain import Integer
from ..network.topology import Direction

__all__ = ["FlitTracer", "EVENT_NAMES", "MODE_NAMES", "SWITCH_NAMES"]

# Event kind codes (tuple slot 0).
INJECT = 0
ARRIVE = 1
DISPATCH = 2
EJECT = 3
BUFFER = 4
COMPLETE = 5
SWITCH = 6

EVENT_NAMES: Tuple[str, ...] = (
    "inject", "arrive", "dispatch", "eject", "buffer", "complete", "switch",
)

#: AFC mode codes carried on dispatch events (-1 = not an AFC router).
MODE_NAMES: Dict[int, str] = {
    -1: "-",
    0: "backpressureless",
    1: "transition",
    2: "backpressured",
}

#: Switch kind codes carried on SWITCH events.
SWITCH_FORWARD = 0
SWITCH_GOSSIP = 1
SWITCH_REVERSE = 2
SWITCH_NAMES: Tuple[str, ...] = (
    "forward switch", "gossip switch", "reverse switch",
)

#: One recorded event: (kind, cycle, pid, seq, node, a, b, c).
#: Slot meaning by kind —
#:   INJECT:   a=vnet, b=dst
#:   ARRIVE:   a=in_port, b=1 if buffered else 0 (latched)
#:   DISPATCH: a=out_port, b=mode code, c=1 if this hop deflected
#:   EJECT:    (no extras)
#:   BUFFER:   a=in_port (emergency buffering into own input buffer)
#:   COMPLETE: a=vnet, b=latency in cycles
#:   SWITCH:   pid=seq=-1, a=switch kind code
_Event = Tuple[int, int, int, int, int, int, int, int]


class FlitTracer:
    """Ring buffer of flit-lifecycle events plus exporters."""

    def __init__(self, capacity: int = 65_536) -> None:
        self.capacity = capacity = Integer(1).check("capacity", capacity)
        self._ring: List[Optional[_Event]] = [None] * capacity
        self._next = 0
        self.recorded = 0
        # Summary counters survive ring wrap (counted at record time).
        self.injected = 0
        self.ejected = 0
        self.completed = 0
        self.deflected_hops = 0
        self.emergency_buffered = 0
        self.forward_switches = 0
        self.gossip_switches = 0
        self.reverse_switches = 0

    # -- recording (called by the Observability hub's hooks) ---------------
    def _record(self, event: _Event) -> None:
        i = self._next
        self._ring[i] = event
        self._next = i + 1 if i + 1 < self.capacity else 0
        self.recorded += 1

    def record_inject(self, node: int, flit, cycle: int) -> None:
        self.injected += 1
        self._record(
            (INJECT, cycle, flit.pid, flit.seq, node, int(flit.vnet),
             flit.dst, 0)
        )

    def record_arrive(
        self, node: int, flit, in_port: int, buffered: bool, cycle: int
    ) -> None:
        self._record(
            (ARRIVE, cycle, flit.pid, flit.seq, node, in_port,
             1 if buffered else 0, 0)
        )

    def record_dispatch(
        self, node: int, flit, out_port: int, mode: int, deflected: bool,
        cycle: int,
    ) -> None:
        if deflected:
            self.deflected_hops += 1
        self._record(
            (DISPATCH, cycle, flit.pid, flit.seq, node, out_port, mode,
             1 if deflected else 0)
        )

    def record_eject(self, node: int, flit, cycle: int) -> None:
        self.ejected += 1
        self._record((EJECT, cycle, flit.pid, flit.seq, node, 0, 0, 0))

    def record_buffer(self, node: int, flit, in_port: int, cycle: int) -> None:
        self.emergency_buffered += 1
        self._record(
            (BUFFER, cycle, flit.pid, flit.seq, node, in_port, 0, 0)
        )

    def record_complete(
        self, node: int, pid: int, vnet: int, latency: int, cycle: int
    ) -> None:
        self.completed += 1
        self._record((COMPLETE, cycle, pid, -1, node, vnet, latency, 0))

    def record_switch(self, node: int, kind: int, cycle: int) -> None:
        if kind == SWITCH_REVERSE:
            self.reverse_switches += 1
        else:
            self.forward_switches += 1
            if kind == SWITCH_GOSSIP:
                self.gossip_switches += 1
        self._record((SWITCH, cycle, -1, -1, node, kind, 0, 0))

    # -- introspection ------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events overwritten by ring wrap-around."""
        return max(0, self.recorded - self.capacity)

    def events(self) -> List[_Event]:
        """The retained events, oldest first."""
        if self.recorded <= self.capacity:
            return [e for e in self._ring[: self.recorded]]
        return list(self._ring[self._next:]) + list(self._ring[: self._next])

    def hop_path(self, pid: int) -> List[dict]:
        """A packet's journey as readable rows (oldest first).

        Each row: ``{"cycle", "event", "seq", "node", ...}`` with
        event-specific extras (ports by name, mode, deflected flag).
        """
        rows: List[dict] = []
        for kind, cycle, epid, seq, node, a, b, c in self.events():
            if epid != pid:
                continue
            if kind == INJECT:
                rows.append({"cycle": cycle, "event": "inject", "seq": seq,
                             "node": node, "dst": b})
            elif kind == ARRIVE:
                rows.append({"cycle": cycle, "event": "arrive", "seq": seq,
                             "node": node, "in_port": Direction(a).name,
                             "buffered": bool(b)})
            elif kind == DISPATCH:
                rows.append({"cycle": cycle, "event": "dispatch", "seq": seq,
                             "node": node, "out_port": Direction(a).name,
                             "mode": MODE_NAMES.get(b, "?"),
                             "deflected": bool(c)})
            elif kind == EJECT:
                rows.append({"cycle": cycle, "event": "eject", "seq": seq,
                             "node": node})
            elif kind == BUFFER:
                rows.append({"cycle": cycle, "event": "emergency-buffer",
                             "seq": seq, "node": node,
                             "in_port": Direction(a).name})
            elif kind == COMPLETE:
                rows.append({"cycle": cycle, "event": "complete",
                             "seq": seq, "node": node, "latency": b})
        return rows

    def format_hop_path(self, pid: int) -> str:
        """The hop path as aligned text lines (debug dump)."""
        rows = self.hop_path(pid)
        if not rows:
            return f"packet {pid}: no events in the trace window"
        lines = [f"packet {pid} hop path ({len(rows)} events):"]
        for row in rows:
            extras = " ".join(
                f"{k}={v}" for k, v in row.items()
                if k not in ("cycle", "event", "seq")
            )
            lines.append(
                f"  cycle {row['cycle']:>7} flit {row['seq']:>2} "
                f"{row['event']:<16} {extras}"
            )
        return "\n".join(lines)

    def most_deflected_pids(self, limit: int = 5) -> List[Tuple[int, int]]:
        """(pid, deflected-hop count) of the packets with the most
        deflections in the retained window, most-deflected first (ties
        broken by pid for determinism)."""
        counts: Dict[int, int] = {}
        for event in self.events():
            if event[0] == DISPATCH and event[7]:
                counts[event[2]] = counts.get(event[2], 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    # -- Chrome trace-event export ------------------------------------------
    def chrome_trace(self) -> dict:
        """The retained window as a Chrome trace-event JSON object.

        Layout (see docs/OBSERVABILITY.md): process 0 ("routers") has
        one thread per node carrying mode-switch and emergency-buffer
        instants; process 1 ("packets") has one thread per flit
        (``tid = pid * 64 + seq``) carrying a duration span per router
        visit plus inject/eject/complete instants.  Timestamps are in
        microseconds with 1 simulated cycle = 1 µs.
        """
        trace_events: List[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "routers"}},
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "packets"}},
        ]
        named_router_tids: set = set()
        named_flit_tids: set = set()
        # Span reconstruction: (pid, seq) -> (start_cycle, start_node).
        open_spans: Dict[Tuple[int, int], Tuple[int, int]] = {}

        def flit_tid(pid: int, seq: int) -> int:
            tid = pid * 64 + max(seq, 0)
            if tid not in named_flit_tids:
                named_flit_tids.add(tid)
                trace_events.append(
                    {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                     "args": {"name": f"packet {pid} flit {max(seq, 0)}"}}
                )
            return tid

        def router_tid(node: int) -> int:
            if node not in named_router_tids:
                named_router_tids.add(node)
                trace_events.append(
                    {"ph": "M", "pid": 0, "tid": node, "name": "thread_name",
                     "args": {"name": f"router {node}"}}
                )
            return node

        for kind, cycle, pid, seq, node, a, b, c in self.events():
            if kind == INJECT:
                open_spans[(pid, seq)] = (cycle, node)
                trace_events.append(
                    {"ph": "i", "pid": 1, "tid": flit_tid(pid, seq),
                     "ts": cycle, "s": "t", "name": "inject", "cat": "flit",
                     "args": {"node": node, "vnet": a, "dst": b}}
                )
            elif kind == ARRIVE:
                open_spans[(pid, seq)] = (cycle, node)
            elif kind == DISPATCH or kind == EJECT:
                start = open_spans.pop((pid, seq), None)
                begin = start[0] if start is not None else cycle
                name = f"router {node}"
                args: dict = {"node": node}
                if kind == DISPATCH:
                    args["out"] = Direction(a).name
                    args["mode"] = MODE_NAMES.get(b, "?")
                    if c:
                        args["deflected"] = True
                        name = f"router {node} (deflected)"
                else:
                    args["ejected"] = True
                trace_events.append(
                    {"ph": "X", "pid": 1, "tid": flit_tid(pid, seq),
                     "ts": begin, "dur": max(cycle - begin, 1),
                     "name": name, "cat": "flit", "args": args}
                )
                if kind == EJECT:
                    trace_events.append(
                        {"ph": "i", "pid": 1, "tid": flit_tid(pid, seq),
                         "ts": cycle, "s": "t", "name": "eject",
                         "cat": "flit", "args": {"node": node}}
                    )
            elif kind == BUFFER:
                trace_events.append(
                    {"ph": "i", "pid": 0, "tid": router_tid(node),
                     "ts": cycle, "s": "t", "name": "emergency buffer",
                     "cat": "router",
                     "args": {"pid": pid, "seq": seq,
                              "in_port": Direction(a).name}}
                )
            elif kind == COMPLETE:
                trace_events.append(
                    {"ph": "i", "pid": 1, "tid": flit_tid(pid, 0),
                     "ts": cycle, "s": "t", "name": "complete",
                     "cat": "packet",
                     "args": {"pid": pid, "vnet": a, "latency": b}}
                )
            else:  # SWITCH
                trace_events.append(
                    {"ph": "i", "pid": 0, "tid": router_tid(node),
                     "ts": cycle, "s": "t", "name": SWITCH_NAMES[a],
                     "cat": "router", "args": {"node": node}}
                )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.FlitTracer",
                "cycles_per_us": 1,
                "events_recorded": self.recorded,
                "events_dropped": self.dropped,
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def summary(self) -> dict:
        """JSON-ready roll-up of the recorded window."""
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "injected": self.injected,
            "ejected": self.ejected,
            "completed": self.completed,
            "deflected_hops": self.deflected_hops,
            "emergency_buffered": self.emergency_buffered,
            "forward_switches": self.forward_switches,
            "gossip_switches": self.gossip_switches,
            "reverse_switches": self.reverse_switches,
        }
