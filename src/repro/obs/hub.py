"""The observability hub: one attachable sink behind every event site.

:class:`Observability` subscribes itself to the network's ``flit`` site
(``Network.subscribe``), which is what routers and network interfaces
see in their ``obs`` slot.  When disabled (the default), every site
stays ``None`` and the simulator pays a single ``is None`` check per
event site — the sanitizer's zero-overhead pattern.  When attached,
the hub fans each lifecycle event out to whichever consumers were
requested:

* ``trace`` — a :class:`~repro.obs.trace.FlitTracer` ring buffer
  (Chrome trace-event / Perfetto export, hop-path dumps);
* ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` with
  per-router and per-vnet counters and latency histograms, plus
  the fault and protection events the
  :class:`~repro.faults.FaultInjector` and :class:`ProtectionLayer`
  push to every ``flit`` subscriber (:meth:`Observability.on_fault`),
  whichever of the two attached first;
* ``profile`` — a :class:`~repro.obs.profiler.PipelineProfiler`
  timing router pipeline stages per cycle bucket.

``attach``/``detach`` are symmetric and idempotent; the hub also works
as a context manager.  After ``detach`` the collected data stays
readable (``tracer``, ``registry``, ``profiler``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.mode_controller import Mode
from ..network.flit import NUM_VNETS, VirtualNetwork
from .metrics import Counter, Histogram, MetricsRegistry
from .profiler import PipelineProfiler
from .trace import (
    SWITCH_FORWARD,
    SWITCH_GOSSIP,
    SWITCH_REVERSE,
    FlitTracer,
)

__all__ = ["Observability", "ObservabilityOptions"]

#: AFC mode -> trace mode code (−1 = router has no mode controller).
_MODE_CODE: Dict[Mode, int] = {
    Mode.BACKPRESSURELESS: 0,
    Mode.TRANSITION: 1,
    Mode.BACKPRESSURED: 2,
}


@dataclass(frozen=True)
class ObservabilityOptions:
    """What to collect.  Frozen and picklable, so the process-parallel
    harness can ship one through a job description."""

    trace: bool = False
    trace_capacity: int = 65_536
    metrics: bool = False
    profile: bool = False
    profile_bucket: int = 1_000
    #: Sampling interval of the attached
    #: :class:`~repro.analysis.probes.TimeSeriesProbe`; 0 disables it.
    probe_every: int = 0
    #: Stream probe samples to this JSONL file as they are taken (one
    #: flushed line per sample; "" disables).  Only meaningful with
    #: ``probe_every > 0``.
    probe_jsonl: str = ""

    @property
    def enabled(self) -> bool:
        return (
            self.trace or self.metrics or self.profile or self.probe_every > 0
        )


class Observability:
    """Attachable flit-lifecycle sink + metrics publisher + profiler."""

    def __init__(
        self,
        net,
        options: Optional[ObservabilityOptions] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        opts = options or ObservabilityOptions()
        self.net = net
        self.options = opts
        self.attached = False
        self.tracer: Optional[FlitTracer] = (
            FlitTracer(opts.trace_capacity) if opts.trace else None
        )
        self.registry: Optional[MetricsRegistry] = None
        if opts.metrics:
            self.registry = registry if registry is not None else MetricsRegistry()
        self.profiler: Optional[PipelineProfiler] = (
            PipelineProfiler(net, opts.profile_bucket) if opts.profile else None
        )
        self.probe = None
        if opts.probe_every > 0:
            # Imported here: probes pulls in the whole simulator, which
            # the metrics-only path must not depend on.
            from ..analysis.probes import TimeSeriesProbe

            self.probe = TimeSeriesProbe(
                net,
                every=opts.probe_every,
                jsonl_path=opts.probe_jsonl or None,
            )
            self.probe.add("throughput", lambda n: n.stats.throughput)
            self.probe.add(
                "avg_packet_latency", lambda n: n.stats.avg_packet_latency
            )
            self.probe.add_builtin_afc_metrics()
        #: Per-node mode controllers (AFC designs), else None entries.
        self._modes = [getattr(r, "_mode", None) for r in net.routers]
        #: (pid, seq) -> deflection count last seen at a dispatch, used
        #: to attribute a deflection to the hop that caused it.
        self._defl_seen: Dict[Tuple[int, int], int] = {}
        # Per-node counter arrays, resolved once so the hot path is a
        # list index + integer add (registry lookups are dict + sort).
        self._c_dispatch: Optional[List[Counter]] = None
        self._c_eject: Optional[List[Counter]] = None
        self._c_arrive_buf: Optional[List[Counter]] = None
        self._c_arrive_latch: Optional[List[Counter]] = None
        self._c_deflect: Optional[List[Counter]] = None
        self._c_emergency: Optional[List[Counter]] = None
        self._c_inject: Optional[List[Counter]] = None
        self._c_complete: Optional[List[Counter]] = None
        self._h_latency: Optional[List[Histogram]] = None
        if self.registry is not None:
            self._build_metric_tables()

    def _build_metric_tables(self) -> None:
        registry = self.registry
        assert registry is not None
        nodes = range(len(self.net.routers))
        self._c_dispatch = [
            registry.counter("noc_flits_dispatched_total", router=n)
            for n in nodes
        ]
        self._c_eject = [
            registry.counter("noc_flits_ejected_total", router=n)
            for n in nodes
        ]
        self._c_arrive_buf = [
            registry.counter(
                "noc_flits_arrived_total", router=n, kind="buffered"
            )
            for n in nodes
        ]
        self._c_arrive_latch = [
            registry.counter(
                "noc_flits_arrived_total", router=n, kind="latched"
            )
            for n in nodes
        ]
        self._c_deflect = [
            registry.counter("noc_deflections_total", router=n)
            for n in nodes
        ]
        self._c_emergency = [
            registry.counter("noc_emergency_buffered_total", router=n)
            for n in nodes
        ]
        self._c_inject = [
            registry.counter(
                "noc_flits_injected_total", vnet=VirtualNetwork(v).name
            )
            for v in range(NUM_VNETS)
        ]
        self._c_complete = [
            registry.counter(
                "noc_packets_completed_total", vnet=VirtualNetwork(v).name
            )
            for v in range(NUM_VNETS)
        ]
        self._h_latency = [
            registry.histogram(
                "noc_packet_latency_cycles", vnet=VirtualNetwork(v).name
            )
            for v in range(NUM_VNETS)
        ]

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "Observability":
        if self.attached:
            return self
        if self.tracer is not None or self.registry is not None:
            self.net.subscribe("flit", self)
        if self.profiler is not None:
            self.profiler.attach()
        if self.probe is not None:
            self.probe.attach()
        self.attached = True
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        self.net.unsubscribe("flit", self)
        if self.profiler is not None:
            self.profiler.detach()
        if self.probe is not None:
            self.probe.detach()
        self._defl_seen.clear()
        self.attached = False

    def __enter__(self) -> "Observability":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- lifecycle-event sinks (hot path: guarded by ``obs is None``) ------
    def on_inject(self, node: int, flit, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.record_inject(node, flit, cycle)
        counters = self._c_inject
        if counters is not None:
            counters[flit.vnet].value += 1

    def on_arrive(
        self, node: int, flit, in_port: int, buffered: bool, cycle: int
    ) -> None:
        if self.tracer is not None:
            self.tracer.record_arrive(node, flit, in_port, buffered, cycle)
        if self._c_arrive_buf is not None:
            if buffered:
                self._c_arrive_buf[node].value += 1
            else:
                self._c_arrive_latch[node].value += 1

    def on_dispatch(self, node: int, flit, out_port: int, cycle: int) -> None:
        key = (flit.pid, flit.seq)
        count = flit.deflections
        deflected = count > self._defl_seen.get(key, 0)
        self._defl_seen[key] = count
        if self.tracer is not None:
            controller = self._modes[node]
            mode = (
                _MODE_CODE[controller.mode] if controller is not None else -1
            )
            self.tracer.record_dispatch(
                node, flit, out_port, mode, deflected, cycle
            )
        if self._c_dispatch is not None:
            self._c_dispatch[node].value += 1
            if deflected:
                self._c_deflect[node].value += 1

    def on_eject(self, node: int, flit, cycle: int) -> None:
        self._defl_seen.pop((flit.pid, flit.seq), None)
        if self.tracer is not None:
            self.tracer.record_eject(node, flit, cycle)
        if self._c_eject is not None:
            self._c_eject[node].value += 1

    def on_buffer(self, node: int, flit, in_port: int, cycle: int) -> None:
        if self.tracer is not None:
            self.tracer.record_buffer(node, flit, in_port, cycle)
        if self._c_emergency is not None:
            self._c_emergency[node].value += 1

    def on_complete(self, node: int, done, cycle: int) -> None:
        packet = done.packet
        latency = done.completed_at - packet.created_at
        if self.tracer is not None:
            self.tracer.record_complete(
                node, packet.pid, int(packet.vnet), latency, cycle
            )
        if self._c_complete is not None:
            self._c_complete[packet.vnet].value += 1
            self._h_latency[packet.vnet].observe(latency)

    def on_mode_switch(
        self, node: int, forward: bool, gossip: bool, cycle: int
    ) -> None:
        if forward:
            kind = SWITCH_GOSSIP if gossip else SWITCH_FORWARD
            label = "gossip" if gossip else "forward"
        else:
            kind = SWITCH_REVERSE
            label = "reverse"
        if self.tracer is not None:
            self.tracer.record_switch(node, kind, cycle)
        if self.registry is not None:
            # Mode switches are rare (a handful per thousand cycles at
            # most), so the registry lookup is fine here.
            self.registry.counter(
                "noc_mode_switches_total", router=node, kind=label
            ).inc()

    def on_fault(self, counter: str) -> None:
        """One fault/protection event (``repro.faults.protection.publish_fault``);
        rare, so the registry lookup is fine here too."""
        if self.registry is not None:
            self.registry.counter(counter).inc()

    # -- export ------------------------------------------------------------
    def payload(self) -> dict:
        """JSON-ready snapshot of everything collected (for the
        harness to ship across process boundaries)."""
        out: dict = {}
        if self.tracer is not None:
            out["trace_summary"] = self.tracer.summary()
            out["trace"] = self.tracer.chrome_trace()
        if self.registry is not None:
            out["metrics"] = self.registry.to_dict()
        if self.profiler is not None:
            out["profile"] = self.profiler.report()
        if self.probe is not None:
            out["probe"] = self.probe.to_dict()
        return out
