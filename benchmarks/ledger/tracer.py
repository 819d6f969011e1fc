"""The ledger's own tracer: class-level timing wrappers and spans.

The traced run measures every layer *from outside*: a wrapper is
installed around each public entry point in :data:`TARGETS` (at class
or module level, so ``__slots__`` classes and instances built later are
covered), and removed again by :meth:`Tracer.restore`.  Per call a
wrapper only accumulates ``(calls, inclusive, self)`` for its layer,
with ``self = inclusive - time spent in wrapped callees``; spans are
recorded at the coarser workload -> unit -> phase -> 1000-cycle-bucket
boundaries, each bucket carrying the layer totals it accumulated.
Everything stays in memory until the run ends.

Nothing here runs in an end-to-end (``--trace 0``) measurement.
"""

# Wall-clock timing is this file's purpose: it times calls into the
# simulator from the benchmark's side and never feeds a reading back
# into simulation state.
# simlint: disable-file=wallclock

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Simulated cycles per bucket span.
BUCKET_CYCLES = 1000

#: ``(layer, "module:Class" or "module", attribute)``.  One layer may
#: cover several attributes (all ``record_*`` methods feed
#: ``network.stats.record``).  Router ``deliver`` is inherited from
#: ``BaseRouter`` by two of the three families; wrapping it on the
#: subclass attributes the time to the family that ran it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("simulation.step", "repro.simulation:Network", "step"),
    ("engine.vector.step", "repro.engine.vector:VectorEngine", "step_cycle"),
    ("routers.backpressured.deliver",
     "repro.routers.backpressured:BackpressuredRouter", "deliver"),
    ("routers.backpressured.step",
     "repro.routers.backpressured:BackpressuredRouter", "step"),
    ("routers.backpressureless.deliver",
     "repro.routers.backpressureless:BackpressurelessRouter", "deliver"),
    ("routers.backpressureless.step",
     "repro.routers.backpressureless:BackpressurelessRouter", "step"),
    ("core.afc.deliver", "repro.core.afc_router:AfcRouter", "deliver"),
    ("core.afc.step", "repro.core.afc_router:AfcRouter", "step"),
    ("network.interface.offer",
     "repro.network.interface:NetworkInterface", "offer"),
    ("network.interface.eject",
     "repro.network.interface:NetworkInterface", "eject"),
    ("network.reassembly.accept",
     "repro.network.reassembly:ReassemblyBuffer", "accept"),
    ("network.stats.record", "repro.network.stats:StatsCollector", "tick"),
    ("network.stats.record",
     "repro.network.stats:StatsCollector", "record_injection"),
    ("network.stats.record",
     "repro.network.stats:StatsCollector", "record_flit_ejected"),
    ("network.stats.record",
     "repro.network.stats:StatsCollector", "record_packet_complete"),
    ("network.stats.record",
     "repro.network.stats:StatsCollector", "record_switch_traversal"),
    ("network.stats.record",
     "repro.network.stats:StatsCollector", "record_drop"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "buffer_write"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "buffer_read"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "crossbar"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "arbiter"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "link"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "latch"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "credit"),
    ("energy.meter", "repro.energy.model:OrionEnergyMeter", "static_cycle"),
    ("energy.meter", "repro.energy.model:StaticEnergyCache", "tick"),
    ("traffic.tick", "repro.traffic.synthetic:OpenLoopSource", "tick"),
    ("memsys.tick", "repro.memsys.system:MemorySystem", "tick"),
    ("memsys.run", "repro.memsys.system:MemorySystem", "run"),
    ("harness.run_closed_loop",
     "repro.harness.experiment:ExperimentRunner", "run_closed_loop"),
    ("harness.aggregate",
     "repro.harness.experiment", "aggregate_closed_loop"),
    ("service.canonical.key", "repro.service.jobs:JobSpec", "key"),
    ("service.store.get", "repro.service.store:ResultStore", "get"),
    ("service.store.put", "repro.service.store:ResultStore", "put"),
    ("service.serialize", "repro.service.serialize", "result_to_dict"),
    ("service.serialize", "repro.service.serialize", "result_from_dict"),
)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Accumulates layer totals and spans for one traced workload run."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        #: layer -> [calls, inclusive_s, self_s] for the open bucket.
        self._bucket: Dict[str, List[float]] = {}
        #: layer -> [calls, inclusive_s, self_s] over the whole run.
        self.totals: Dict[str, List[float]] = {}
        #: Wrapped-callee time owed to each open wrapped call.
        self._children: List[float] = []
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._installed: List[Tuple[object, str, bool, object]] = []
        self._bucket_start = 0.0
        self._bucket_first_cycle = 0

    # -- wrappers --------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target (call before the networks are built)."""
        for layer, path, attr in TARGETS:
            owner = _resolve(path)
            acc = self._bucket.setdefault(layer, [0, 0.0, 0.0])
            self.totals.setdefault(layer, [0, 0.0, 0.0])
            original = getattr(owner, attr)
            owned = attr in vars(owner)
            wrapper = self._wrap(original, acc)
            if layer == "simulation.step":
                wrapper = self._with_buckets(wrapper)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, owned, original))
        return self

    def restore(self) -> None:
        """Put back exactly the attributes :meth:`install` replaced."""
        while self._installed:
            owner, attr, owned, original = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, original, acc: List[float]):
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        traced.__wrapped__ = original
        return traced

    def _with_buckets(self, traced_step):
        """``Network.step`` also closes a bucket span every
        :data:`BUCKET_CYCLES` simulated cycles."""

        def step(net):
            traced_step(net)
            if net.cycle % BUCKET_CYCLES == 0:
                self.close_bucket(net.cycle)

        step.__wrapped__ = traced_step.__wrapped__
        return step

    # -- spans -----------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[dict]:
        """Record one span; ``unit`` is inherited from the parent."""
        parent = self._open[-1] if self._open else None
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        record = {
            "name": name,
            "start": self.now(),
            "end": None,
            "parent": parent,
            "unit": unit,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        self._bucket_start = record["start"]
        try:
            yield record
        finally:
            self.close_bucket(None)
            self._open.pop()
            record["end"] = self.now()

    def close_bucket(self, cycle: Optional[int]) -> None:
        """Fold the open bucket into the totals; when it saw any wrapped
        call, keep it as a span under the innermost open span."""
        layers = {}
        for layer, acc in self._bucket.items():
            if acc[0]:
                layers[layer] = {
                    "calls": acc[0],
                    "inclusive_s": acc[1],
                    "self_s": acc[2],
                }
                total = self.totals[layer]
                total[0] += acc[0]
                total[1] += acc[1]
                total[2] += acc[2]
                acc[0], acc[1], acc[2] = 0, 0.0, 0.0
        now = self.now()
        if layers and self._open:
            parent = self._open[-1]
            self.spans.append(
                {
                    "name": (
                        f"cycles {self._bucket_first_cycle}-{cycle}"
                        if cycle is not None
                        else "tail"
                    ),
                    "start": self._bucket_start,
                    "end": now,
                    "parent": parent,
                    "unit": self.spans[parent]["unit"],
                    "layers": layers,
                }
            )
        self._bucket_start = now
        self._bucket_first_cycle = cycle if cycle is not None else 0

    # -- read-out --------------------------------------------------------
    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, (0, 0.0, 0.0))[0])

    def inclusive_s(self, layer: str) -> float:
        return float(self.totals.get(layer, (0, 0.0, 0.0))[1])

    def self_s(self, layer: str) -> float:
        return float(self.totals.get(layer, (0, 0.0, 0.0))[2])

    def chrome_trace(self, workload: str) -> dict:
        """The spans as Chrome trace-event JSON (one row per unit)."""
        units: Dict[Optional[str], int] = {}
        events = []
        for record in self.spans:
            tid = units.setdefault(record["unit"], len(units))
            event = {
                "name": record["name"],
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": round(record["start"] * 1e6, 1),
                "dur": round(
                    ((record["end"] or record["start"]) - record["start"])
                    * 1e6,
                    1,
                ),
            }
            if "layers" in record:
                event["args"] = record["layers"]
            events.append(event)
        for unit, tid in units.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": unit or workload},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None) -> Iterator[None]:
        yield None
