"""Pipeline profiler: per-stage wall-clock self-time by cycle bucket.

The :class:`PipelineProfiler` wraps ``Network.step`` and each router's
pipeline-stage methods — ``deliver``, ``step`` and the sub-stages its
class declares in
:attr:`~repro.network.router_base.BaseRouter.STAGES` — with timing
closures installed as *instance attributes*, shadowing the class
methods.  ``detach`` deletes the instance attributes, restoring
the originals — no subclassing, no permanent monkey-patching, and zero
cost for un-profiled networks.  The profiler registers with the network
like every other extension — a ``cycle_end`` subscription that counts
profiled cycles — so a vector-engine network falls back to the scalar
routers being timed instead of running invisibly.

Inclusive time is accumulated per ``(node, stage)`` and per cycle
bucket; :meth:`report` converts to *exclusive* (self) time by
subtracting each stage's children (sub-stages nested inside it), names
the hottest router and hottest stage, and returns a JSON-ready dict.
:meth:`render` produces the text report locally (this module must not
import the harness — the harness imports us).

Profiling necessarily reads the wall clock, which the determinism lint
forbids in simulation scope; the import is explicitly suppressed and
the profiler never feeds timing back into simulation state.
"""

from __future__ import annotations

import time  # simlint: disable=wallclock
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["PipelineProfiler", "render_report"]

#: Special node id for the network-level step (engine) phase.
_ENGINE = -1


class PipelineProfiler:
    """Times router pipeline stages and engine phases per cycle bucket."""

    def __init__(self, net, bucket_cycles: int = 1000) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.net = net
        self.bucket_cycles = bucket_cycles
        self.attached = False
        # (node, stage) -> [inclusive seconds, call count]
        self._totals: Dict[Tuple[int, str], List[float]] = {}
        # bucket index -> stage -> inclusive seconds (summed over nodes)
        self._buckets: Dict[int, Dict[str, float]] = {}
        self._wrapped: List[Tuple[object, str]] = []
        # node -> its router class's STAGES (stage -> nested stages)
        self._nested: Dict[int, Dict[str, Tuple[str, ...]]] = {}
        self.cycles_profiled = 0

    # -- lifecycle ---------------------------------------------------------
    def attach(self) -> "PipelineProfiler":
        if self.attached:
            return self
        self.net.subscribe("cycle_end", self._count_cycle)
        for router in self.net.routers:
            node = router.node
            self._nested[node] = nested = router.STAGES
            for stage in (
                "deliver",
                "step",
                *(child for inner in nested.values() for child in inner),
            ):
                original = getattr(router, stage)
                setattr(router, stage, self._wrap(original, node, stage))
                self._wrapped.append((router, stage))
        self.net.step = self._wrap(self.net.step, _ENGINE, "net.step")
        self._wrapped.append((self.net, "step"))
        self.attached = True
        return self

    def detach(self) -> None:
        if not self.attached:
            return
        self.net.unsubscribe("cycle_end", self._count_cycle)
        # Deleting the instance attribute re-exposes the class method.
        for owner, name in self._wrapped:
            try:
                delattr(owner, name)
            except AttributeError:
                pass
        self._wrapped.clear()
        self.attached = False

    def __enter__(self) -> "PipelineProfiler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, original: Callable, node: int, stage: str) -> Callable:
        perf = time.perf_counter
        totals = self._totals
        buckets = self._buckets
        key = (node, stage)
        bucket_cycles = self.bucket_cycles
        net = self.net

        def timed(*args, **kwargs):
            bucket = net.cycle // bucket_cycles
            start = perf()
            result = original(*args, **kwargs)
            elapsed = perf() - start
            cell = totals.get(key)
            if cell is None:
                cell = totals[key] = [0.0, 0]
            cell[0] += elapsed
            cell[1] += 1
            per_stage = buckets.get(bucket)
            if per_stage is None:
                per_stage = buckets[bucket] = {}
            per_stage[stage] = per_stage.get(stage, 0.0) + elapsed
            return result

        return timed

    def _count_cycle(self, cycle: int) -> None:
        self.cycles_profiled += 1

    # -- reporting ---------------------------------------------------------
    def _exclusive(self) -> Dict[Tuple[int, str], float]:
        """Per (node, stage) self time: inclusive minus nested children."""
        exclusive: Dict[Tuple[int, str], float] = {}
        for (node, stage), (seconds, _calls) in self._totals.items():
            self_time = seconds
            for child in self._nested.get(node, {}).get(stage, ()):
                child_cell = self._totals.get((node, child))
                if child_cell is not None:
                    self_time -= child_cell[0]
            exclusive[(node, stage)] = max(self_time, 0.0)
        # Engine self time: net.step minus every router's deliver+step.
        engine = self._totals.get((_ENGINE, "net.step"))
        if engine is not None:
            routed = sum(
                cell[0]
                for (node, stage), cell in self._totals.items()
                if node != _ENGINE and stage in ("deliver", "step")
            )
            exclusive[(_ENGINE, "net.step")] = max(engine[0] - routed, 0.0)
        return exclusive

    def report(self) -> dict:
        """JSON-ready self-time report.

        Names the hottest router (by inclusive deliver+step time) and
        the hottest ``(router, stage)`` by exclusive time, with
        per-stage totals and the per-bucket time series.
        """
        exclusive = self._exclusive()

        per_router: Dict[int, float] = {}
        for (node, stage), (seconds, _calls) in self._totals.items():
            if node != _ENGINE and stage in ("deliver", "step"):
                per_router[node] = per_router.get(node, 0.0) + seconds
        hottest_router = None
        if per_router:
            hottest_router = min(
                per_router, key=lambda n: (-per_router[n], n)
            )

        hottest_stage = None
        router_exclusive = {
            key: sec for key, sec in exclusive.items() if key[0] != _ENGINE
        }
        if router_exclusive:
            node, stage = min(
                router_exclusive,
                key=lambda k: (-router_exclusive[k], k),
            )
            hottest_stage = {
                "router": node,
                "stage": stage,
                "self_seconds": router_exclusive[(node, stage)],
            }

        stage_totals: Dict[str, dict] = {}
        for (node, stage), (seconds, calls) in sorted(self._totals.items()):
            agg = stage_totals.setdefault(
                stage, {"inclusive_seconds": 0.0, "self_seconds": 0.0,
                        "calls": 0}
            )
            agg["inclusive_seconds"] += seconds
            agg["self_seconds"] += exclusive.get((node, stage), 0.0)
            agg["calls"] += calls

        buckets = [
            {
                "bucket": bucket,
                "start_cycle": bucket * self.bucket_cycles,
                "stages": {
                    stage: seconds
                    for stage, seconds in sorted(per_stage.items())
                },
            }
            for bucket, per_stage in sorted(self._buckets.items())
        ]

        return {
            "bucket_cycles": self.bucket_cycles,
            "cycles_profiled": self.cycles_profiled,
            "hottest_router": hottest_router,
            "hottest_router_seconds": (
                per_router.get(hottest_router, 0.0)
                if hottest_router is not None else 0.0
            ),
            "hottest_stage": hottest_stage,
            "stage_totals": stage_totals,
            "buckets": buckets,
        }

    def render(self) -> str:
        """The report as aligned text (kept local: no harness import)."""
        return render_report(self.report())


def render_report(report: dict) -> str:
    """Render a :meth:`PipelineProfiler.report` dict as aligned text
    (also usable on a report shipped across a process boundary)."""
    lines = [
        "pipeline profile "
        f"({report['cycles_profiled']} cycles, "
        f"bucket={report['bucket_cycles']}):"
    ]
    if report["hottest_router"] is not None:
        lines.append(
            f"  hottest router: {report['hottest_router']} "
            f"({report['hottest_router_seconds'] * 1e3:.2f} ms "
            "deliver+step)"
        )
    hottest = report["hottest_stage"]
    if hottest is not None:
        lines.append(
            f"  hottest stage:  router {hottest['router']} "
            f"{hottest['stage']} "
            f"({hottest['self_seconds'] * 1e3:.2f} ms self)"
        )
    lines.append(
        f"  {'stage':<26} {'self ms':>10} {'incl ms':>10} {'calls':>10}"
    )
    ranked = sorted(
        report["stage_totals"].items(),
        key=lambda kv: (-kv[1]["self_seconds"], kv[0]),
    )
    for stage, agg in ranked:
        lines.append(
            f"  {stage:<26} {agg['self_seconds'] * 1e3:>10.2f} "
            f"{agg['inclusive_seconds'] * 1e3:>10.2f} "
            f"{agg['calls']:>10}"
        )
    return "\n".join(lines)
