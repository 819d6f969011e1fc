"""In-simulation instrumentation.

:class:`TimeSeriesProbe` samples named metrics at a fixed interval
while a simulation runs (mode residency over time, per-router EWMA,
accepted throughput, ...) — the data behind plots like this paper's
duty-cycle discussion.  :func:`channel_utilization` summarises how
evenly the link load is spread, which is where deflection routing's
misroutes show up spatially.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.afc_router import AfcRouter
from ..core.mode_controller import Mode
from ..domain import Integer
from ..simulation import Network


class TimeSeriesProbe:
    """Periodic sampling of arbitrary metrics over a running network.

    Register metrics as callables of the network, then interleave
    :meth:`maybe_sample` with the simulation loop (or use :meth:`run`,
    which drives both)::

        probe = TimeSeriesProbe(net, every=100)
        probe.add("throughput", lambda n: n.stats.throughput)
        probe.add_builtin_afc_metrics()
        probe.run(5_000, tick=traffic.tick)
        probe.series["backpressured_fraction"]

    With ``jsonl_path`` set, every sample is additionally appended to
    that file as one JSON line and flushed immediately, so a run that
    is killed mid-flight still leaves every *completed* sample on disk
    with no torn records (the reader, :func:`load_probe_jsonl`, drops
    at most a truncated final line — the same torn-tail tolerance the
    service store applies to its checkpoints).
    """

    def __init__(
        self,
        network: Network,
        every: int = 100,
        jsonl_path: Optional[str] = None,
    ) -> None:
        self.network = network
        self.every = Integer(1).check("every", every)
        self.jsonl_path = jsonl_path
        self.cycles: List[int] = []
        self.series: Dict[str, List[float]] = {}
        self._metrics: Dict[str, Callable[[Network], float]] = {}
        self._last_sample = network.cycle - every  # sample immediately
        self._jsonl_file = None

    def add(self, name: str, metric: Callable[[Network], float]) -> None:
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        self._metrics[name] = metric
        self.series[name] = []

    def add_builtin_afc_metrics(self) -> None:
        """Instantaneous mode residency and mean EWMA of AFC routers."""

        def backpressured_fraction(net: Network) -> float:
            routers = [
                r for r in net.routers if isinstance(r, AfcRouter)
            ]
            if not routers:
                return 0.0
            in_bp = sum(
                1 for r in routers if r.mode is Mode.BACKPRESSURED
            )
            return in_bp / len(routers)

        def mean_ewma(net: Network) -> float:
            routers = [
                r for r in net.routers if isinstance(r, AfcRouter)
            ]
            if not routers:
                return 0.0
            return sum(r.ewma_load for r in routers) / len(routers)

        self.add("backpressured_fraction", backpressured_fraction)
        self.add("mean_ewma", mean_ewma)

    # -- hook-driven operation ------------------------------------------------
    def attach(self) -> "TimeSeriesProbe":
        """Sample automatically after every network cycle (subscribes
        to the network's ``cycle_end`` site); pairs with :meth:`detach`.

        This makes the probe usable where the caller does not own the
        simulation loop (the experiment harness, the CLI)."""
        self.network.subscribe("cycle_end", self._on_cycle)
        return self

    def detach(self) -> None:
        self.network.unsubscribe("cycle_end", self._on_cycle)
        self.close()

    def close(self) -> None:
        """Flush and close the JSONL stream (idempotent).  Called by
        :meth:`detach`, so materialization or an interrupt that unwinds
        through the harness never leaves a buffered partial record."""
        if self._jsonl_file is not None:
            try:
                self._jsonl_file.close()
            except OSError:
                pass
            self._jsonl_file = None

    def _on_cycle(self, cycle: int) -> None:
        self.maybe_sample()

    def __enter__(self) -> "TimeSeriesProbe":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def to_dict(self) -> dict:
        """The sampled series as a JSON-ready dict."""
        return {
            "every": self.every,
            "cycles": list(self.cycles),
            "series": {name: list(vals) for name, vals in self.series.items()},
        }

    # -- sampling ------------------------------------------------------------
    def maybe_sample(self) -> bool:
        """Sample if the interval elapsed; returns True when sampled."""
        if self.network.cycle - self._last_sample < self.every:
            return False
        # Metrics read lazily-maintained router state (EWMA estimates).
        self.network.sync_bookkeeping()
        self._last_sample = self.network.cycle
        self.cycles.append(self.network.cycle)
        for name, metric in self._metrics.items():
            self.series[name].append(metric(self.network))
        if self.jsonl_path is not None:
            self._write_jsonl_row()
        return True

    def _write_jsonl_row(self) -> None:
        """Append the just-taken sample as one complete, flushed JSON
        line (best-effort: a full disk must not kill the run)."""
        try:
            if self._jsonl_file is None:
                self._jsonl_file = open(
                    self.jsonl_path, "w", encoding="utf-8"
                )
            row = {
                "cycle": self.cycles[-1],
                "values": {
                    name: vals[-1]
                    for name, vals in self.series.items()
                },
            }
            self._jsonl_file.write(
                json.dumps(row, separators=(",", ":")) + "\n"
            )
            self._jsonl_file.flush()
        except (OSError, ValueError):
            # Stop streaming for the rest of the run — a "w" reopen
            # would truncate the rows already on disk.
            self.close()
            self.jsonl_path = None

    def run(
        self,
        cycles: int,
        tick: Optional[Callable[[], None]] = None,
    ) -> None:
        """Drive the network ``cycles`` cycles, sampling on the way;
        ``tick`` (e.g. a traffic source's tick) runs before each step."""
        for _ in range(cycles):
            self.maybe_sample()
            if tick is not None:
                tick()
            self.network.step()
        self.maybe_sample()

    def __len__(self) -> int:
        return len(self.cycles)


def load_probe_jsonl(path) -> dict:
    """Reassemble a probe JSONL stream into ``{"cycles", "series"}``.

    Tolerates a torn final line (killed run) by dropping it; rows with
    a metric the first row lacked are ignored for that metric (cannot
    happen from one probe, defensive for hand-edited files)."""
    cycles: List[int] = []
    series: Dict[str, List[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            cycles.append(int(row["cycle"]))
            for name, value in (row.get("values") or {}).items():
                series.setdefault(name, []).append(value)
    return {"cycles": cycles, "series": series}


@dataclass(frozen=True)
class ChannelUtilization:
    """Link-load summary for one simulation."""

    total_traversals: int
    mean_per_channel: float
    max_per_channel: int
    min_per_channel: int
    #: Coefficient of variation — higher means more spatial imbalance.
    imbalance: float
    per_channel: Dict[str, int] = field(default_factory=dict)


def channel_utilization(network: Network) -> ChannelUtilization:
    """Summarise flit traversals across all channels (cumulative since
    network construction)."""
    counts = [ch.flit_traversals for ch in network.channels]
    if not counts:
        raise ValueError("network has no channels")
    total = sum(counts)
    mean = total / len(counts)
    if mean > 0:
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        imbalance = variance ** 0.5 / mean
    else:
        imbalance = 0.0
    per_channel = {
        f"{ch.upstream}->{ch.downstream}": ch.flit_traversals
        for ch in network.channels
    }
    return ChannelUtilization(
        total_traversals=total,
        mean_per_channel=mean,
        max_per_channel=max(counts),
        min_per_channel=min(counts),
        imbalance=imbalance,
        per_channel=per_channel,
    )
