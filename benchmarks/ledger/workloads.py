"""The four simulator workloads of the ledger and their output checks.

Each workload is a fixed list of *units*; one *rep* rebuilds and re-runs
every unit once and returns the timed windows, the simulated statistics
and the outcome of the output checks.  ``run.py`` repeats reps for the
requested number of seconds.  Sizes are the ISSUE's, trimmed so that
many reps fit in one run (the box's noise is beaten by repetition, not
by longer units); ``smoke`` sizes finish in about a second.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``; the fifth workload lives in ``frontdoor.py``.
"""

# Wall-clock timing is this file's purpose (benchmark harness, not
# simulation state): perf_counter brackets calls into the simulator.
# simlint: disable-file=wallclock

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro import Design, Network, NetworkConfig
from repro.harness import MAIN_DESIGNS, ExperimentRunner, geometric_mean
from repro.memsys.system import MemorySystem
from repro.network.flit import reset_packet_ids
from repro.obs.hub import Observability, ObservabilityOptions
from repro.service import result_to_dict
from repro.traffic.synthetic import OpenLoopSource
from repro.traffic.workloads import WORKLOADS

#: The eight crisp Figure 2 references of EXPERIMENTS.md (E1-E4):
#: ``(high-load class, result field, design, paper geomean normalised
#: to backpressured)``.
FIG2_REFERENCES: Tuple[Tuple[bool, str, Design, float], ...] = (
    (False, "performance", Design.BACKPRESSURELESS, 1.00),
    (False, "performance", Design.AFC, 1.00),
    (False, "performance", Design.AFC_ALWAYS_BACKPRESSURED, 1.00),
    (False, "energy_per_txn", Design.BACKPRESSURELESS, 0.70),
    (True, "performance", Design.BACKPRESSURELESS, 0.81),
    (True, "performance", Design.AFC, 0.98),
    (True, "energy_per_txn", Design.BACKPRESSURELESS, 1.35),
    (True, "energy_per_txn", Design.AFC, 1.02),
)


def paper_err_pct(cells: Dict[Tuple[str, str], List[dict]]) -> float:
    """Mean absolute gap, in percentage points, between the geomeans of
    ``cells`` and the Figure 2 references whose design was run.

    ``cells`` maps ``(workload, design value)`` to the result dicts of
    that cell (one per base seed; their mean is the cell's value).
    """
    gaps = []
    for high_load, fld, design, reference in FIG2_REFERENCES:

        def cell(name: str, which: Design) -> float:
            runs = cells.get((name, which.value), ())
            return sum(r[fld] for r in runs) / len(runs) if runs else 0.0

        ratios = []
        for workload in WORKLOADS.values():
            if workload.high_load != high_load:
                continue
            value = cell(workload.name, design)
            base = cell(workload.name, Design.BACKPRESSURED)
            if value <= 0.0 or base <= 0.0:
                break  # design not run (or nothing completed): skip it
            ratios.append(value / base)
        else:
            gaps.append(abs(geometric_mean(ratios) - reference) * 100.0)
    return sum(gaps) / len(gaps) if gaps else 0.0


def unit_stats(net: Network) -> dict:
    """The simulated statistics of one finished network, as exact
    JSON-ready values (they feed ``sim_digest`` and the simulated
    per-layer metrics)."""
    stats = net.stats
    energy = net.measured_energy()
    modes = list(stats.mode_stats.values())
    return {
        "design": net.design.value,
        "nodes": net.mesh.num_nodes,
        "cycles": stats.cycles,
        "total_cycles": net.cycle,
        "flit_hops": stats.dispatched_flit_hops,
        "flits_injected": stats.flits_injected,
        "flits_ejected": stats.flits_ejected,
        "packets_completed": stats.packets_completed,
        "packet_latency_sum": stats.packet_latency_sum,
        "p99_packet_latency": stats.p99_packet_latency,
        "hops_sum": stats.hops_sum,
        "deflections": stats.deflections,
        "energy_pj": energy.total,
        "buffer_energy_pj": energy.buffer,
        "backpressured_fraction": stats.network_backpressured_fraction,
        "forward_switches": sum(m.forward_switches for m in modes),
        "reverse_switches": sum(m.reverse_switches for m in modes),
        "gossip_switches": stats.total_gossip_switches,
    }


@contextmanager
def capture_built() -> Iterator[Dict[str, list]]:
    """Record every ``Network`` and ``MemorySystem`` constructed inside
    the block.  ``ExperimentRunner`` builds them internally and keeps
    only a result; the exact flit-hop and transaction counts live on
    the objects.  One attribute rebind per construction, nothing per
    cycle."""
    built: Dict[str, list] = {"networks": [], "systems": []}
    originals = (Network.__init__, MemorySystem.__init__)

    def network_init(self, *args, **kwargs):
        originals[0](self, *args, **kwargs)
        built["networks"].append(self)

    def system_init(self, *args, **kwargs):
        originals[1](self, *args, **kwargs)
        built["systems"].append(self)

    Network.__init__ = network_init
    MemorySystem.__init__ = system_init
    try:
        yield built
    finally:
        Network.__init__, MemorySystem.__init__ = originals


def closed_loop_cell(
    runner: ExperimentRunner, design: Design, workload_name: str
) -> Tuple[float, dict]:
    """Time one ``run_closed_loop`` and collect its exact statistics."""
    with capture_built() as built:
        start = time.perf_counter()
        result = runner.run_closed_loop(design, WORKLOADS[workload_name])
        wall = time.perf_counter() - start
    stats = unit_stats(built["networks"][0])
    system = built["systems"][0]
    stats["transactions"] = system.transactions_completed
    stats["miss_latency_sum"] = sum(c.latency_sum for c in system.cores)
    stats["cores"] = len(system.cores)
    stats["result"] = result_to_dict(result)
    return wall, stats


@dataclass
class Rep:
    """One pass over a workload's units."""

    #: unit name -> timed window (seconds).
    walls: Dict[str, float] = field(default_factory=dict)
    #: unit name -> simulated statistics.
    units: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class OpenUnit:
    """One open-loop uniform-random run on a square mesh."""

    name: str
    design: Design
    width: int
    rate: float
    cycles: int
    engine: str = "active"
    queue_limit: int = 500
    #: Attach ``Observability`` with these options before running.
    obs: Optional[ObservabilityOptions] = None

    def build(self, seed: int) -> Tuple[Network, OpenLoopSource]:
        reset_packet_ids()
        net = Network(
            NetworkConfig(width=self.width, height=self.width),
            self.design,
            seed=seed,
            engine=self.engine,
        )
        source = OpenLoopSource(
            net, self.rate, seed=seed, source_queue_limit=self.queue_limit
        )
        return net, source

    def timed(self, seed: int) -> float:
        """Build, run and time the unit once (ratio measurements)."""
        net, source = self.build(seed)
        observer = (
            Observability(net, self.obs).attach() if self.obs else None
        )
        try:
            start = time.perf_counter()
            source.run(self.cycles)
            return time.perf_counter() - start
        finally:
            if observer is not None:
                observer.detach()


@dataclass(frozen=True)
class Ratio:
    """A traced-run-only wall ratio between two variants of one unit."""

    metric: str
    numerator: OpenUnit
    denominator: OpenUnit


@dataclass(frozen=True)
class OpenLoopWorkload:
    name: str
    units: Tuple[OpenUnit, ...]
    ratios: Tuple[Ratio, ...] = ()
    #: ``(vector unit, cycles)``: its statistics must equal a
    #: default-engine run of the same unit (once per run, untimed).
    identity: Optional[Tuple[OpenUnit, int]] = None

    def rep(self, seed: int, tracer) -> Rep:
        rep = Rep()
        for unit in self.units:
            with tracer.span(unit.name, unit=unit.name):
                with tracer.span("setup"):
                    net, source = unit.build(seed)
                with tracer.span("run"):
                    start = time.perf_counter()
                    source.run(unit.cycles)
                    rep.walls[unit.name] = time.perf_counter() - start
                with tracer.span("collect"):
                    rep.attempted += 1
                    try:
                        net.check_flit_conservation()
                    except RuntimeError as exc:
                        rep.failures.append(f"{unit.name}: {exc}")
                    stats = unit_stats(net)
                    stats["offered_packets"] = source.offered_packets
                    stats["vector_requested"] = unit.engine == "vector"
                    stats["vector_fallback"] = (
                        net.vector_fallback_reason is not None
                    )
                    rep.units[unit.name] = stats
        return rep

    def build(self, seed: int) -> None:
        """Construct every unit once (what ``setup_s`` times in a fresh
        interpreter)."""
        for unit in self.units:
            unit.build(seed)

    def identity_mismatches(self, seed: int) -> int:
        """0 when the vector unit's statistics equal the default
        engine's, else 1 (0 for workloads without a vector unit)."""
        if self.identity is None:
            return 0
        unit, cycles = self.identity
        seen = []
        for engine in ("vector", "active"):
            net, source = replace(unit, engine=engine).build(seed)
            source.run(cycles)
            seen.append(unit_stats(net))
        return 0 if seen[0] == seen[1] else 1



@dataclass(frozen=True)
class Fig2Workload:
    name: str
    warmup: int
    measure: int
    ratios: Tuple[Ratio, ...] = ()  # no variant of a cell is compared

    def rep(self, seed: int, tracer) -> Rep:
        rep = Rep()
        with tracer.span("runner", unit="runner"), tracer.span("setup"):
            runner = self.build(seed)
        for workload in WORKLOADS:
            for design in MAIN_DESIGNS:
                name = f"{workload}/{design.value}"
                with tracer.span(name, unit=name), tracer.span("run"):
                    rep.walls[name], rep.units[name] = closed_loop_cell(
                        runner, design, workload
                    )
                rep.attempted += 1
                if rep.units[name]["transactions"] <= 0:
                    rep.failures.append(f"{name}: no transaction completed")
        return rep

    def build(self, seed: int) -> ExperimentRunner:
        return ExperimentRunner(
            jobs=1,
            seeds=1,
            warmup_cycles=self.warmup,
            measure_cycles=self.measure,
            base_seed=seed,
        )

    def identity_mismatches(self, seed: int) -> int:
        return 0



def fig2_paper_err_pct(units: Dict[str, dict]) -> float:
    cells: Dict[Tuple[str, str], List[dict]] = {}
    for name, stats in units.items():
        workload, _, design = name.partition("/")
        cells[(workload, design)] = [stats["result"]]
    return paper_err_pct(cells)


def sim_workloads(smoke: bool) -> Dict[str, object]:
    """The four simulator workloads at full or ``--smoke`` size."""
    scale = 10 if smoke else 1
    bp, bpl, afc = Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC

    def mesh8(rate: float, cycles: int) -> Tuple[OpenUnit, ...]:
        return tuple(
            OpenUnit(f"{d.value}@{rate}", d, 8, rate, cycles // scale)
            for d in (bp, bpl, afc)
        )

    def variant(unit: OpenUnit, suffix: str, **changes) -> OpenUnit:
        return replace(unit, name=f"{unit.name}+{suffix}", **changes)

    sat = mesh8(0.6, 300)
    idle = mesh8(0.05, 2000)
    big_bpl = OpenUnit(
        "backpressureless@16x16@0.8", bpl, 16, 0.8, 600 // scale,
        engine="vector", queue_limit=60,
    )
    big_afc = OpenUnit(
        "afc@16x16@0.6", afc, 16, 0.6, 150 // scale,
        engine="vector", queue_limit=60,
    )
    observed = ObservabilityOptions(trace=True, metrics=True, probe_every=100)
    return {
        "fig2_closed_3x3": Fig2Workload(
            "fig2_closed_3x3",
            warmup=100 if smoke else 300,
            measure=300 if smoke else 1200,
        ),
        "sat_open_8x8": OpenLoopWorkload(
            "sat_open_8x8",
            sat,
            ratios=(
                Ratio(
                    "simulation.naive_wall_ratio",
                    sat[2],
                    variant(sat[2], "naive", engine="naive"),
                ),
                Ratio(
                    "obs.observed_wall_ratio",
                    variant(sat[2], "observed", obs=observed),
                    sat[2],
                ),
                Ratio(
                    "obs.profiler_wall_ratio",
                    variant(
                        sat[2],
                        "profiled",
                        obs=ObservabilityOptions(profile=True),
                    ),
                    sat[2],
                ),
            ),
        ),
        "idle_open_8x8": OpenLoopWorkload(
            "idle_open_8x8",
            idle,
            ratios=(
                Ratio(
                    "simulation.naive_wall_ratio",
                    idle[2],
                    variant(idle[2], "naive", engine="naive"),
                ),
                Ratio(
                    "engine.vector.idle_wall_ratio",
                    variant(idle[1], "vector", engine="vector"),
                    idle[1],
                ),
            ),
        ),
        "large_vector_mesh": OpenLoopWorkload(
            "large_vector_mesh",
            (big_bpl, big_afc),
            ratios=(
                Ratio(
                    "engine.vector_speedup",
                    variant(big_bpl, "active", engine="active"),
                    big_bpl,
                ),
            ),
            identity=(big_bpl, 300 // scale),
        ),
    }
