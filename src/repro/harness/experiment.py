"""Warmed-up, multi-seed experiment runs.

The paper's methodology (Section IV): closed-loop execution of
multi-threaded workloads for performance/energy (Figures 2–3, repeated
"multiple times to account for statistical variations"), plus open-loop
synthetic traffic for the saturation and spatial-variation studies.
:class:`ExperimentRunner` reproduces that discipline — every run is
warmup → ``begin_measurement`` → measure, and every reported number is
a mean over seeds with its standard deviation (the paper's variance
bars).

What an experiment *kind* is — its per-seed inputs, how one seed runs,
what a sample holds, how samples fold into a result — is described once,
in :data:`KINDS`.  The runner, the sweeps, the experiment service
(:mod:`repro.service`) and the CLI look a kind up there; none of them
branches on it (docs/EXTENDING.md, "Adding an experiment kind").
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..energy.model import EnergyBreakdown
from ..faults.protection import ProtectionConfig
from ..faults.schedule import FaultSpec
from ..memsys.system import MemorySystem
from ..network.config import (
    DEFAULT_MACHINE_CONFIG,
    Design,
    MachineConfig,
    NetworkConfig,
)
from ..network.flit import reset_packet_ids
from ..obs.hub import Observability, ObservabilityOptions
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import clear_run, publish_run
from ..simulation import Network
from ..traffic.patterns import TrafficPattern
from ..traffic.synthetic import OpenLoopSource, PacketMix
from ..traffic.workloads import WorkloadProfile

#: The four designs shown in every performance graph of Figure 2.
MAIN_DESIGNS: Tuple[Design, ...] = (
    Design.BACKPRESSURED,
    Design.BACKPRESSURELESS,
    Design.AFC,
    Design.AFC_ALWAYS_BACKPRESSURED,
)

#: Figure 2(b) additionally shows the ideal-bypass energy bound, which
#: "is relevant" only for the low-load energy comparison.
ENERGY_DESIGNS_LOW_LOAD: Tuple[Design, ...] = MAIN_DESIGNS + (
    Design.BACKPRESSURED_IDEAL_BYPASS,
)


_T = TypeVar("_T")
_J = TypeVar("_J")


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` where the
    platform does not offer it (then everything runs serially)."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def map_jobs(
    worker: Callable[[_J], _T], jobs_args: Sequence[_J], jobs: int
) -> List[_T]:
    """Run ``worker`` over ``jobs_args``, results in input order.

    With ``jobs > 1`` and a usable ``fork`` start method the work fans
    out across a :class:`ProcessPoolExecutor`; otherwise it runs
    serially in-process.  ``pool.map`` preserves input order, and every
    job is an independent simulation deriving its own seeds, so the
    merged statistics are identical either way — parallelism changes
    wall-clock time only.
    """
    ctx = None if jobs <= 1 or len(jobs_args) <= 1 else fork_context()
    if ctx is None:
        return [worker(args) for args in jobs_args]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(jobs_args))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(worker, jobs_args))


# -- the per-seed scaffold ------------------------------------------------


def _simulate(
    job: Any,
    build: Callable[[Network], Any],
    phases: Callable[[Network, Any], Any],
) -> Tuple[Network, Any, Any, Optional[dict]]:
    """One seed of any kind: returns ``(net, driver, outcome,
    observability)`` where ``driver = build(net)`` is the kind's traffic
    source and ``outcome = phases(net, driver)`` its phase schedule.

    Every RNG is seeded from the job alone, and nothing in a run
    depends on the *absolute* value of the global packet-id counter
    (ids only ever tie-break orderings, which offsets preserve), so a
    sample is the same whether computed in-process or in a fresh
    worker.  The reset keeps long sweeps from growing the counter
    without bound.

    With ``job.obs`` / ``job.sanitize`` off nothing subscribes to the
    network, so the run stays on the zero-overhead fast path and is
    bit-identical to an unobserved, unsanitized one.
    """
    reset_packet_ids()
    net = Network(job.config, job.design, seed=job.seed, engine=job.engine)
    driver = build(net)
    observer = None
    if job.obs is not None and job.obs.enabled:
        observer = Observability(net, job.obs).attach()
    # One attribute rebind per run: a service worker's beat thread
    # snapshots it into each heartbeat; invisible to the simulation.
    publish_run(net, observer.registry if observer is not None else None)
    try:
        guard = nullcontext()
        if job.sanitize:
            from ..analysis.sanitizer import Sanitizer

            guard = Sanitizer(net)
        with guard:
            outcome = phases(net, driver)
    finally:
        if observer is not None:
            observer.detach()
        clear_run()
    payload = observer.payload() if observer is not None else None
    return net, driver, outcome, payload


# -- closed loop ----------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoopJob:
    """Picklable description of one closed-loop (seed) run."""

    config: NetworkConfig
    machine: MachineConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    workload: WorkloadProfile
    seed: int
    sanitize: bool = False
    obs: Optional[ObservabilityOptions] = None
    engine: str = "active"


@dataclass(frozen=True)
class ClosedLoopSample:
    performance: float
    energy_per_txn: float
    breakdown_per_txn: EnergyBreakdown
    injection_rate: float
    avg_packet_latency: float
    avg_miss_latency: float
    backpressured_fraction: float
    forward_switches: float
    reverse_switches: float
    gossip_switches: float
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    observability: Optional[dict] = None


def run_closed_loop_seed(job: ClosedLoopJob) -> ClosedLoopSample:
    """One warmed-up closed-loop run (module-level so it pickles)."""

    def phases(net: Network, system: MemorySystem) -> None:
        system.run(job.warmup_cycles)
        system.begin_measurement()
        system.run(job.measure_cycles)

    net, system, _, observability = _simulate(
        job,
        lambda net: MemorySystem(
            net, job.workload, machine=job.machine, seed=1000 + job.seed
        ),
        phases,
    )
    txns = max(1, system.transactions_completed)
    energy = net.measured_energy()
    stats = net.stats
    modes = stats.mode_stats.values()
    return ClosedLoopSample(
        performance=system.transactions_per_kilocycle_per_core,
        energy_per_txn=energy.total / txns,
        breakdown_per_txn=EnergyBreakdown(
            **{
                f.name: getattr(energy, f.name) / txns
                for f in fields(EnergyBreakdown)
            }
        ),
        injection_rate=stats.injection_rate,
        avg_packet_latency=stats.avg_packet_latency,
        avg_miss_latency=system.avg_miss_latency,
        backpressured_fraction=stats.network_backpressured_fraction,
        forward_switches=sum(m.forward_switches for m in modes),
        reverse_switches=sum(m.reverse_switches for m in modes),
        gossip_switches=stats.total_gossip_switches,
        p50_packet_latency=stats.p50_packet_latency,
        p95_packet_latency=stats.p95_packet_latency,
        p99_packet_latency=stats.p99_packet_latency,
        observability=observability,
    )


@dataclass
class ClosedLoopResult:
    """Multi-seed summary of one (design, workload) closed-loop run."""

    design: Design
    workload: str
    seeds: int
    #: Transactions per kilocycle per core (inverse execution time).
    performance: float
    performance_std: float
    #: Network energy per completed transaction (fixed-work energy), pJ.
    energy_per_txn: float
    energy_per_txn_std: float
    #: Mean per-seed component breakdown, per transaction (pJ).
    breakdown_per_txn: EnergyBreakdown
    injection_rate: float
    avg_packet_latency: float
    avg_miss_latency: float
    backpressured_fraction: float
    forward_switches: float
    reverse_switches: float
    gossip_switches: float
    #: Histogram-backed latency percentiles (mean over seeds, cycles).
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    #: Merged observability payload (metrics from all seeds; trace /
    #: profile from the first); ``None`` when observability is off.
    observability: Optional[dict] = None


# -- open loop ------------------------------------------------------------


@dataclass(frozen=True)
class OpenLoopJob:
    """Picklable description of one open-loop (seed) run."""

    config: NetworkConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    rate: Union[float, Tuple[float, ...]]
    mix: PacketMix
    source_queue_limit: Optional[int]
    seed: int
    pattern: Optional[TrafficPattern] = None
    latency_groups: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    sanitize: bool = False
    obs: Optional[ObservabilityOptions] = None
    engine: str = "active"


@dataclass(frozen=True)
class OpenLoopSample:
    throughput: float
    avg_network_latency: float
    avg_packet_latency: float
    deflection_rate: float
    energy_per_flit: float
    breakdown: EnergyBreakdown
    backpressured_fraction: float
    gossip_switches: float
    group_latency: Tuple[Tuple[str, float], ...]
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    observability: Optional[dict] = None


def run_open_loop_seed(job: OpenLoopJob) -> OpenLoopSample:
    """One warmed-up open-loop run (module-level so it pickles)."""

    def phases(net: Network, source: OpenLoopSource) -> None:
        source.run(job.warmup_cycles)
        net.begin_measurement()
        source.run(job.measure_cycles)

    net, _, _, observability = _simulate(
        job,
        lambda net: OpenLoopSource(
            net,
            job.rate,
            pattern=job.pattern,
            mix=job.mix,
            seed=2000 + job.seed,
            source_queue_limit=job.source_queue_limit,
        ),
        phases,
    )
    stats = net.stats
    energy = net.measured_energy()
    flits = max(1, stats.flits_ejected)
    groups = []
    for name, nodes in job.latency_groups:
        members = set(nodes)
        lat_sum = sum(stats.per_node_latency_sum[n] for n in members)
        count = sum(stats.per_node_completed[n] for n in members)
        groups.append((name, lat_sum / count if count else 0.0))
    return OpenLoopSample(
        throughput=stats.throughput,
        avg_network_latency=stats.avg_network_latency,
        avg_packet_latency=stats.avg_packet_latency,
        deflection_rate=stats.deflection_rate,
        energy_per_flit=energy.total / flits,
        breakdown=energy,
        backpressured_fraction=stats.network_backpressured_fraction,
        gossip_switches=stats.total_gossip_switches,
        group_latency=tuple(groups),
        p50_packet_latency=stats.p50_packet_latency,
        p95_packet_latency=stats.p95_packet_latency,
        p99_packet_latency=stats.p99_packet_latency,
        observability=observability,
    )


@dataclass
class OpenLoopResult:
    """Multi-seed summary of one (design, rate, pattern) open-loop run."""

    design: Design
    offered_rate: float
    seeds: int
    throughput: float
    avg_network_latency: float
    latency_std: float
    avg_packet_latency: float
    deflection_rate: float
    #: Network energy per delivered flit, pJ.
    energy_per_flit: float
    breakdown: EnergyBreakdown
    backpressured_fraction: float
    gossip_switches: float
    #: Mean network latency restricted to packets destined to
    #: ``latency_by_group`` node groups (spatial-variation experiment).
    group_latency: Dict[str, float] = field(default_factory=dict)
    #: Histogram-backed latency percentiles (mean over seeds, cycles).
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    #: Merged observability payload (metrics from all seeds; trace /
    #: profile from the first); ``None`` when observability is off.
    observability: Optional[dict] = None


# -- faulted --------------------------------------------------------------


@dataclass(frozen=True)
class FaultJob:
    """Picklable description of one faulted (seed) run.

    Carries the :class:`FaultSpec` (a recipe), not the expanded
    schedule: the worker derives the schedule from ``(fault, seed)``
    alone, so fault experiments are reproducible regardless of which
    worker process runs which seed."""

    config: NetworkConfig
    warmup_cycles: int
    measure_cycles: int
    design: Design
    rate: float
    fault: FaultSpec
    protection: Optional[ProtectionConfig]
    drain_max_cycles: int
    seed: int
    engine: str = "active"

    #: Not fields, so the runner never sets them: injected faults break
    #: the very credit and conservation invariants the sanitizer asserts
    #: (the protection layer repairs them out-of-band via its own
    #: resync, see ``FaultInjector._resync_afc``), and a faulted sample
    #: has no observability payload to carry.
    sanitize: ClassVar[bool] = False
    obs: ClassVar[None] = None


@dataclass(frozen=True)
class FaultSample:
    delivered_packet_rate: float
    delivered_flit_rate: float
    avg_packet_latency: float
    throughput: float
    fault_events: int
    flits_corrupted: int
    credits_lost: int
    retransmissions: int
    packets_orphaned: int
    credit_resyncs: int
    reroutes: int
    avg_time_to_reroute: float
    drain_cycles: int


def run_fault_seed(job: FaultJob) -> FaultSample:
    """One faulted open-loop run (module-level so it pickles).

    No mid-run measurement reset: the statistics window covers the
    whole run including the drain tail, so after draining
    ``packets_completed == packets_injected - packets_orphaned`` holds
    exactly and the delivered rates are true fractions.  The warmup
    merely delays fault onset (the schedule starts at
    ``warmup_cycles``) so faults hit a loaded network."""

    def build(net: Network) -> Tuple[FaultInjector, OpenLoopSource]:
        from ..faults.injector import FaultInjector

        schedule = job.fault.schedule(
            net.mesh,
            start=job.warmup_cycles,
            horizon=job.measure_cycles,
            salt=job.seed,
        )
        injector = FaultInjector(net, schedule, protection=job.protection)
        source = OpenLoopSource(
            net, job.rate, seed=2000 + job.seed, source_queue_limit=2_000
        )
        return injector, source

    def phases(net: Network, driver) -> int:
        injector, source = driver
        source.run(job.warmup_cycles + job.measure_cycles)
        return injector.drain(max_cycles=job.drain_max_cycles)

    net, _, drained, _ = _simulate(job, build, phases)
    stats = net.stats
    return FaultSample(
        delivered_packet_rate=stats.delivered_despite_fault_rate,
        delivered_flit_rate=stats.delivered_flit_rate,
        avg_packet_latency=stats.avg_packet_latency,
        throughput=stats.throughput,
        fault_events=stats.fault_events,
        flits_corrupted=stats.flits_corrupted,
        credits_lost=stats.credits_lost,
        retransmissions=stats.protection_retransmissions,
        packets_orphaned=stats.packets_orphaned,
        credit_resyncs=stats.credit_resyncs,
        reroutes=stats.reroutes,
        avg_time_to_reroute=stats.avg_time_to_reroute,
        drain_cycles=drained,
    )


@dataclass
class FaultResult:
    """Multi-seed summary of one (design, rate, fault-spec) run."""

    design: Design
    offered_rate: float
    seeds: int
    #: Fraction of offered packets delivered (exactly once) by the end
    #: of the drain — the headline resilience metric.
    delivered_packet_rate: float
    #: Fraction of offered flits belonging to completed packets.
    delivered_flit_rate: float
    avg_packet_latency: float
    throughput: float
    fault_events: float
    flits_corrupted: float
    credits_lost: float
    retransmissions: float
    packets_orphaned: float
    credit_resyncs: float
    reroutes: float
    avg_time_to_reroute: float
    drain_cycles: float


# -- the aggregator -------------------------------------------------------


def _std(values: Sequence[float]) -> float:
    return statistics.stdev(values) if len(values) > 1 else 0.0


def _mean_breakdown(parts: Sequence[EnergyBreakdown]) -> EnergyBreakdown:
    n = len(parts)
    return EnergyBreakdown(
        **{
            f.name: sum(getattr(p, f.name) for p in parts) / n
            for f in fields(EnergyBreakdown)
        }
    )


def _mean_groups(
    groups: Sequence[Tuple[Tuple[str, float], ...]]
) -> Dict[str, float]:
    by_name: Dict[str, List[float]] = {}
    for pairs in groups:
        for name, value in pairs:
            by_name.setdefault(name, []).append(value)
    return {name: statistics.fmean(vals) for name, vals in by_name.items()}


def _merge_observability(payloads: Sequence[Optional[dict]]) -> Optional[dict]:
    """Combine per-seed observability payloads into one result payload.

    Metrics registries from *all* seeds merge (counters/histograms add,
    in seed order, so the merged registry is identical at any ``--jobs``
    because :func:`map_jobs` preserves input order).  Trace and profile
    payloads come from a single seed by construction (see
    :meth:`ExperimentRunner._obs_for_seed`) and pass through."""
    present = [p for p in payloads if p]
    if not present:
        return None
    merged: dict = {}
    registries = [p["metrics"] for p in present if "metrics" in p]
    if registries:
        registry = MetricsRegistry()
        for flat in registries:
            registry.merge(MetricsRegistry.from_dict(flat))
        merged["metrics"] = registry.to_dict()
    for key in ("trace_summary", "trace", "profile", "probe"):
        for payload in present:
            if key in payload:
                merged[key] = payload[key]
                break
    return merged or None


#: Result fields that are *not* ``statistics.fmean`` of the same-named
#: sample field: result field -> (sample field, reducer over the
#: per-seed values in seed order).
_REDUCERS: Dict[str, Tuple[str, Callable[[list], Any]]] = {
    "performance_std": ("performance", _std),
    "energy_per_txn_std": ("energy_per_txn", _std),
    "latency_std": ("avg_network_latency", _std),
    "breakdown_per_txn": ("breakdown_per_txn", _mean_breakdown),
    "breakdown": ("breakdown", _mean_breakdown),
    "group_latency": ("group_latency", _mean_groups),
    "observability": ("observability", _merge_observability),
}


def _fold(result_cls: type, samples: Sequence[Any], **header: Any) -> Any:
    """Per-seed samples folded into a ``result_cls``: ``header`` names
    the run (design, workload or offered rate), ``seeds`` counts the
    samples, every other field is reduced per :data:`_REDUCERS`.

    Pure and deterministic: the result is a function of the sample
    sequence alone (order included — observability payloads merge in
    seed order), so an aggregate over samples recovered from the
    experiment service's seed checkpoints is bit-identical to one over
    freshly computed samples."""
    reduced = {}
    for f in fields(result_cls):
        if f.name == "seeds" or f.name in header:
            continue
        source, reducer = _REDUCERS.get(f.name, (f.name, statistics.fmean))
        reduced[f.name] = reducer([getattr(s, source) for s in samples])
    return result_cls(seeds=len(samples), **header, **reduced)


def aggregate_closed_loop(
    design: Design,
    workload_name: str,
    samples: Sequence[ClosedLoopSample],
) -> ClosedLoopResult:
    """Fold per-seed closed-loop samples into one result (:func:`_fold`)."""
    return _fold(
        ClosedLoopResult, samples, design=design, workload=workload_name
    )


def _offered(rate: Union[float, Sequence[float]]) -> float:
    if isinstance(rate, (int, float)):
        return float(rate)
    return statistics.fmean(rate)


# -- the registry ---------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """Everything that distinguishes one experiment kind."""

    #: Frozen, picklable per-seed inputs.  Runner settings
    #: (``config``, ``machine``, cycle counts, ``seed``, ``sanitize``,
    #: ``obs``, ``engine``) reach a job iff it declares the field.
    job: type
    sample: type
    result: type
    #: ``job -> sample``; module-level so it pickles.
    run_seed: Callable[[Any], Any]
    #: ``(job, samples) -> result``: the result's identity fields read
    #: off any one seed's job, the rest through :func:`_fold`.
    fold: Callable[[Any, Sequence[Any]], Any]
    #: The request parameters (``JobSpec`` fields, named like the job
    #: fields they fill) this kind consumes: emitted, validated and
    #: hashed for this kind only.
    params: Tuple[str, ...]
    #: Package defaults the job depends on, pinned into a service job
    #: and its hash so that changing the default changes the key.
    pinned: Mapping[str, Any] = field(default_factory=dict)


KINDS: Dict[str, Kind] = {
    "closed_loop": Kind(
        job=ClosedLoopJob,
        sample=ClosedLoopSample,
        result=ClosedLoopResult,
        run_seed=run_closed_loop_seed,
        # Through the module namespace at call time: benchmarks/ledger
        # times the fold by wrapping this module attribute.
        fold=lambda job, samples: aggregate_closed_loop(
            job.design, job.workload.name, samples
        ),
        params=("workload",),
        pinned={"machine": DEFAULT_MACHINE_CONFIG},
    ),
    "open_loop": Kind(
        job=OpenLoopJob,
        sample=OpenLoopSample,
        result=OpenLoopResult,
        run_seed=run_open_loop_seed,
        fold=lambda job, samples: _fold(
            OpenLoopResult,
            samples,
            design=job.design,
            offered_rate=_offered(job.rate),
        ),
        params=("rate", "source_queue_limit"),
        pinned={"mix": PacketMix()},
    ),
    "faulted": Kind(
        job=FaultJob,
        sample=FaultSample,
        result=FaultResult,
        run_seed=run_fault_seed,
        fold=lambda job, samples: _fold(
            FaultResult, samples, design=job.design, offered_rate=job.rate
        ),
        params=("rate", "fault", "protection", "drain_max_cycles"),
    ),
}

def kind_entry(name: str) -> Kind:
    """``KINDS[name]``, for names that arrive from argv, JSON or disk."""
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment kind {name!r}; choose from {tuple(KINDS)}"
        ) from None


#: Least legal value of each count a runner or a job spec takes.
_COUNT_MINIMUMS = {
    "seeds": 1,
    "warmup_cycles": 0,
    "measure_cycles": 1,
    "jobs": 1,
}


def check_counts(**counts: int) -> None:
    """Raise ``ValueError`` naming the first count below its minimum in
    :data:`_COUNT_MINIMUMS` (a zero-seed run has nothing to fold, a
    zero-cycle window no rate to report)."""
    for name, value in counts.items():
        least = _COUNT_MINIMUMS[name]
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


class ExperimentRunner:
    """Builds, warms and measures simulations for one network config."""

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        machine: MachineConfig = DEFAULT_MACHINE_CONFIG,
        warmup_cycles: int = 4_000,
        measure_cycles: int = 10_000,
        seeds: int = 2,
        jobs: int = 1,
        base_seed: int = 0,
        sanitize: bool = False,
        obs: Optional[ObservabilityOptions] = None,
        engine: str = "active",
    ) -> None:
        check_counts(
            seeds=seeds,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            jobs=jobs,
        )
        self.config = config if config is not None else NetworkConfig()
        self.machine = machine
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.seeds = seeds
        #: Worker processes for the per-seed runs; 1 = serial.  Results
        #: are bit-identical at any job count (see :func:`map_jobs`).
        self.jobs = jobs
        #: First per-run seed; runs use ``base_seed .. base_seed+seeds-1``.
        #: Explicit so every RNG stream (traffic, per-router, fault
        #: schedules) derives from the job description alone — worker
        #: scheduling can never shift which seed a run gets.
        self.base_seed = base_seed
        #: Attach the runtime invariant sanitizer to every (non-faulted)
        #: run; a violation raises through :func:`map_jobs`.
        self.sanitize = sanitize
        #: Observability options applied to closed/open-loop runs;
        #: ``None`` (the default) leaves every hook unset.
        self.obs = obs
        #: Cycle engine every run is built with (``active``, ``vector``,
        #: or the ``naive`` reference loop); carried inside the
        #: picklable job description so the parallel ``--jobs`` path
        #: uses it too.
        self.engine = engine

    def _obs_for_seed(self, index: int) -> Optional[ObservabilityOptions]:
        """Per-seed observability: metrics come from every seed (they
        merge), but trace / profiler / probe payloads only make sense
        for a single run, so only the first seed collects them."""
        if self.obs is None or not self.obs.enabled:
            return None
        if index == 0:
            return self.obs
        trimmed = replace(
            self.obs, trace=False, profile=False, probe_every=0
        )
        return trimmed if trimmed.enabled else None

    def seed_job(self, kind: str, index: int, **inputs: Any) -> Any:
        """The ``kind`` job of seed ``index``: the runner settings the
        job class declares, then the run's own ``inputs``."""
        settings = {
            "config": self.config,
            "machine": self.machine,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seed": self.base_seed + index,
            "sanitize": self.sanitize,
            "obs": self._obs_for_seed(index),
            "engine": self.engine,
        }
        job_cls = KINDS[kind].job
        declared = {f.name for f in fields(job_cls)}
        settings = {k: v for k, v in settings.items() if k in declared}
        return job_cls(**{**settings, **inputs})

    def run(self, kind: str, **inputs: Any) -> Any:
        """Every seed of one ``kind`` run, folded into its result."""
        entry = KINDS[kind]
        seed_jobs = [
            self.seed_job(kind, index, **inputs)
            for index in range(self.seeds)
        ]
        samples = map_jobs(entry.run_seed, seed_jobs, self.jobs)
        return entry.fold(seed_jobs[0], samples)

    def run_closed_loop(
        self, design: Design, workload: WorkloadProfile
    ) -> ClosedLoopResult:
        return self.run("closed_loop", design=design, workload=workload)

    def run_open_loop(
        self,
        design: Design,
        rate: Union[float, Sequence[float]],
        pattern: Optional[TrafficPattern] = None,
        mix: PacketMix = PacketMix(),
        latency_groups: Optional[Dict[str, Sequence[int]]] = None,
        source_queue_limit: Optional[int] = 2_000,
    ) -> OpenLoopResult:
        return self.run(
            "open_loop",
            design=design,
            rate=rate if isinstance(rate, (int, float)) else tuple(rate),
            pattern=pattern,
            mix=mix,
            latency_groups=tuple(
                (name, tuple(nodes))
                for name, nodes in (latency_groups or {}).items()
            ),
            source_queue_limit=source_queue_limit,
        )

    def run_faulted(
        self,
        design: Design,
        rate: float,
        spec: FaultSpec,
        protection: Optional[ProtectionConfig] = ProtectionConfig(),
        drain_max_cycles: int = 200_000,
    ) -> FaultResult:
        """Open-loop uniform-random traffic under a seeded fault spec.

        Each seed expands the spec into its own schedule (salted by the
        run seed), runs warmup + measurement with faults active from
        the end of warmup, then drains until the protection ledger is
        empty — so ``delivered_packet_rate`` is exact, not
        window-censored."""
        return self.run(
            "faulted",
            design=design,
            rate=rate,
            fault=spec,
            protection=protection,
            drain_max_cycles=drain_max_cycles,
        )
