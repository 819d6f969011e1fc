"""Experiment job specifications and their content-addressed keys.

A :class:`JobSpec` is the service's unit of request: one
(design × workload-or-rate × config × seed-range) experiment, of one of
the kinds in :data:`repro.harness.experiment.KINDS`.  The registry entry
says which request parameters a kind consumes; a spec emits and hashes
exactly those, and builds the kind's per-seed job from them.  Every
field is checked against its declared domain (:mod:`repro.domain`),
the workload and the rate only when the kind consumes them.
Specs travel as JSON over the service protocol (:meth:`JobSpec.to_dict`
/ :meth:`JobSpec.from_dict`) and hash to a stable sha256 job key
(:meth:`JobSpec.key`).

Key discipline — what is hashed and what is not:

* **Hashed**: everything that can change a result bit — the fully
  expanded :class:`~repro.network.config.NetworkConfig` and
  :class:`~repro.network.config.MachineConfig` (so a changed package
  default changes the key), the full
  :class:`~repro.traffic.workloads.WorkloadProfile` (so recalibration
  changes the key), design, cycle counts, seed range, fault spec,
  protection config, and whether metrics are collected (they ride in
  the result payload).
* **Not hashed**: the ``engine`` — engines are bit-identical by
  contract (pinned by ``tests/test_engine_determinism.py`` and
  ``tests/test_vector_engine.py``), so a result computed by the vector
  engine *is* the result for an ``active``-engine request; and
  execution policy (priority, timeout, retries), which changes when a
  result arrives, never what it contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

from ..domain import Integer, OneOf, validate
from ..faults.protection import ProtectionConfig
from ..faults.schedule import FaultSpec
from ..harness.experiment import KINDS as _REGISTRY
from ..harness.experiment import KIND, MEASURE, RATE, SEEDS
from ..harness.experiment import WARMUP, ExperimentRunner
from ..network.config import Design, NetworkConfig
from ..network.topology import SIDE
from ..obs.hub import ObservabilityOptions
from ..traffic.synthetic import QUEUE_LIMIT
from ..traffic.workloads import WORKLOADS
from .canonical import content_key
from .serialize import decode, encode

__all__ = ["JobSpec", "KINDS"]

#: The experiment kinds a spec can describe.
KINDS = tuple(_REGISTRY)

#: Bumped when the hashed payload layout itself changes shape (never
#: when defaults change — those are captured by expansion).
_HASH_SCHEMA = 1

#: A closed-loop workload name.
_WORKLOAD = OneOf(sorted(WORKLOADS))


@dataclass(frozen=True)
class JobSpec:
    """One cacheable experiment request."""

    kind: str = KIND.field("closed_loop")
    design: Design = OneOf(Design).field(Design.AFC)
    width: int = SIDE.field(3)
    height: int = SIDE.field(3)
    warmup_cycles: int = WARMUP.field(2_000)
    measure_cycles: int = MEASURE.field(6_000)
    seeds: int = SEEDS.field(1)
    base_seed: int = Integer().field(0)
    #: Cycle engine to execute with; excluded from :meth:`key` (see
    #: module docstring).
    engine: str = OneOf(("active", "vector")).field("active")
    #: Closed loop only: workload name in ``WORKLOADS``.
    workload: str = _WORKLOAD.field("apache", checked=False)
    #: Open loop / faulted only: offered load, flits/node/cycle.
    rate: float = RATE.field(0.25, checked=False)
    #: Open loop only: source backlog bound (None = unbounded).
    source_queue_limit: Optional[int] = QUEUE_LIMIT.field(2_000)
    #: Collect the per-seed metrics registries (merged into the result).
    metrics: bool = False
    #: Faulted only.
    fault: FaultSpec = field(default_factory=FaultSpec)
    protection: Optional[ProtectionConfig] = field(
        default_factory=ProtectionConfig
    )
    drain_max_cycles: int = Integer(1).field(200_000)

    def __post_init__(self) -> None:
        # Every field is checked here, at admission, so an illegal
        # spec never takes a queue slot and then fails in a worker.
        validate(self)
        params = _REGISTRY[self.kind].params
        if "workload" in params:
            _WORKLOAD.check("workload", self.workload)
        if "rate" in params:
            RATE.check("rate", self.rate)

    # -- derived ---------------------------------------------------------
    @property
    def config(self) -> NetworkConfig:
        return NetworkConfig(width=self.width, height=self.height)

    def seed_of(self, index: int) -> int:
        return self.base_seed + index

    def _inputs(self) -> dict:
        """The kind's job inputs: its request parameters (a workload by
        profile, so recalibration shows) over its pinned defaults."""
        entry = _REGISTRY[self.kind]
        inputs = {name: getattr(self, name) for name in entry.params}
        if "workload" in inputs:
            inputs["workload"] = WORKLOADS[self.workload]
        return {**entry.pinned, **inputs}

    # -- transport (JSON protocol) --------------------------------------
    def to_dict(self) -> dict:
        """The JSON shape clients submit (compact, name-based)."""
        return encode(self, _COMMON + _REGISTRY[self.kind].params)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return decode(cls, data)

    # -- identity --------------------------------------------------------
    def hash_payload(self) -> dict:
        """The fully expanded, result-determining description."""
        return {
            "schema": _HASH_SCHEMA,
            "kind": self.kind,
            "design": self.design,
            "config": self.config,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "metrics": self.metrics,
            **self._inputs(),
        }

    def key(self) -> str:
        """The content-addressed job key (sha256 hex)."""
        return content_key(self.hash_payload())

    # -- execution -------------------------------------------------------
    def runner(
        self,
        jobs: int = 1,
        sanitize: bool = False,
        obs: Optional[ObservabilityOptions] = None,
    ) -> ExperimentRunner:
        """The harness runner of this spec.  The arguments are what a
        foreground run may add without changing :meth:`key`'s meaning;
        service jobs collect metrics only — metrics merge exactly
        across seeds; trace/profile payloads are single-run artifacts
        that belong to the foreground CLI, not the cache."""
        if obs is None and self.metrics:
            obs = ObservabilityOptions(metrics=True)
        return ExperimentRunner(
            config=self.config,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seeds=self.seeds,
            jobs=jobs,
            base_seed=self.base_seed,
            sanitize=sanitize,
            obs=obs,
            engine=self.engine,
        )

    def run(self, **foreground: Any):
        """Run every seed through :meth:`runner` and aggregate — what
        the service computes for this spec, in the foreground."""
        return self.runner(**foreground).run(
            self.kind, design=self.design, **self._inputs()
        )

    def seed_job(self, index: int):
        """The picklable harness job for seed ``index``."""
        return self.runner().seed_job(
            self.kind, index, design=self.design, **self._inputs()
        )

    def run_seed(self, index: int):
        """Execute seed ``index`` in-process; returns the sample."""
        return _REGISTRY[self.kind].run_seed(self.seed_job(index))

    def aggregate(self, samples):
        """Fold per-seed samples (in seed order) into the result —
        the same aggregation the foreground runner applies, so a
        checkpoint-recovered result is bit-identical to a fresh one."""
        return _REGISTRY[self.kind].fold(self.seed_job(0), samples)


#: The fields no kind claims as its own parameter, which
#: :meth:`JobSpec.to_dict` emits for every kind.
_COMMON = tuple(
    f.name
    for f in fields(JobSpec)
    if not any(f.name in entry.params for entry in _REGISTRY.values())
)
