"""Experiment job specifications and their content-addressed keys.

A :class:`JobSpec` is the service's unit of request: one
(design × workload-or-rate × config × seed-range) experiment, of one of
the kinds in :data:`repro.harness.experiment.KINDS`.  The registry entry
says which request parameters a kind consumes; a spec emits, validates
and hashes exactly those, and builds the kind's per-seed job from them.
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

from ..faults.protection import ProtectionConfig
from ..faults.schedule import FaultSpec
from ..harness.experiment import KINDS as _REGISTRY
from ..harness.experiment import ExperimentRunner, check_counts, kind_entry
from ..network.config import Design, NetworkConfig
from ..obs.hub import ObservabilityOptions
from ..traffic.workloads import WORKLOADS
from .canonical import content_key
from .serialize import decode, encode

__all__ = ["JobSpec", "KINDS"]

#: The experiment kinds a spec can describe.
KINDS = tuple(_REGISTRY)

#: Bumped when the hashed payload layout itself changes shape (never
#: when defaults change — those are captured by expansion).
_HASH_SCHEMA = 1


@dataclass(frozen=True)
class JobSpec:
    """One cacheable experiment request."""

    kind: str = "closed_loop"
    design: Design = Design.AFC
    width: int = 3
    height: int = 3
    warmup_cycles: int = 2_000
    measure_cycles: int = 6_000
    seeds: int = 1
    base_seed: int = 0
    #: Cycle engine to execute with; excluded from :meth:`key` (see
    #: module docstring).
    engine: str = "active"
    #: Closed loop only: workload name in ``WORKLOADS``.
    workload: str = "apache"
    #: Open loop / faulted only: offered load, flits/node/cycle.
    rate: float = 0.25
    #: Open loop only: source backlog bound (None = unbounded).
    source_queue_limit: Optional[int] = 2_000
    #: Collect the per-seed metrics registries (merged into the result).
    metrics: bool = False
    #: Faulted only.
    fault: FaultSpec = field(default_factory=FaultSpec)
    protection: Optional[ProtectionConfig] = field(
        default_factory=ProtectionConfig
    )
    drain_max_cycles: int = 200_000

    def __post_init__(self) -> None:
        params = kind_entry(self.kind).params
        if not isinstance(self.design, Design):
            choices = ", ".join(f"Design.{d.name}" for d in Design)
            raise ValueError(
                f"design must be a Design member, got {self.design!r}; "
                f"choose from: {choices}"
            )
        if "workload" in params and self.workload not in WORKLOADS:
            choices = ", ".join(sorted(WORKLOADS))
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from: {choices}"
            )
        if "rate" in params and not 0.0 < self.rate <= 1.0:
            raise ValueError(
                f"offered rate must be in (0, 1], got {self.rate}"
            )
        if self.engine not in ("active", "vector"):
            raise ValueError(f"unknown engine {self.engine!r}")
        check_counts(
            seeds=self.seeds,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
        )
        # Rejects an illegal mesh at admission rather than in a worker.
        self.config.mesh

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
