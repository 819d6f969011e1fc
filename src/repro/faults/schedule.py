"""Deterministic, seeded fault schedules.

A schedule is an immutable, cycle-sorted sequence of
:class:`FaultEvent` objects.  Schedules are either hand-built (tests)
or generated from a :class:`FaultSpec` — a small picklable recipe that
expands to the same schedule no matter which worker process expands it,
which is what makes fault experiments reproducible under the
process-parallel harness (``--jobs``): the spec plus the per-run seed
travel in the job description, and the schedule is derived inside the
worker from ``random.Random(f"faults:{spec.seed}:{salt}")`` alone.

Fault kinds
-----------

``LINK_FLAP``
    Both directions of a physical link go down for ``duration`` cycles.
    Flits in flight on, or sent over, a down link are *corrupted*
    (delivered as detectable garbage), never dropped — this preserves
    every router's conservation and credit invariants.  Credit messages
    on a down link are dropped (the classic backpressure fragility).
``LINK_KILL``
    A permanent flap of both directions of a physical link; after
    ``reroute_delay`` cycles the injector patches route tables around
    the dead link.
``ROUTER_KILL``
    Every link incident to the router is permanently killed.  The sick
    router still forwards, but everything it touches arrives corrupted;
    packets destined to it are eventually orphaned by the protection
    layer's bounded retry.
``BIT_ERROR``
    ``count`` flits on one directed channel are corrupted — the oldest
    in flight first, then the next flits sent.
``CREDIT_LOSS``
    ``count`` credit messages on one directed channel are dropped — the
    oldest in flight first, then the next credits sent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Sequence, Tuple

from ..network.topology import Mesh


class FaultKind(Enum):
    """What a :class:`FaultEvent` does (module docstring, "Fault
    kinds")."""

    LINK_FLAP = "link_flap"
    LINK_KILL = "link_kill"
    ROUTER_KILL = "router_kill"
    BIT_ERROR = "bit_error"
    CREDIT_LOSS = "credit_loss"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One fault at one cycle.

    ``a``/``b`` name the endpoints of the affected physical link
    (``BIT_ERROR``/``CREDIT_LOSS`` hit only the directed ``a -> b``
    channel); for ``ROUTER_KILL`` only ``a`` is meaningful.
    """

    cycle: int
    kind: FaultKind
    a: int
    b: int = -1
    #: LINK_FLAP only: number of cycles the link stays down.
    duration: int = 0
    #: BIT_ERROR / CREDIT_LOSS only: number of flits / credits hit.
    count: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault cycle must be >= 0")
        if self.kind is FaultKind.LINK_FLAP and self.duration <= 0:
            raise ValueError("LINK_FLAP needs a positive duration")
        if self.kind in (FaultKind.BIT_ERROR, FaultKind.CREDIT_LOSS) and self.count <= 0:
            raise ValueError(f"{self.kind.name} needs a positive count")
        if self.kind is not FaultKind.ROUTER_KILL and self.b < 0:
            raise ValueError(f"{self.kind.name} needs both link endpoints")


class FaultSchedule:
    """An immutable cycle-sorted sequence of fault events."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.cycle)
        )

    @classmethod
    def empty(cls) -> "FaultSchedule":
        return cls(())

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events)"

    @classmethod
    def generate(
        cls,
        mesh: Mesh,
        seed: str,
        start: int,
        horizon: int,
        *,
        link_flap_rate: float = 0.0,
        flap_duration: int = 30,
        bit_error_rate: float = 0.0,
        credit_loss_rate: float = 0.0,
        credit_loss_burst: int = 4,
        link_kills: int = 0,
        router_kills: int = 0,
    ) -> "FaultSchedule":
        """Generate a schedule over ``[start, start + horizon)``.

        Rates are expected event counts per 1000 cycles across the whole
        network.  Permanent kills are placed in the first half of the
        window so their aftermath is actually observed.  The result
        depends only on the arguments — never on global RNG state.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        for name, rate in (
            ("link_flap_rate", link_flap_rate),
            ("bit_error_rate", bit_error_rate),
            ("credit_loss_rate", credit_loss_rate),
        ):
            if rate < 0:
                raise ValueError(f"{name} must be >= 0")
        rng = random.Random(f"faultsched:{seed}")
        # Undirected physical links, sorted for order independence.
        pairs: List[Tuple[int, int]] = sorted(
            {(min(a, b), max(a, b)) for a, _d, b in mesh.links()}
        )
        if not pairs:
            raise ValueError("mesh has no links to fault")

        def cycles_for(rate: float) -> List[int]:
            n = int(round(rate * horizon / 1000.0))
            return sorted(rng.randrange(start, start + horizon) for _ in range(n))

        events: List[FaultEvent] = []
        for cycle in cycles_for(link_flap_rate):
            a, b = rng.choice(pairs)
            events.append(
                FaultEvent(cycle, FaultKind.LINK_FLAP, a, b, duration=flap_duration)
            )
        for cycle in cycles_for(bit_error_rate):
            a, b = rng.choice(pairs)
            if rng.random() < 0.5:
                a, b = b, a
            events.append(FaultEvent(cycle, FaultKind.BIT_ERROR, a, b, count=1))
        for cycle in cycles_for(credit_loss_rate):
            a, b = rng.choice(pairs)
            if rng.random() < 0.5:
                a, b = b, a
            events.append(
                FaultEvent(cycle, FaultKind.CREDIT_LOSS, a, b, count=credit_loss_burst)
            )
        kill_window = max(1, horizon // 2)
        killed_pairs = rng.sample(pairs, k=min(link_kills, len(pairs)))
        for a, b in killed_pairs:
            cycle = start + rng.randrange(kill_window)
            events.append(FaultEvent(cycle, FaultKind.LINK_KILL, a, b))
        nodes = list(range(mesh.num_nodes))
        for node in rng.sample(nodes, k=min(router_kills, len(nodes))):
            cycle = start + rng.randrange(kill_window)
            events.append(FaultEvent(cycle, FaultKind.ROUTER_KILL, node))
        return cls(events)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Picklable recipe for a generated schedule.

    The harness ships the spec (not the expanded schedule) to worker
    processes; each worker expands it with
    ``spec.schedule(mesh, start, horizon, salt=per_run_seed)`` so the
    schedule is a pure function of the spec and the run seed —
    independent of worker scheduling.
    """

    seed: int = 0
    link_flap_rate: float = 0.0
    flap_duration: int = 30
    bit_error_rate: float = 0.0
    credit_loss_rate: float = 0.0
    credit_loss_burst: int = 4
    link_kills: int = 0
    router_kills: int = 0

    def __post_init__(self) -> None:
        # Rejected here, so that an illegal spec never gets a job key
        # and then fails inside a worker.
        for name in ("link_flap_rate", "bit_error_rate", "credit_loss_rate"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    f"{name} must be a finite rate >= 0 (got {rate})"
                )
        for name, least in (
            ("flap_duration", 1),
            ("credit_loss_burst", 1),
            ("link_kills", 0),
            ("router_kills", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be >= {least} (got {getattr(self, name)})"
                )

    def schedule(
        self, mesh: Mesh, start: int, horizon: int, salt: object = 0
    ) -> FaultSchedule:
        return FaultSchedule.generate(
            mesh,
            seed=f"{self.seed}:{salt}",
            start=start,
            horizon=horizon,
            link_flap_rate=self.link_flap_rate,
            flap_duration=self.flap_duration,
            bit_error_rate=self.bit_error_rate,
            credit_loss_rate=self.credit_loss_rate,
            credit_loss_burst=self.credit_loss_burst,
            link_kills=self.link_kills,
            router_kills=self.router_kills,
        )
