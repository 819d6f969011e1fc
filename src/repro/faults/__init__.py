"""Fault injection and resilience (see docs/RESILIENCE.md).

The paper's argument is robustness across *operating conditions*; this
subsystem adds the other robustness axis — hardware faults — so the
three flow-control disciplines can be compared under topology damage:

* :mod:`repro.faults.schedule` — deterministic, seeded fault schedules
  (transient link flaps, permanent link/router kills, flit bit errors,
  credit-loss events);
* :mod:`repro.faults.injector` — applies a schedule to a running
  :class:`~repro.simulation.Network` through hooks that cost a single
  ``is None`` check when no faults are installed;
* :mod:`repro.faults.protection` — the protection protocol: per-flit
  checksum with NACK/retransmission (bounded retry + timeout) at the
  network interface, credit-timeout resynthesis for credit-tracking
  routers, and fault-aware route-table patching;
* :mod:`repro.faults.reroute` — shortest-path route tables over the
  damaged topology.

Every name resolves lazily: a job description carries a
:class:`FaultSpec`, but only a faulted run needs the injector.
"""

from .._lazy import lazy_exports

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "ProtectionConfig",
    "ProtectionLayer",
    "damaged_route_rows",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "FaultEvent": "schedule",
        "FaultInjector": "injector",
        "FaultKind": "schedule",
        "FaultSchedule": "schedule",
        "FaultSpec": "schedule",
        "ProtectionConfig": "protection",
        "ProtectionLayer": "protection",
        "damaged_route_rows": "reroute",
    },
)
