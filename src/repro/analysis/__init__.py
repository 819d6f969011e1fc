"""Post-processing and instrumentation utilities.

* :mod:`repro.analysis.histogram` — latency distributions and ASCII
  rendering;
* :mod:`repro.analysis.probes` — in-simulation time-series sampling
  (throughput, mode residency, per-router EWMA, channel utilization);
* :mod:`repro.analysis.report` — one-call summary report for a finished
  simulation;
* :mod:`repro.analysis.analytic` — closed-form latency and saturation
  models that cross-validate the simulator's timing;
* :mod:`repro.analysis.simlint` — static determinism/hygiene lint over
  the simulator sources (``repro lint``);
* :mod:`repro.analysis.sanitizer` — opt-in per-cycle NoC invariant
  checker (``repro run --sanitize``);
* :mod:`repro.analysis.fingerprint` — the one definition of "the same
  run" (golden grid, determinism suites).

``lint_paths`` / ``LintReport`` resolve lazily: the harness imports this
package for the sanitizer, and a simulation process has no use for the
linter.
"""

from .analytic import (
    SaturationBound,
    estimated_latency,
    mean_uniform_hops,
    per_hop_latency,
    uniform_saturation_bound,
    xy_channel_loads,
    zero_load_flit_latency,
    zero_load_packet_latency,
)
from .histogram import Histogram, build_histogram, latency_histogram
from .probes import ChannelUtilization, TimeSeriesProbe, channel_utilization
from .report import simulation_report
from .sanitizer import InvariantViolation, Sanitizer

__all__ = [
    "ChannelUtilization",
    "Histogram",
    "InvariantViolation",
    "LintReport",
    "Sanitizer",
    "SaturationBound",
    "TimeSeriesProbe",
    "lint_paths",
    "build_histogram",
    "channel_utilization",
    "estimated_latency",
    "latency_histogram",
    "mean_uniform_hops",
    "per_hop_latency",
    "simulation_report",
    "uniform_saturation_bound",
    "xy_channel_loads",
    "zero_load_flit_latency",
    "zero_load_packet_latency",
]


def __getattr__(name: str):
    if name not in ("LintReport", "lint_paths"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simlint

    value = getattr(simlint, name)
    globals()[name] = value
    return value
