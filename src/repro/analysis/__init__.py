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

Every name resolves lazily: a simulation process imports the sanitizer
only when it sanitizes, the probes only when it probes, and never the
linter.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ChannelUtilization": "probes",
        "Histogram": "histogram",
        "InvariantViolation": "sanitizer",
        "LintReport": "simlint",
        "Sanitizer": "sanitizer",
        "SaturationBound": "analytic",
        "TimeSeriesProbe": "probes",
        "lint_paths": "simlint",
        "build_histogram": "histogram",
        "channel_utilization": "probes",
        "estimated_latency": "analytic",
        "latency_histogram": "histogram",
        "mean_uniform_hops": "analytic",
        "per_hop_latency": "analytic",
        "simulation_report": "report",
        "uniform_saturation_bound": "analytic",
        "xy_channel_loads": "analytic",
        "zero_load_flit_latency": "analytic",
        "zero_load_packet_latency": "analytic",
    },
)
