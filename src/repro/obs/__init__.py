"""Observability: flit-lifecycle tracing, metrics, and profiling.

Three opt-in consumers behind one attachable hub (see
docs/OBSERVABILITY.md):

* :class:`FlitTracer` — per-packet lifecycle spans in a preallocated
  ring buffer, exported as Chrome trace-event JSON for Perfetto, plus
  per-packet hop-path dumps for debugging misroutes;
* :class:`MetricsRegistry` — :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` primitives with per-router/per-vnet labels and a
  deterministic cross-process ``merge`` for the parallel harness;
* :class:`PipelineProfiler` — wall-clock self time of router pipeline
  stages and engine phases per cycle bucket.

The service telemetry plane also lives here: :class:`TelemetryLog`
(job-lifecycle spans with Chrome trace export), the current run a
seed worker's heartbeat messages snapshot (:func:`publish_run`), and
the ``repro dash`` generator (:func:`build_dashboard`).

When no :class:`Observability` hub is attached, every hook in the
simulator stays ``None`` and results are bit-identical to an
un-instrumented run (pinned by tests, like the sanitizer hooks).

The metrics primitives import eagerly (the stats layer uses
:class:`Histogram` unconditionally); the tracer, profiler and hub load
lazily so ``import repro`` does not pay for them.
"""

from .._lazy import lazy_exports
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "FlitTracer",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Observability",
    "ObservabilityOptions",
    "PipelineProfiler",
    "TelemetryLog",
    "build_dashboard",
    "publish_run",
    "clear_run",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "FlitTracer": "trace",
        "Observability": "hub",
        "ObservabilityOptions": "hub",
        "PipelineProfiler": "profiler",
        "TelemetryLog": "telemetry",
        "publish_run": "telemetry",
        "clear_run": "telemetry",
        "build_dashboard": "dashboard",
    },
)
