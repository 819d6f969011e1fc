"""Experiment harness.

* :mod:`repro.harness.experiment` — runs warmed-up, multi-seed
  closed-loop (memory-system) and open-loop (synthetic) experiments and
  collects the paper's metrics.
* :mod:`repro.harness.reporting` — renders the rows/series of the
  paper's figures and tables as aligned text tables.
"""

from .experiment import (
    ClosedLoopResult,
    ExperimentRunner,
    FaultResult,
    OpenLoopResult,
    MAIN_DESIGNS,
    ENERGY_DESIGNS_LOW_LOAD,
)
from .reporting import (
    format_breakdown_table,
    format_normalized_table,
    format_table,
    geometric_mean,
)

__all__ = [
    "ClosedLoopResult",
    "ENERGY_DESIGNS_LOW_LOAD",
    "ExperimentRunner",
    "FaultResult",
    "MAIN_DESIGNS",
    "OpenLoopResult",
    "format_breakdown_table",
    "format_normalized_table",
    "format_table",
    "geometric_mean",
]
