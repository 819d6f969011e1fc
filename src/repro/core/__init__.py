"""AFC — the paper's primary contribution.

* :mod:`repro.core.thresholds` — local contention thresholds (mechanism 1)
* :mod:`repro.core.mode_controller` — EWMA load tracking and the
  forward / reverse / gossip-induced mode-switch state machine
  (mechanisms 1 and 2)
* :mod:`repro.core.lazy_vc` — lazy VC allocation structures (mechanism 3)
* :mod:`repro.core.afc_router` — the adaptive router combining the
  backpressureless and (lazy-VC) backpressured datapaths
* :mod:`repro.core.threshold_search` — design-time empirical threshold
  derivation; loads on first use, since no simulation runs it
"""

from .._lazy import lazy_exports
from .afc_router import AfcRouter
from .mode_controller import Mode, ModeController
from .lazy_vc import LazyInputPort, NeighborCreditState
from .thresholds import derive_thresholds, thresholds_for

__all__ = [
    "AfcRouter",
    "LazyInputPort",
    "Mode",
    "ModeController",
    "NeighborCreditState",
    "ThresholdDerivation",
    "derive_thresholds",
    "derive_thresholds_empirically",
    "find_crossover_rate",
    "measure_class_intensity",
    "thresholds_for",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ThresholdDerivation": "threshold_search",
        "derive_thresholds_empirically": "threshold_search",
        "find_crossover_rate": "threshold_search",
        "measure_class_intensity": "threshold_search",
    },
)
