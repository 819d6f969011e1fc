"""Orion-style network energy model (Section IV, "Energy Modeling").

The Garnet+Orion callback structure of the paper maps here to routers
counting micro-events on an :class:`~repro.energy.model.OrionEnergyMeter`,
which prices the counts with per-bit event energies when read and
integrates leakage every cycle.
"""

from .model import (
    EnergyBreakdown,
    EnergyParameters,
    OrionEnergyMeter,
    DEFAULT_ENERGY_PARAMETERS,
)

__all__ = [
    "EnergyBreakdown",
    "EnergyParameters",
    "OrionEnergyMeter",
    "DEFAULT_ENERGY_PARAMETERS",
]
