"""Simulator of measurement-induced spin squeezing in a double-well BEC.

Two coherent light beams pass through the two arms of an interferometer,
pick up an atom-number-dependent phase from the condensate, and are
recombined on a beamsplitter and photon-counted.  Conditioning on the
counts squeezes the atomic spin distribution.  The package provides the
exact zero-tunneling conditional-state model, the hybrid master equation
with tunneling and dephasing, Husimi Q diagnostics, and independent
validation oracles.
"""

__version__ = "0.1.0"

from .spin_core import (
    AtomState,
    BlochAngles,
    GroundExcitedAmplitudes,
    SpinMoments,
    bloch_to_ge,
    build_spin_coherent,
    ge_to_lr_amplitudes,
    moments_from_density,
)
from .pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    conditional_gaussian,
    conditional_state,
    gaussian_window,
    most_probable_outcome,
    outcome_cutoff,
    port_amplitudes,
)
from .master_eq import (
    ModelParams,
    Sample,
    TimeGrid,
    conditional_density,
    integrate,
)
from .husimi import QGrid, q_grid

__all__ = [
    "AtomState",
    "BlochAngles",
    "DetectionOutcome",
    "GroundExcitedAmplitudes",
    "InteractionSetting",
    "LightPair",
    "ModelParams",
    "QGrid",
    "Sample",
    "SpinMoments",
    "TimeGrid",
    "bloch_to_ge",
    "build_spin_coherent",
    "conditional_density",
    "conditional_gaussian",
    "conditional_state",
    "ge_to_lr_amplitudes",
    "integrate",
    "moments_from_density",
    "most_probable_outcome",
    "outcome_cutoff",
    "port_amplitudes",
    "q_grid",
]
