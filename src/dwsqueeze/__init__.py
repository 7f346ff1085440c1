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
