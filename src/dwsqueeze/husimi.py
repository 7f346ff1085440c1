"""Husimi Q function on a Bloch-sphere grid.

The overlap between the angular coherent state |theta, phi> and the
left/right Fock ket |k, N-k> is the conjugated spin-coherent amplitude
with single-atom arm amplitudes

    eta_l = (cos(theta/2) e^{+i phi/2} + sin(theta/2) e^{-i phi/2}) / sqrt2
    eta_r = (cos(theta/2) e^{+i phi/2} - sin(theta/2) e^{-i phi/2}) / sqrt2

The grid samples theta at cell centers, (i + 1/2) pi / n_theta, which
keeps the poles off the grid. In x = cos(theta) these are Chebyshev
nodes, so the theta weights are Fejer's first rule (L. Fejer, 1933),
exact for polynomials in cos(theta) of degree < n_theta; phi uses the
uniform 2 pi / n_phi rule, exact for e^{i m phi} with |m| < n_phi. A
spin-N/2 Q function holds spherical harmonics of degree <= N only, so
the sphere integral is exact up to roundoff once n_theta, n_phi > N.

Cost: q_grid builds the overlap rows a block of theta rows at a time
(at most _BLOCK_ENTRIES complex entries, but at least one theta row) and
contracts each block before building the next. The work is
points * (N+1) for a state (|rows C|^2) and points * (N+1)^2 for a
density matrix (one matrix product rows rho, then a real row-wise dot
with the rows). A list of sources that share one N shares each block:
it is built once, contracted with every source in turn and freed before
the next build. The live memory is one block plus one n_theta x n_phi
result per source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_core import AtomState, _log_coherent_amplitudes

MIN_GRID = 16

# Overlap entries per theta block of q_grid: 2^18 complex, 4 MB.
_BLOCK_ENTRIES = 1 << 18


@dataclass
class QGrid:
    n_theta: int
    n_phi: int
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def quadrature_sum(self) -> float:
        """Discrete sphere integral of Q (Fejer-I in theta, uniform in phi).

        Exact up to roundoff, hence 1, once n_theta and n_phi exceed N.
        """
        return float(np.sum(self.values * self.weights))


def _eta_pair(theta, phi):
    a = np.sin(np.asarray(theta) / 2.0) * np.exp(-0.5j * np.asarray(phi))
    b = np.cos(np.asarray(theta) / 2.0) * np.exp(0.5j * np.asarray(phi))
    rt2 = np.sqrt(2.0)
    return (b + a) / rt2, (b - a) / rt2


def _fejer_weights(thetas: np.ndarray) -> np.ndarray:
    """Fejer first-rule weights for the n nodes theta_j = (j + 1/2) pi / n.

    w_j = (2/n) [1 - 2 sum_{k=1}^{n//2} cos(2 k theta_j) / (4 k^2 - 1)]
    integrates f(cos theta) sin(theta) dtheta over [0, pi].
    """
    n = thetas.size
    k = np.arange(1, n // 2 + 1)
    terms = np.cos(2.0 * k[None, :] * thetas[:, None]) / (4.0 * k**2 - 1.0)
    return (2.0 / n) * (1.0 - 2.0 * terms.sum(axis=1))


def _overlap_matrix(n_atoms: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """<theta_i, phi_j | k> stacked as (n_theta, n_phi, N+1), rows unit norm."""
    eta_l, eta_r = _eta_pair(thetas[:, None], phis[None, :])
    log_mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms)
    rows = np.exp(log_mag) * np.exp(-1j * phase)
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    return rows


def check_grid(n_theta: int, n_phi: int):
    """Refuse a grid coarser than MIN_GRID in either direction (ValueError)."""
    if n_theta < MIN_GRID or n_phi < MIN_GRID:
        raise ValueError(f"grid sizes must be >= {MIN_GRID}")


def _contraction(source):
    """N and the block contraction rows -> |<theta, phi|source>|^2 of one source."""
    if isinstance(source, AtomState):
        return source.n_atoms, lambda rows: np.abs(rows @ source.amplitudes) ** 2
    rho = np.asarray(source, dtype=complex)
    n_atoms = rho.shape[0] - 1

    def contract(rows):
        # Re sum_l (row rho)_l conj(row_l) is the dot of the two as float pairs
        flat = rows.reshape(-1, n_atoms + 1)
        dots = np.einsum("ij,ij->i", (flat @ rho).view(float), flat.view(float))
        return dots.reshape(rows.shape[:2])

    return n_atoms, contract


def q_grid(source, n_theta: int, n_phi: int) -> QGrid | list[QGrid]:
    """Q sampled on the cell-centered (theta, phi) grid.

    source is either an AtomState or a trace-1 density matrix, and gives
    one QGrid.  A list of sources that share one N gives a list of QGrid,
    in order: each theta block of overlap rows is built once and
    contracted with every source.  A list that mixes N is refused
    (ValueError) before any work.
    """
    check_grid(n_theta, n_phi)
    sources = source if isinstance(source, list) else [source]
    contractions = [_contraction(s) for s in sources]
    sizes = {n for n, _ in contractions}
    if len(sizes) > 1:
        raise ValueError(f"q_grid sources mix atom numbers {sorted(sizes)}")
    if not sources:
        return []
    (n_atoms,) = sizes
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    height = max(1, _BLOCK_ENTRIES // (n_phi * (n_atoms + 1)))
    values = [np.empty((n_theta, n_phi)) for _ in sources]
    for start in range(0, n_theta, height):
        block = slice(start, start + height)
        rows = _overlap_matrix(n_atoms, thetas[block], phis)
        for out, (_, contract) in zip(values, contractions):
            out[block] = contract(rows)
        del rows  # free this block before the next one is built
    weights = np.outer(_fejer_weights(thetas), np.full(n_phi, 2.0 * np.pi / n_phi))
    grids = []
    for v in values:
        v *= (n_atoms + 1) / (4.0 * np.pi)
        # only the density-matrix contraction can round below zero
        if v.min() < -1e-10:
            raise ValueError(f"Q grid value {v.min()} below roundoff tolerance")
        np.maximum(v, 0.0, out=v)
        grids.append(QGrid(n_theta, n_phi, thetas, phis, v, weights))
    return grids if isinstance(source, list) else grids[0]
