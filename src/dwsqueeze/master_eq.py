"""Hybrid master equation with tunneling and dephasing.

The joint atom-light state is expanded as rho = sum_{kk'} rho_{kk'}
|k; a_{k,l}, a_{k,r}><k'; a_{k',l}, a_{k',r}| where the light amplitudes
a_{k,l} = a_l e^{-i phi}, a_{k,r} = a_r e^{+i phi}, phi = gt(k - N/2),
follow the atoms analytically and only the atomic matrix rho_{kk'} is
integrated.  Tunneling couples neighboring k with the usual ladder
factors, weighted by the overlap of the displaced light states;
Lindblad dephasing damps rho_{mm'} at the rate gamma (m - m')^2 / 2.

Detection enters at readout time through the detection factor A(k) of
pure_measure: its beamsplitter brackets are u_c(k) = (a_{k,l} + i a_{k,r})/sqrt2
= alpha_c(k)/sqrt2 and u_d(k) = (i a_{k,l} + a_{k,r})/sqrt2 = alpha_d(k)/sqrt2,
so rho_{kk'} is conditioned by the outer product A(k) A(k')^*.  The pure
model's readout kernel evaluates A(k) once for p_k = rho_kk and also
yields P = sum_k rho_kk |A(k)|^2 and its reachability check; only the
trace normalization is done here.  Moments of the result come from
spin_core.moments_from_density, the one moment routine of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    _reachable_factor,
)
from .spin_core import _ladder_factors

HERM_TOL = 1e-9
TRACE_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Raised when density-matrix invariants break during integration."""


@dataclass(frozen=True)
class ModelParams:
    n_atoms: int
    omega: float
    g: float
    gamma: float
    light: LightPair

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass
class HybridState:
    """Atomic matrix rho_{kk'} at time t; light amplitudes are implicit."""

    rho: np.ndarray
    t: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        n = self.rho.shape[0]
        if self.rho.shape != (n, n):
            raise ValueError("rho must be square")

    def herm_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def trace_error(self) -> float:
        return float(abs(np.trace(self.rho) - 1.0))

    def validate(self):
        # written as `not <=` so that a nan (overflowed) sample fails too
        he, te = self.herm_error(), self.trace_error()
        if not he <= HERM_TOL:
            raise IntegrationError(f"Hermiticity broken at t={self.t}: {he:.3e}")
        if not te <= TRACE_TOL:
            raise IntegrationError(f"trace drift at t={self.t}: {te:.3e}")
        d = np.diag(self.rho)
        if np.min(d.real) < -1e-10 or np.max(d.real) > 1.0 + 1e-10:
            raise IntegrationError(f"diagonal out of [0, 1] at t={self.t}")


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step grid; the step bound is checked against the generator scale."""

    t_max: float
    dt: float
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")

    def step_scale(self, params: ModelParams) -> float:
        return self.dt * max(
            abs(params.omega),
            abs(params.g) * params.n_atoms,
            params.gamma * params.n_atoms**2,
        )


def coherent_overlaps(params: ModelParams, t: float) -> complex:
    """Light-state overlap <a_m|a_{m+1}> between neighboring k sectors.

    <a_m|a_{m+1}> = e^{-(|a_l|^2+|a_r|^2)} e^{|a_l|^2 e^{-igt}} e^{|a_r|^2 e^{+igt}},
    independent of m: neighboring sectors differ by the same phase step.
    The reverse overlap <a_m|a_{m-1}> is its complex conjugate.
    """
    il = abs(params.light.alpha_l) ** 2
    ir = abs(params.light.alpha_r) ** 2
    gt = params.g * t
    return complex(
        np.exp(-(il + ir))
        * np.exp(il * np.exp(-1j * gt))
        * np.exp(ir * np.exp(1j * gt))
    )


def rhs(params: ModelParams, rho: np.ndarray, t: float) -> np.ndarray:
    """Time derivative of rho_{kk'}.

    Four tunneling terms (row and column neighbors, each weighted by the
    matching light overlap) plus the Lindblad dephasing -gamma/2 (m - m')^2 rho.
    Ladder factors vanish at the k = 0 and k = N edges, so boundary terms
    drop out by construction.
    """
    n = params.n_atoms
    om = params.omega
    s = _ladder_factors(n)
    ov_plus = coherent_overlaps(params, t)
    ov_minus = ov_plus.conjugate()
    d = np.zeros_like(rho)
    if om != 0.0:
        # row couplings: rho_{m-1,k'} enters row m, rho_{m+1,k'} enters row m
        d[1:, :] += 1j * om * s[:, None] * ov_minus * rho[:-1, :]
        d[:-1, :] += 1j * om * s[:, None] * ov_plus * rho[1:, :]
        # column couplings, conjugate-ordered overlaps
        d[:, 1:] -= 1j * om * s[None, :] * ov_plus * rho[:, :-1]
        d[:, :-1] -= 1j * om * s[None, :] * ov_minus * rho[:, 1:]
    if params.gamma != 0.0:
        m = np.arange(n + 1, dtype=float)
        d -= 0.5 * params.gamma * (m[:, None] - m[None, :]) ** 2 * rho
    return d


def _rk4_step(params: ModelParams, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = rhs(params, rho, t)
    k2 = rhs(params, rho + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(params, rho + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(params, rho + dt * k3, t + dt)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    params: ModelParams,
    rho0: np.ndarray,
    grid: TimeGrid,
    strict: bool = True,
) -> list[HybridState]:
    """Fixed-step RK4 trajectory, sampled every grid.sample_stride steps.

    The step count is rounded so the trajectory lands exactly on t_max.
    With strict=True the step-bound invariant is enforced up front and
    every emitted sample must pass HybridState.validate: trace drift
    <= TRACE_TOL, Hermiticity drift <= HERM_TOL and a diagonal in [0, 1],
    where a nan sample fails.  A violation raises IntegrationError with
    the offending time in the message.  strict=False checks nothing, so
    callers can report a broken trajectory instead of aborting on it.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    n_steps = max(1, int(round(grid.t_max / grid.dt)))
    dt = grid.t_max / n_steps
    if strict:
        eff = TimeGrid(grid.t_max, dt, grid.sample_stride).step_scale(params)
        if eff > 0.05 + 1e-12:
            raise ValueError(
                f"step bound violated: dt*max(omega, g*N, gamma*N^2) = {eff:.3f} > 0.05"
            )
    samples = [HybridState(rho0.copy(), 0.0)]
    if strict:
        samples[0].validate()
    rho = rho0.copy()
    # an unstable step overflows to inf/nan; the per-sample gate (strict) or
    # the caller's own drift check (non-strict) reports that, so numpy's
    # warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            t_prev = (step - 1) * dt
            rho = _rk4_step(params, rho, t_prev, dt)
            if step % grid.sample_stride == 0 or step == n_steps:
                sample = HybridState(rho.copy(), step * dt)
                if strict:
                    sample.validate()
                samples.append(sample)
    return samples


def conditional_density(
    params: ModelParams, state: HybridState, outcome: DetectionOutcome
) -> np.ndarray:
    """Atomic density matrix conditioned on the photon-count pair.

    rho_{kk'} -> rho_{kk'} A(k) A(k')^* / P with A(k) rescaled by its
    maximum, so deep-tail outcomes stay finite; P and the reachability
    check come from rho_kk through the same kernel as the pure model.
    """
    mag, rot = _reachable_factor(
        params.light,
        InteractionSetting(params.g, state.t),
        outcome,
        np.diag(state.rho).real,
    )
    b = mag * rot
    cond = state.rho * np.outer(b, b.conj())
    tr = np.trace(cond)
    if abs(tr.imag) > 1e-10 * max(abs(tr.real), 1.0):
        raise IntegrationError(f"detection probability has imaginary residue {tr.imag}")
    return cond / tr.real
