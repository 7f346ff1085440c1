"""Hybrid master equation with tunneling and dephasing.

The joint atom-light state is expanded as rho = sum_{kk'} rho_{kk'}
|k; a_{k,l}, a_{k,r}><k'; a_{k',l}, a_{k',r}| where the light amplitudes
a_{k,l} = a_l e^{-i phi}, a_{k,r} = a_r e^{+i phi}, phi = gt(k - N/2),
follow the atoms analytically and only the atomic matrix rho_{kk'} is
integrated.  Tunneling couples neighboring k with the usual ladder
factors, weighted by the overlap of the displaced light states;
Lindblad dephasing damps rho_{mm'} at the rate gamma (m - m')^2 / 2.

At gamma = 0 the generator is i[H(t), rho] with H(t) a combination of
J_y and J_z, so the evolution is an SU(2) rotation and keeps a spin
coherent state coherent (Arecchi, Courtens, Gilmore & Thomas 1972).
integrate then evolves the one-atom state xi(t), the same equation at
n_atoms = 1, with a fourth-order Magnus step and an exact 2x2
exponential, and lifts each sample to the N-atom coherent state: O(N)
per sample and no (N+1)^2 matrix.  A density-matrix input, a
non-coherent start and every gamma > 0 run are integrated as rho by
fixed-step RK4, which also serves as the reference for the rotation.
RK4 steps the Hermitian part of its input, and the generator forms
i H rho and adds its adjoint, so every step stays Hermitian to the last
bit.  Only the light overlap of the generator depends on t, so integrate
builds the rest once per run (the coefficients i omega s_k and the
damping gamma (m - m')^2 / 2), forms the overlaps at the RK4 nodes of a
block of steps in one vectorized call, and steps in reused buffers; rhs
evaluates the same generator at one time.

Detection enters at readout time through the detection factor A(k) of
pure_measure: its beamsplitter brackets are u_c(k) = (a_{k,l} + i a_{k,r})/sqrt2
= alpha_c(k)/sqrt2 and u_d(k) = (i a_{k,l} + a_{k,r})/sqrt2 = alpha_d(k)/sqrt2,
so rho_{kk'} is conditioned by the outer product A(k) A(k')^*.  The pure
model's readout kernel evaluates A(k) once for p_k = rho_kk and also
yields P = sum_k rho_kk |A(k)|^2 and its reachability check; only the
trace normalization is done here.  A pure sample is conditioned by the
pure model's conditional_state itself.  Moments of either result come
from spin_core.moments_from_density, the one moment routine of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    _reachable_factor,
    conditional_state,
)
from .spin_core import (
    AtomState,
    _coherent_amplitudes,
    _ladder_factors,
    moments_from_density,
)

HERM_TOL = 1e-9
TRACE_TOL = 1e-8

# a start state within this distance (max |dC_k|, global phase aligned)
# of a spin coherent state is evolved as a rotation
_LIFT_TOL = 1e-12
# Gauss-Legendre nodes of the fourth-order Magnus step, as fractions of dt
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
# steps whose rotation propagators or RK4 light overlaps are formed in one
# vectorized call; bounds the memory of long runs
_BLOCK = 4096


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


@dataclass
class PureSample:
    """Spin coherent state at time t, lifted from the one-atom state xi(t).

    The lift is renormalized, so drift holds the norm drift | |xi|^2 - 1 |
    of the integrated one-atom state, the rotation's trace drift; a
    projector is Hermitian by construction.
    """

    state: AtomState
    t: float
    drift: float

    def herm_error(self) -> float:
        return 0.0

    def trace_error(self) -> float:
        return self.drift

    def validate(self):
        _check_drift(self.drift, self.t)


def _check_drift(drift: float, t: float):
    """The rotation's trace gate, also run before a one-atom state is lifted."""
    # written as `not <=` so that a nan (overflowed) sample fails too
    if not drift <= TRACE_TOL:
        raise IntegrationError(f"trace drift at t={t}: {drift:.3e}")


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


def coherent_overlaps(params: ModelParams, t):
    """Light-state overlap <a_m|a_{m+1}> between neighboring k sectors.

    <a_m|a_{m+1}> = e^{-(|a_l|^2+|a_r|^2)} e^{|a_l|^2 e^{-igt}} e^{|a_r|^2 e^{+igt}},
    independent of m: neighboring sectors differ by the same phase step.
    The reverse overlap <a_m|a_{m-1}> is its complex conjugate.  t may be
    an array of times.
    """
    il = abs(params.light.alpha_l) ** 2
    ir = abs(params.light.alpha_r) ** 2
    gt = params.g * np.asarray(t)
    return (
        np.exp(-(il + ir))
        * np.exp(il * np.exp(-1j * gt))
        * np.exp(ir * np.exp(1j * gt))
    )


class _Generator:
    """The generator of rhs with its constant parts built once.

    For a Hermitian rho the column half of the commutator, -i rho H, is
    the adjoint of the row half R = i H rho, so apply forms R and adds
    R^dagger.  On the flattened matrix a row neighbor of rho_{kk'} is
    N + 1 entries away, so each of R's two terms is one product of
    contiguous slices with i omega s_k repeated along each row, which
    set_overlap weights by the light overlap, the only part that depends
    on t; damping holds gamma (m - m')^2 / 2.  apply writes into a
    caller's buffer through work buffers of its own, and k, acc and y
    are the RK4 stage buffers, so a step allocates nothing.
    """

    def __init__(self, params: ModelParams):
        n = params.n_atoms
        w = self.width = n + 1
        self.rows = None
        if params.omega != 0.0:
            self.rows = np.repeat(1j * params.omega * _ladder_factors(n), w)
            self.row_plus, self.row_minus, self.row_term = (
                np.empty_like(self.rows) for _ in range(3)
            )
        m = np.arange(w, dtype=float)
        # stored complex: numpy would cast a real matrix on every product
        self.damping = (
            (0.5 * params.gamma * (m[:, None] - m[None, :]) ** 2).astype(complex).ravel()
            if params.gamma != 0.0
            else None
        )
        self.full = np.empty(w * w, dtype=complex)
        self.adj, self.k, self.acc, self.y = (
            np.empty((w, w), dtype=complex) for _ in range(4)
        )

    def set_overlap(self, ov_plus: complex):
        """Weight the coefficients by <a_m|a_{m+1}> and <a_{m+1}|a_m> = its conjugate."""
        if self.rows is not None:
            np.multiply(self.rows, ov_plus, out=self.row_plus)
            np.multiply(self.rows, ov_plus.conjugate(), out=self.row_minus)

    def apply(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write d rho / dt at the overlap last set into out.

        Both are C-contiguous (N+1) x (N+1) arrays, rho Hermitian and out not rho.
        """
        r, d, w = rho.reshape(-1), out.reshape(-1), self.width
        if self.rows is None:
            d.fill(0.0)
        else:
            # row couplings: rho_{m-1,k'} enters row m, rho_{m+1,k'} enters row m
            d[:w] = 0.0
            np.multiply(self.row_minus, r[:-w], out=d[w:])
            d[:-w] += np.multiply(self.row_plus, r[w:], out=self.row_term)
            # column couplings: the adjoint of the row ones
            out += np.conjugate(out.T, out=self.adj)
        if self.damping is not None:
            d -= np.multiply(self.damping, r, out=self.full)
        return out


def rhs(params: ModelParams, rho: np.ndarray, t: float) -> np.ndarray:
    """Time derivative of rho_{kk'}, which must be Hermitian.

    The row tunneling terms i H(t) rho (each neighbor weighted by its
    light overlap) plus their adjoint, plus the Lindblad dephasing
    -gamma/2 (m - m')^2 rho.  Ladder factors vanish at the k = 0 and k = N
    edges, so boundary terms drop out by construction.  This is the
    generator integrate caches and steps, evaluated once at time t.
    """
    gen = _Generator(params)
    gen.set_overlap(coherent_overlaps(params, t))
    rho = np.ascontiguousarray(rho, dtype=complex)
    return gen.apply(rho, np.empty_like(rho))


def _rk4_step(gen: _Generator, rho: np.ndarray, ov, dt: float) -> np.ndarray:
    """Advance rho by one RK4 step in place and return it.

    ov holds the light overlaps at t, t + dt/2 and t + dt.  The stages
    keep the textbook sum rho + dt/6 (k1 + 2 k2 + 2 k3 + k4), accumulated
    in gen.acc as each k is formed; gen.y holds the next stage's input.
    """
    k, acc, y = gen.k, gen.acc, gen.y
    # complex scalars: numpy would cast a real one on every product
    half, whole, two = complex(0.5 * dt), complex(dt), complex(2.0)
    gen.set_overlap(ov[0])
    gen.apply(rho, acc)
    np.add(rho, np.multiply(half, acc, out=y), out=y)
    gen.set_overlap(ov[1])
    gen.apply(y, k)
    acc += np.multiply(two, k, out=y)
    np.add(rho, np.multiply(half, k, out=y), out=y)
    gen.apply(y, k)
    acc += np.multiply(two, k, out=y)
    np.add(rho, np.multiply(whole, k, out=y), out=y)
    gen.set_overlap(ov[2])
    gen.apply(y, k)
    acc += k
    acc *= complex(dt / 6.0)
    rho += acc
    return rho


def _one_atom_state(state: AtomState) -> np.ndarray | None:
    """The one-atom state xi = (eta_r, eta_l) whose N-fold lift is state.

    A lift's mean spin is N times its atom's, so n = <J> / (N/2) gives xi
    up to a global phase: |eta_l|^2 - |eta_r|^2 = n_x and
    eta_r eta_l^* = (-n_z + i n_y) / 2.  Returns None when the lift of
    that xi misses state by more than _LIFT_TOL, i.e. when state is not
    spin coherent.
    """
    m = moments_from_density(state)
    half = state.n_atoms / 2.0
    nx = m.jx_mean / half
    cross = complex(-m.jz_mean, m.jy_mean) / (2.0 * half)
    if nx >= 0.0:
        eta_l = np.sqrt((1.0 + nx) / 2.0)
        xi = np.array([cross / eta_l, eta_l])
    else:
        eta_r = np.sqrt((1.0 - nx) / 2.0)
        xi = np.array([eta_r, cross.conjugate() / eta_r])
    xi /= np.linalg.norm(xi)
    lift = _coherent_amplitudes(xi[1], xi[0], state.n_atoms)
    phase = np.exp(1j * np.angle(np.vdot(lift, state.amplitudes)))
    if not np.max(np.abs(lift * phase - state.amplitudes)) <= _LIFT_TOL:
        return None
    return xi


def _su2_propagators(params: ModelParams, first: int, count: int, dt: float):
    """(p, q) of the one-atom steps first .. first + count - 1, as arrays.

    The one-atom generator is H_1 = [[0, w], [w*, 0]], w = omega s_0
    <a_m|a_{m+1}>: rhs's entry at n_atoms = 1.  With w_1, w_2 at the two
    Gauss nodes of [t, t + dt], the fourth-order Magnus exponent
    (Blanes, Casas, Oteo & Ros 2009)
    dt (M_1 + M_2) / 2 - sqrt(3) dt^2 [M_1, M_2] / 12, M = i H_1, is
    i (u_x sigma_x + u_y sigma_y + u_z sigma_z) with
    u_x - i u_y = dt (w_1 + w_2) / 2 and u_z = sqrt(3) dt^2 Im(w_1 w_2^*) / 6.
    Its exponential is [[p, q], [-q^*, p^*]], p = cos|u| + i u_z sinc|u|,
    q = i (u_x - i u_y) sinc|u|, unitary up to roundoff at any dt.
    """
    t = (first + np.arange(count)) * dt
    w1, w2 = (
        params.omega * _ladder_factors(1)[0] * coherent_overlaps(params, t + c * dt)
        for c in _GAUSS_NODES
    )
    transverse = 0.5 * dt * (w1 + w2)
    uz = np.sqrt(3.0) / 6.0 * dt**2 * (w1 * w2.conj()).imag
    angle = np.sqrt(np.abs(transverse) ** 2 + uz**2)
    sinc = np.sinc(angle / np.pi)
    return np.cos(angle) + 1j * uz * sinc, 1j * transverse * sinc


def _rotate(
    params: ModelParams, xi: np.ndarray, n_steps: int, dt: float, stride: int, strict: bool
) -> list[PureSample]:
    """Rotation trajectory of the one-atom state, lifted at every sample."""
    n = params.n_atoms
    x0, x1 = complex(xi[0]), complex(xi[1])

    def sample(t):
        drift = abs(abs(x0) ** 2 + abs(x1) ** 2 - 1.0)
        # an overflowed one-atom state lifts to nan amplitudes, which AtomState
        # refuses; the gate names the drift first
        if strict:
            _check_drift(drift, t)
        return PureSample(AtomState(n, _coherent_amplitudes(x1, x0, n)), t, drift)

    samples = [sample(0.0)]
    # a nan one-atom state is reported by the drift gate before it is lifted
    with np.errstate(invalid="ignore"):
        for first in range(0, n_steps, _BLOCK):
            p, q = _su2_propagators(params, first, min(_BLOCK, n_steps - first), dt)
            for step, (a, b) in enumerate(zip(p.tolist(), q.tolist()), first + 1):
                x0, x1 = a * x0 + b * x1, a.conjugate() * x1 - b.conjugate() * x0
                if step % stride == 0 or step == n_steps:
                    samples.append(sample(step * dt))
    return samples


def integrate(
    params: ModelParams,
    initial,
    grid: TimeGrid,
    strict: bool = True,
) -> list[HybridState] | list[PureSample]:
    """Trajectory from a density matrix or an AtomState, sampled every stride steps.

    At gamma = 0 a spin coherent AtomState is rotated through its
    one-atom state and every sample is a PureSample.  Any other input
    runs fixed-step RK4 on rho (rho = C C^dagger for a state) and every
    sample is a HybridState: rho as given at t = 0, then Hermitian to the
    last bit.  RK4 evaluates rhs's generator with its constant parts
    built once, takes the light overlaps at t, t + dt/2 and t + dt from
    one vectorized call per _BLOCK steps (three scalars a step, whatever
    N) and writes its stages into buffers reused across steps.  The step
    count is rounded so the trajectory lands exactly on t_max.  With
    strict=True the step-bound invariant is enforced up front and every
    emitted sample must pass its validate: trace drift
    <= TRACE_TOL, and for rho also Hermiticity drift <= HERM_TOL and a
    diagonal in [0, 1], where a nan sample fails.  A violation raises
    IntegrationError with the offending time in the message.
    strict=False checks nothing, so callers can report a broken
    trajectory instead of aborting on it; only an overflowed one-atom
    state, which has no lift, is refused by AtomState with ValueError.
    """
    n_steps = max(1, int(round(grid.t_max / grid.dt)))
    dt = grid.t_max / n_steps
    if strict:
        eff = TimeGrid(grid.t_max, dt, grid.sample_stride).step_scale(params)
        if eff > 0.05 + 1e-12:
            raise ValueError(
                f"step bound violated: dt*max(omega, g*N, gamma*N^2) = {eff:.3f} > 0.05"
            )
    if isinstance(initial, AtomState):
        if initial.n_atoms != params.n_atoms:
            raise ValueError(
                f"state of {initial.n_atoms} atoms for a model of {params.n_atoms}"
            )
        xi = _one_atom_state(initial) if params.gamma == 0.0 else None
        if xi is not None:
            return _rotate(params, xi, n_steps, dt, grid.sample_stride, strict)
        initial = np.outer(initial.amplitudes, initial.amplitudes.conj())
    rho0 = np.asarray(initial, dtype=complex)
    samples = [HybridState(rho0.copy(), 0.0)]
    if strict:
        samples[0].validate()
    # the generator takes the Hermitian part; the gate bounds the rest by HERM_TOL
    rho = 0.5 * (rho0 + rho0.conj().T)
    gen = _Generator(params)
    # an unstable step overflows to inf/nan; the per-sample gate (strict) or
    # the caller's own drift check (non-strict) reports that, so numpy's
    # warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, _BLOCK):
            t = (first + np.arange(min(_BLOCK, n_steps - first))) * dt
            nodes = coherent_overlaps(params, np.stack((t, t + 0.5 * dt, t + dt), axis=1))
            for step, ov in enumerate(nodes, first + 1):
                rho = _rk4_step(gen, rho, ov, dt)
                if step % grid.sample_stride == 0 or step == n_steps:
                    sample = HybridState(rho.copy(), step * dt)
                    if strict:
                        sample.validate()
                    samples.append(sample)
    return samples


def conditional_density(
    params: ModelParams, sample: HybridState | PureSample, outcome: DetectionOutcome
) -> np.ndarray | AtomState:
    """Atomic state conditioned on the photon-count pair.

    A PureSample is conditioned by pure_measure.conditional_state and
    comes back as an AtomState.  A HybridState comes back as a density
    matrix: rho_{kk'} -> rho_{kk'} A(k) A(k')^* / P with A(k) rescaled by
    its maximum, so deep-tail outcomes stay finite; P and the
    reachability check come from rho_kk through the same kernel as the
    pure model.
    """
    setting = InteractionSetting(params.g, sample.t)
    if isinstance(sample, PureSample):
        return conditional_state(sample.state, params.light, setting, outcome)
    mag, rot = _reachable_factor(params.light, setting, outcome, np.diag(sample.rho).real)
    b = mag * rot
    cond = sample.rho * np.outer(b, b.conj())
    tr = np.trace(cond)
    if abs(tr.imag) > 1e-10 * max(abs(tr.real), 1.0):
        raise IntegrationError(f"detection probability has imaginary residue {tr.imag}")
    return cond / tr.real
