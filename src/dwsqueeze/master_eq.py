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
per sample and no (N+1)^2 matrix.  A block's sampled one-atom states
are lifted together, a bounded group of rows per _coherent_amplitudes
call, each row scaled by its own maximum and norm, so the lift costs a
few numpy calls per block rather than per sample and every row is bit
for bit the lift of its state alone.  A density-matrix input, a
non-coherent start and every gamma > 0 run are integrated as rho by
fixed-step RK4, which also serves as the reference for the rotation.
RK4 steps the Hermitian part of its input, and the generator forms
i H rho and adds its adjoint, so every step stays Hermitian to the last
bit.  Only the light overlap of the generator depends on t, so integrate
builds the rest once per run (the coefficients i omega s_k and the
damping gamma (m - m')^2 / 2), forms the overlaps at the RK4 nodes of a
block of steps in one vectorized call, and steps in reused buffers.
Either path records each sample as a Sample: its time, its state (rho,
or the lifted AtomState) and the drifts measured where integrate gates
them, once per sample; Hermiticity is gated on the input only.

integrate also takes a batch of points on one time grid, as a sweep
does.  Its rho-RK4 points step together as one stack of matrices, each
with its own coefficients, damping and overlaps, so numpy's per-call
cost is paid once per batch instead of once per point, while every
product pairs the same numbers as a run of one point and each point's
samples stay bit-identical to its own run.  One time loop runs the
whole batch: each block of steps advances every rotation and then steps
the stack, and each sample time gates every point in batch order, so the
first failure is at the earliest failing time and, at that time, of the
first failing point, and it ends the run.  Each sample is handed to a caller's
reduction as soon as it is gated, so a caller that keeps only a row per
sample, or only the last sample, never holds a trajectory.  A reduction
may buffer samples and read them out later; an IntegrationError it
raises with t already set names an earlier sample and keeps its tags.

Detection enters at readout time through the detection factor A(k) of
pure_measure: its beamsplitter brackets are u_c(k) = (a_{k,l} + i a_{k,r})/sqrt2
= alpha_c(k)/sqrt2 and u_d(k) = (i a_{k,l} + a_{k,r})/sqrt2 = alpha_d(k)/sqrt2,
so rho_{kk'} is conditioned by the outer product A(k) A(k')^*.  The pure
model's readout kernel evaluates A(k) once for p_k = rho_kk and also
yields P = sum_k rho_kk |A(k)|^2 and its reachability check; only the
trace normalization is done here.  An AtomState is conditioned by the
pure model's conditional_state itself.  Moments of either result come
from spin_core.moments_from_density, the one moment routine of the
package.  conditional_density, like conditional_state and
moments_from_density, also takes a list of sources, with a list of
times: the list is conditioned as one stack, along a leading sample
axis of A(k), and each entry is bit for bit that of its own call.
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
# resource guard, like spin_core.MAX_ATOMS: TimeGrid refuses more steps
MAX_STEPS = 10**6

# a start state within this distance (max |dC_k|, global phase aligned)
# of a spin coherent state is evolved as a rotation
_LIFT_TOL = 1e-12
# Gauss-Legendre nodes of the fourth-order Magnus step, as fractions of dt
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
# steps whose rotation propagators or RK4 light overlaps are formed in one
# vectorized call; bounds the memory of long runs
_BLOCK = 4096
# The batch budget of the sample stream, in state entries (N+1 per state,
# (N+1)^2 per density matrix; one sample at least): integrate lifts a
# group of sampled one-atom states this large in one call, and cli's
# readout conditions and reduces a chunk of gated samples this large in
# one.  2^13 holds a Fig-6 block of 192 states at N = 30 (5952 entries),
# 9 rho at N = 30 and one rho from N = 90 up.  Over the same run one
# sample at a time, the readout's tracemalloc heap peak rose by 0.10 MB on
# fig6_master and 0.60 MB on dephasing_sweep (three points, each buffering
# a chunk); 2^14 took it to +1.4 MB there, and a chunk's stacks cost a few
# times its buffer.
_BATCH_ENTRIES = 1 << 13


class IntegrationError(RuntimeError):
    """Raised when density-matrix invariants break during integration.

    integrate tags a failed sample's error with its time t and with point,
    the failing point's index in the batch; both stay None otherwise.
    """

    t: float | None = None
    point: int | None = None


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


@dataclass(frozen=True)
class Sample:
    """One trajectory sample: the atomic state at time t and its drifts.

    On rho-RK4 state is rho_{kk'} (light amplitudes implicit), trace_err
    |tr rho - 1| and herm_err max |rho - rho^dagger|, scanned on the input
    and 0.0 after it, where rho is Hermitian by construction.  On the
    rotation state is the renormalized lift, trace_err the one-atom norm drift
    | |xi|^2 - 1 | and herm_err 0.0, as for any projector.
    """

    t: float
    state: np.ndarray | AtomState
    trace_err: float
    herm_err: float


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step grid; integrate rounds dt so the steps land exactly on t_max.

    Refused unless t_max / dt <= MAX_STEPS, so a run that cannot finish
    (or whose step count overflows) is refused before any work.
    """

    t_max: float
    dt: float
    sample_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if not self.t_max / self.dt <= MAX_STEPS:
            raise ValueError(
                f"t_max / dt = {self.t_max / self.dt:.3g} steps exceeds the budget {MAX_STEPS}"
            )
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


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


class _Stack:
    """A batch of B matrices rho_{kk'}, stored as one (N+1, B, N+1) array.

    Row k of every point is one contiguous run, so the row neighbors of
    all points are one shifted slice away at once: head holds rows
    0 .. N-1 and tail rows 1 .. N, each as one contiguous (N, B (N+1))
    block, and first is row 0.  transposed swaps k and k' within each
    point.  The views are taken once per run, not once per stage.
    """

    def __init__(self, array: np.ndarray):
        n = len(array) - 1
        self.array, self.first = array, array[0]
        self.head, self.tail = array[:-1].reshape(n, -1), array[1:].reshape(n, -1)
        self.transposed = array.transpose(2, 1, 0)


class _Generator:
    """d rho / dt of the hybrid equation for a batch of points, constant parts built once.

    The row tunneling terms i H(t) rho, each neighbor weighted by its light
    overlap, plus their adjoint, plus the Lindblad dephasing
    -gamma/2 (m - m')^2 rho; ladder factors vanish at the k = 0 and k = N
    edges, so boundary terms drop out by construction.  For a Hermitian
    rho the column half of the commutator, -i rho H, is the adjoint of
    the row half R = i H rho, so apply forms R and adds R^dagger.  Each
    of R's two terms is one product of a _Stack's head or tail with rows,
    i omega s_k laid out like them, which set_overlap weights by the light
    overlap, the only part that depends on t; damping holds
    gamma (m - m')^2 / 2.  Every point of the batch (one ModelParams each,
    all of one n_atoms) has its own omega in rows, its own gamma in
    damping and its own overlaps.  Every product pairs the same two
    numbers, in the same order, as in a batch of one, and runs over
    contiguous memory, so a point's arithmetic does not depend on the
    batch.  apply writes into a caller's stack through work buffers of its
    own, and k, acc and y are the RK4 stage stacks.
    """

    def __init__(self, points: list[ModelParams]):
        n = points[0].n_atoms
        w = self.width = n + 1
        ladder = _ladder_factors(n)
        # rows[k, p (N+1) + k'] = i omega_p s_k, shaped like a _Stack's head
        self.rows = np.stack(
            [np.repeat(1j * p.omega * ladder, w).reshape(n, w) for p in points], axis=1
        ).reshape(n, -1)
        self.row_plus, self.row_minus, self.row_term = (
            np.empty_like(self.rows) for _ in range(3)
        )
        m = np.arange(w, dtype=float)
        # stored complex: numpy would cast a real matrix on every product
        gap2 = (m[:, None] - m[None, :]) ** 2
        self.damping = np.stack([(0.5 * p.gamma * gap2).astype(complex) for p in points], axis=1)
        self.full, self.adj = (np.empty_like(self.damping) for _ in range(2))
        self.k, self.acc, self.y = (_Stack(np.empty_like(self.damping)) for _ in range(3))

    def set_overlap(self, ov_plus: np.ndarray):
        """Weight the coefficients by <a_m|a_{m+1}> and <a_{m+1}|a_m> = its conjugate.

        ov_plus holds one overlap per point, repeated here along the
        point's stretch of a stack row.
        """
        row = np.repeat(ov_plus, self.width)
        np.multiply(self.rows, row, out=self.row_plus)
        np.multiply(self.rows, row.conjugate(), out=self.row_minus)

    def apply(self, rho: _Stack, out: _Stack) -> _Stack:
        """Write d rho / dt at the overlaps last set into out, rho Hermitian and out not rho."""
        # row couplings: rho_{m-1,k'} enters row m, rho_{m+1,k'} enters row m
        out.first[...] = 0.0
        np.multiply(self.row_minus, rho.head, out=out.tail)
        out.head += np.multiply(self.row_plus, rho.tail, out=self.row_term)
        # column couplings: the adjoint of the row ones
        out.array += np.conjugate(out.transposed, out=self.adj)
        out.array -= np.multiply(self.damping, rho.array, out=self.full)
        return out


def _rk4_step(gen: _Generator, rho: _Stack, ov: np.ndarray, dt: float):
    """Advance every matrix of rho by one RK4 step, in place.

    ov holds each point's light overlaps at t, t + dt/2 and t + dt, shaped
    (3, B).  The stages keep the textbook sum
    rho + dt/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in gen.acc as each k
    is formed; gen.y holds the next stage's input.
    """
    k, acc, y = gen.k, gen.acc, gen.y
    r, ka, aa, ya = rho.array, k.array, acc.array, y.array
    # complex scalars: numpy would cast a real one on every product
    half, whole, two = complex(0.5 * dt), complex(dt), complex(2.0)
    gen.set_overlap(ov[0])
    gen.apply(rho, acc)
    np.add(r, np.multiply(half, aa, out=ya), out=ya)
    gen.set_overlap(ov[1])
    gen.apply(y, k)
    aa += np.multiply(two, ka, out=ya)
    np.add(r, np.multiply(half, ka, out=ya), out=ya)
    gen.apply(y, k)
    aa += np.multiply(two, ka, out=ya)
    np.add(r, np.multiply(whole, ka, out=ya), out=ya)
    gen.set_overlap(ov[2])
    gen.apply(y, k)
    aa += ka
    aa *= complex(dt / 6.0)
    r += aa


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
    <a_m|a_{m+1}>: the row coupling of _Generator at n_atoms = 1.  With
    w_1, w_2 at the two Gauss nodes of [t, t + dt], the fourth-order
    Magnus exponent (Blanes, Casas, Oteo & Ros 2009)
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


def step_plan(params: ModelParams, grid: TimeGrid) -> tuple[int, float]:
    """integrate's step count and dt, rounded to land on t_max.

    ValueError unless dt * max(omega, g N, gamma N^2) <= 0.05, the step bound.
    """
    n_steps = max(1, int(round(grid.t_max / grid.dt)))
    dt = grid.t_max / n_steps
    n = params.n_atoms
    eff = dt * max(abs(params.omega), abs(params.g) * n, params.gamma * n**2)
    if eff > 0.05 + 1e-12:
        raise ValueError(
            f"step bound violated: dt*max(omega, g*N, gamma*N^2) = {eff:.3f} > 0.05"
        )
    return n_steps, dt


def _rho_sample(t: float, rho: np.ndarray, herm_tol: float | None = None) -> Sample:
    """rho at t as a Sample, gated on what an RK4 step can break.

    That is trace drift and a diagonal in [0, 1]; `not <=` so that a nan
    (overflowed) sample fails too.  Hermiticity is scanned and gated only
    when herm_tol is given, on the input: a stepped rho is Hermitian to the
    last bit, since the generator adds its own adjoint, so its herm_err is
    0.0.
    """
    he = 0.0
    if herm_tol is not None:
        he = float(np.max(np.abs(rho - rho.conj().T)))
        if not he <= herm_tol:
            raise IntegrationError(f"Hermiticity broken at t={t}: {he:.3e}")
    te = float(abs(np.trace(rho) - 1.0))
    if not te <= TRACE_TOL:
        raise IntegrationError(f"trace drift at t={t}: {te:.3e}")
    d = np.diag(rho).real
    if np.min(d) < -1e-10 or np.max(d) > 1.0 + 1e-10:
        raise IntegrationError(f"diagonal out of [0, 1] at t={t}")
    return Sample(t, rho, te, he)


def _rotation_states(xi: tuple[complex, complex], p: np.ndarray, q: np.ndarray, sampled):
    """The one-atom state xi stepped by the propagators (p, q), one step per pair.

    Returns the states after the steps j in sampled, as a list in step
    order, and the last state.  A scalar recurrence that cannot raise: a
    nan or overflowed state is reported by the gate of the sample it
    reaches.
    """
    x0, x1 = xi
    kept = []
    for j, (a, b) in enumerate(zip(p.tolist(), q.tolist())):
        x0, x1 = a * x0 + b * x1, a.conjugate() * x1 - b.conjugate() * x0
        if j in sampled:
            kept.append((x0, x1))
    return kept, (x0, x1)


def _lifts(states: list, n_atoms: int):
    """The one-atom states lifted to n_atoms, one amplitude row each, in order.

    A group of at most _BATCH_ENTRIES entries (one row at least) is lifted
    per _coherent_amplitudes call, so a block's lifts cost a few numpy
    calls, not a few per sample, while memory stays bounded at any N.
    Each row is bit for bit the lift of its state alone.  A nan or
    overflowed state lifts to a row that its sample's gate refuses.
    """
    size = max(1, _BATCH_ENTRIES // (n_atoms + 1))
    for start in range(0, len(states), size):
        xi = np.array(states[start:start + size])
        yield from _coherent_amplitudes(xi[:, 1], xi[:, 0], n_atoms)


def _lift_sample(t: float, xi: tuple[complex, complex], lift: np.ndarray) -> Sample:
    """The lift of the one-atom state xi at t as a Sample, gated on xi's norm drift.

    The drift | |xi|^2 - 1 | is gated before the lift becomes an
    AtomState, `not <=` so that a nan (overflowed) state fails too, rather
    than reach AtomState as nan amplitudes.
    """
    x0, x1 = xi
    drift = abs(abs(x0) ** 2 + abs(x1) ** 2 - 1.0)
    if not drift <= TRACE_TOL:
        raise IntegrationError(f"trace drift at t={t}: {drift:.3e}")
    return Sample(t, AtomState(len(lift) - 1, lift), drift, 0.0)


def integrate(params, initial, grid: TimeGrid, reduce=None) -> list:
    """Trajectory from a density matrix or an AtomState, sampled every stride steps.

    At gamma = 0 a spin coherent AtomState is rotated through its
    one-atom state and every sample's state is the lifted AtomState.
    Any other input runs fixed-step RK4 on rho (rho = C C^dagger for a
    state) on the cached generator, and every sample's state is rho: as
    given at t = 0, then Hermitian to the last bit.  The step count is
    rounded so the trajectory lands exactly on t_max.

    Each sample is handed to reduce as soon as it is made, and the list
    of what reduce returns is the result; without reduce it is the list
    of samples.  So a caller that reduces each sample to a row holds no
    trajectory.

    params may also be a list of points sharing grid, with initial and
    reduce (when given) lists of the same length; the result is then one
    list per point.  Its rho-RK4 points must share n_atoms (ValueError
    naming the numbers otherwise) and step together as one stack with
    each point's own coefficients, damping and overlaps: each point's
    samples are bit-identical to those of its own call.  All points run
    in one time loop: each block of steps forms the rotations'
    propagators, their one-atom states at the block's sample times and
    those states' lifts, and the stack's RK4 node overlaps; the stack then
    steps through the block, and each sample time gates and reduces every
    point in batch order.

    Each invariant is gated once, where it can break, and each sample
    records the drifts its gate measured: before the first step the step
    bound of step_plan, the input's size and a square rho (ValueError),
    and rho's Hermiticity <= HERM_TOL, trace and diagonal; at every
    sample the trace drift <= TRACE_TOL (on the rotation the one-atom
    norm drift, before the lift) and rho's diagonal in [0, 1].  Every
    other gate raises IntegrationError naming the offending time, and a
    nan fails every gate.  The first failure ends the run, so the error
    raised is that of the earliest failing sample time and, at that
    time, of the first failing point, and no sample after it is made; an
    IntegrationError of reduce counts as a failure of its sample, unless
    reduce set its t (the failure of a sample it held back).  The error
    carries the time as t and the point's index as point; a step-bound
    ValueError carries the index of the first point over the bound as
    point.
    """
    if isinstance(params, ModelParams):
        return integrate([params], [initial], grid, None if reduce is None else [reduce])[0]
    points = list(params)
    # every point's bound is checked and a refusal names its point; the plan depends on grid only
    for i, p in enumerate(points):
        try:
            n_steps, dt = step_plan(p, grid)
        except ValueError as exc:
            exc.point = i
            raise
    reduces = [None] * len(points) if reduce is None else reduce
    # batch index -> one-atom state of a rotated point, or rho of a stacked one
    xis, rhos = {}, {}
    for i, (p, state, _) in enumerate(zip(points, initial, reduces, strict=True)):
        size = state.n_atoms if isinstance(state, AtomState) else len(state) - 1
        if size != p.n_atoms:
            raise ValueError(f"state of {size} atoms for a model of {p.n_atoms}")
        if isinstance(state, AtomState):
            xi = _one_atom_state(state) if p.gamma == 0.0 else None
            if xi is not None:
                xis[i] = complex(xi[0]), complex(xi[1])
                continue
            state = np.outer(state.amplitudes, state.amplitudes.conj())
        rho0 = np.asarray(state, dtype=complex)
        if rho0.shape != (size + 1, size + 1):
            raise ValueError("rho must be square")
        rhos[i] = rho0
    stacked = [points[i] for i in rhos]
    sizes = {p.n_atoms for p in stacked}
    if len(sizes) > 1:
        raise ValueError(f"rho-RK4 points of a batch mix atom numbers {sorted(sizes)}")
    values = [[] for _ in points]

    def sample(t, lifts, rhos, herm_tol=None):
        """Gate and reduce every point's state at t, in batch order.

        lifts maps a rotated point to its one-atom state and that state's lift.
        """
        for i, r in enumerate(reduces):
            try:
                if i in lifts:
                    s = _lift_sample(t, *lifts[i])
                else:
                    s = _rho_sample(t, rhos[i].copy(), herm_tol)
                values[i].append(s if r is None else r(s))
            except IntegrationError as exc:
                if exc.t is None:  # a reduction may report an earlier sample's failure
                    exc.t, exc.point = t, i
                raise

    sample(0.0, {i: (xi, next(_lifts([xi], points[i].n_atoms))) for i, xi in xis.items()},
           rhos, HERM_TOL)
    if stacked:
        # the generator takes the Hermitian part; the gate bounds the rest by HERM_TOL
        rho = _Stack(np.stack([0.5 * (r + r.conj().T) for r in rhos.values()], axis=1))
        gen = _Generator(stacked)
        rhos = {i: rho.array[:, k] for k, i in enumerate(rhos)}
    # an unstable step overflows to inf/nan, which the sample gates report,
    # so numpy's warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, _BLOCK):
            count = min(_BLOCK, n_steps - first)
            # the block's steps j, after which every point is sampled
            sampled = {
                j for j in range(count)
                if (first + j + 1) % grid.sample_stride == 0 or first + j + 1 == n_steps
            }
            turns = {
                i: _rotation_states(xi, *_su2_propagators(points[i], first, count, dt), sampled)
                for i, xi in xis.items()
            }
            if stacked:
                t = (first + np.arange(count)) * dt
                times = np.stack((t, t + 0.5 * dt, t + dt), axis=1)
                # (steps, 3, B): each stacked point's overlap at each RK4 node
                nodes = np.stack([coherent_overlaps(p, times) for p in stacked], axis=-1)
            # per rotated point, its sampled states and their lifts, in step order
            pairs = {i: zip(xs, _lifts(xs, points[i].n_atoms)) for i, (xs, _) in turns.items()}
            for j in range(count):
                if stacked:
                    _rk4_step(gen, rho, nodes[j], dt)
                if j in sampled:
                    sample((first + j + 1) * dt, {i: next(z) for i, z in pairs.items()}, rhos)
            xis = {i: last for i, (_, last) in turns.items()}
    return values


def conditional_density(params: ModelParams, state, t, outcome: DetectionOutcome):
    """Atomic state at time t conditioned on the photon-count pair.

    state is an AtomState or a density matrix, as for husimi.q_grid.  An
    AtomState is conditioned by pure_measure.conditional_state and comes
    back as an AtomState.  A density matrix comes back as one:
    rho_{kk'} -> rho_{kk'} A(k) A(k')^* / P with A(k) rescaled by its
    maximum, so deep-tail outcomes stay finite; P and the reachability
    check come from rho_kk through the same kernel as the pure model.

    state may also be a nonempty list of sources of one kind and one N,
    with t a list of their times: they are conditioned as one stack, and
    the result is a list, each entry bit for bit that of its own call.  A
    refusal is that of the first source that fails.
    """
    if not isinstance(state, list):
        return conditional_density(params, [state], [t], outcome)[0]
    settings = [InteractionSetting(params.g, ti) for ti in t]
    if isinstance(state[0], AtomState):
        return conditional_state(state, params.light, settings, outcome)
    rho = np.stack([np.asarray(s, dtype=complex) for s in state])
    pk = np.diagonal(rho, 0, 1, 2).real
    mag, rot, _ = _reachable_factor(params.light, settings, outcome, pk)
    b = mag * rot
    # in place, so every product is rho_kk' (b_k b*_k') in that order at any
    # size: numpy reuses a large temporary right operand of * as the output
    # and swaps the factors, and a complex product is not commutative in
    # its last bit (FMA)
    rho *= b[:, :, None] * b.conj()[:, None, :]
    tr = np.trace(rho, axis1=1, axis2=2)
    for re, im in zip(tr.real.tolist(), tr.imag.tolist()):
        if abs(im) > 1e-10 * max(abs(re), 1.0):
            raise IntegrationError(f"detection probability has imaginary residue {im}")
    rho /= tr.real[:, None, None]
    return list(rho)
