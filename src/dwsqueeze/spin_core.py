"""Collective-spin basis, spin coherent states and moments.

The atomic basis is the left/right Fock basis |k, N-k> with k the number
of atoms in the LEFT well, k = 0..N.  J_x is diagonal in this basis with
eigenvalue k - N/2; J_y and J_z are tridiagonal.  All constructors work
in the log domain so that N of a few thousand does not overflow.

`log_factorials` is the one owner of log n! for the whole package: the
binomials here and the photon-count factorials of pure_measure read it.
It evaluates the cephes `lgam` algorithm in its order of operations, so
every entry equals `gammaln(n + 1)` bit for bit without importing the
special-function library.  It takes log x from math.log because that is
the C library's log, the one cephes calls; np.log has its own
implementation and differs from it in the last bit for a few integers.

`_xlogy` is, next to it, the one owner of n log x with 0 log 0 = 0: the
coherent amplitudes here, the detection factor A(k) and the Poisson rows
of pure_measure all take their n log x terms from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Resource guard. A state and its Q grid cost O(N) memory (q_grid holds
# one bounded block of overlap rows), but every density-matrix operation
# (the gamma > 0 integrator, conditioning, the Q grid of rho) holds and
# touches (N+1)^2 entries.
MAX_ATOMS = 4096

_NORM_TOL = 1e-10
_VAR_FLAG = -1e-8

# Unit roundoff of float64, the u of the support window's eps.
_UNIT_ROUNDOFF = 2.0**-53

# cephes lgam for x >= 13: log sqrt(2 pi) and the coefficients, highest
# power first, of its Stirling series in 1/x^2; x >= 1000 uses the short one
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_SHORT = (
    7.9365079365079365079365e-4,
    -2.7777777777777777777778e-3,
    0.0833333333333333333333,
)

# log n! for n = 0..11 (cephes takes the log of the exact product below
# x = 13); grown on demand by log_factorials, never written in place
_log_factorial_table = np.array([math.log(math.factorial(n)) for n in range(12)])
_log_factorial_table.flags.writeable = False


def _horner(coeffs, p):
    """cephes polevl: coeffs[0] p^m + ... + coeffs[m], in its order."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * p + c
    return acc


def log_factorials(n_max: int) -> np.ndarray:
    """Read-only table of log n!, n = 0..n_max, equal to gammaln(n + 1) bit for bit.

    The table is memoized and grows only when a call asks for more than
    it holds; a smaller request returns a prefix of the same entries.
    """
    global _log_factorial_table
    have = len(_log_factorial_table)
    if n_max >= have:
        x = np.arange(have + 1, n_max + 2, dtype=float)
        log_x = np.fromiter(map(math.log, x.tolist()), dtype=float, count=len(x))
        p = 1.0 / (x * x)
        series = np.where(x >= 1000.0, _horner(_STIRLING_SHORT, p), _horner(_STIRLING, p))
        table = np.concatenate(
            [_log_factorial_table, (x - 0.5) * log_x - x + _LS2PI + series / x]
        )
        table.flags.writeable = False
        _log_factorial_table = table
    return _log_factorial_table[: n_max + 1]


@dataclass(frozen=True)
class GroundExcitedAmplitudes:
    """Amplitudes (alpha, beta) of the excited/ground double-well modes."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {n!r}, expected 1")


@dataclass(frozen=True)
class BlochAngles:
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta = {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi = {self.phi} outside [0, 2*pi)")


@dataclass
class AtomState:
    """Normalized amplitude vector C_k over |k, N-k>, k = 0..N."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.n_atoms + 1,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({self.n_atoms + 1},)"
            )
        n = np.linalg.norm(self.amplitudes)
        # written as `not <=` so that a nan vector is refused too
        if not abs(n - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {n!r} deviates from 1 beyond {_NORM_TOL}")

    def pmf(self) -> np.ndarray:
        """Probability of finding k atoms in the left well."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class SpinMoments:
    jx_mean: float
    jy_mean: float
    jz_mean: float
    jx_var: float
    jy_var: float
    jz_var: float


def ge_to_lr_amplitudes(ge: GroundExcitedAmplitudes) -> tuple[complex, complex]:
    """Single-atom left/right amplitudes eta_l = (alpha+beta)/sqrt2, eta_r = (beta-alpha)/sqrt2."""
    rt2 = np.sqrt(2.0)
    return (ge.alpha + ge.beta) / rt2, (ge.beta - ge.alpha) / rt2


def bloch_to_ge(angles: BlochAngles) -> GroundExcitedAmplitudes:
    """Bloch-sphere parametrization alpha = sin(theta/2)e^{-i phi/2}, beta = cos(theta/2)e^{+i phi/2}."""
    half = angles.theta / 2.0
    return GroundExcitedAmplitudes(
        alpha=np.sin(half) * np.exp(-0.5j * angles.phi),
        beta=np.cos(half) * np.exp(0.5j * angles.phi),
    )


def _xlogy(n, x, out=None):
    """n * log x elementwise, with 0 * log 0 = 0 and n * log 0 = -inf for n > 0.

    n log x is one multiply, into out when given (of the broadcast shape).
    Then only the entries where n == 0 are set to 0, where the product
    reads nan (x = 0) or -0.0 (x < 1); the mask has n's own shape, so no
    full-size mask or select pass is made.  n or x must be an array (or
    out given), so that the n == 0 entries can be set in place.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply(n, np.log(x), out=out)
    np.copyto(out, 0.0, where=np.asarray(n) == 0)
    return out


def _log_coherent_amplitudes(eta_l, eta_r, n_atoms: int, window: slice = slice(None)):
    """Log magnitude and phase of binom(N,k)^(1/2) eta_l^k eta_r^(N-k).

    eta_l and eta_r are scalars or arrays of one shape; the k of window
    (all of k = 0..N by default) run along a new last axis of both
    arrays.  window may also be an integer index array, whose last axis
    then holds the k and whose other axes broadcast against eta's, so
    each point takes its own k.  Each entry is the same whatever the
    window.
    """
    lf = log_factorials(n_atoms)
    log_binom = (0.5 * (lf[n_atoms] - lf - lf[::-1]))[window]
    k = np.arange(n_atoms + 1, dtype=float)[window]  # exact, and no cast buffers
    eta_l = np.asarray(eta_l)[..., None]
    eta_r = np.asarray(eta_r)[..., None]
    shape = np.broadcast_shapes(eta_l.shape, k.shape)
    # (k log|eta_l| + log_binom) + (N-k) log|eta_r|, summed in place
    log_mag = _xlogy(k, np.abs(eta_l), out=np.empty(shape))
    log_mag += log_binom
    term = _xlogy(n_atoms - k, np.abs(eta_r), out=np.empty(shape))
    log_mag += term
    phase = np.multiply(k, np.angle(eta_l), out=np.empty(shape))
    phase += np.multiply(n_atoms - k, np.angle(eta_r), out=term)
    return log_mag, phase


def _support_window(sources: list, n_atoms: int) -> slice:
    """The support window W of the sources: the smallest k range outside
    which each source's weight w_k is at most eps * max_k w_k.

    w_k = |C_k| for a state and sqrt(rho_kk) for a density matrix, and a
    list takes the smallest range holding every source's window.
    eps = u / (3 (N+1)^2), with u = 2^-53 the unit roundoff.  Outside W
    every p_k = w_k^2 is at most eps^2 max p, so the k outside W carry a
    mass of at most (N+1) eps^2 max p; the husimi module docstring derives
    that dropping them moves any Q by at most u / (4 pi), and
    pure_measure.detection_pmf_grid that they move each P(n_c, n_d) by at
    most that mass.

    w_k <= eps max w is compared as w_k^2 <= eps^2 max w^2, on |C_k|^2 or
    rho_kk, so a density matrix needs no square root; a diagonal entry
    that rounded below zero is outside, and a nan keeps every k.  A
    source with no entry above the cut leaves W to the others (all k if
    none has one).
    """
    eps = _UNIT_ROUNDOFF / (3.0 * (n_atoms + 1) ** 2)
    lo, hi = n_atoms + 1, 0
    for source in sources:
        if isinstance(source, AtomState):
            weights = source.pmf()
        else:
            weights = np.diagonal(np.asarray(source)).real
        inside = np.flatnonzero(~(weights <= eps * eps * weights.max()))
        if inside.size:
            lo, hi = min(lo, int(inside[0])), max(hi, int(inside[-1]) + 1)
    return slice(lo, hi) if lo < hi else slice(0, n_atoms + 1)


def build_spin_coherent(ge: GroundExcitedAmplitudes, n_atoms: int) -> AtomState:
    """Spin coherent state C_k = binom(N,k)^(1/2) eta_l^k eta_r^(N-k), normalized."""
    if n_atoms < 0:
        raise ValueError("n_atoms must be nonnegative")
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"n_atoms = {n_atoms} exceeds capacity {MAX_ATOMS}")
    eta_l, eta_r = ge_to_lr_amplitudes(ge)
    return AtomState(n_atoms=n_atoms, amplitudes=_coherent_amplitudes(eta_l, eta_r, n_atoms))


def _coherent_amplitudes(eta_l, eta_r, n_atoms: int) -> np.ndarray:
    """binom(N,k)^(1/2) eta_l^k eta_r^(N-k), k = 0..N, normalized to 1.

    This is the N-fold symmetric lift of the one-atom state (eta_r, eta_l),
    whose k = 0 entry is the atom in the right well.  Arrays of one-atom
    amplitudes give one row per state along a last axis, each scaled by
    its own maximum and norm, so a row is that of its state alone.
    """
    log_mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms)
    amp = np.exp(log_mag - log_mag.max(axis=-1, keepdims=True)) * np.exp(1j * phase)
    _unit_rows(amp)
    return amp


def _unit_rows(amp: np.ndarray) -> np.ndarray:
    """Divide each row of amp (its last axis) by its np.linalg.norm, in place.

    A vector's norm is a sum of BLAS dots, whose bits no row-wise sum
    reproduces, so every row is normalized as a one-vector call would.
    """
    for row in amp.reshape(-1, amp.shape[-1]):
        row /= np.linalg.norm(row)
    return amp


def _ladder_factors(n_atoms: int) -> np.ndarray:
    """sqrt((k+1)(N-k))/2 between |k> and |k+1>, k = 0..N-1."""
    k = np.arange(n_atoms, dtype=float)
    return np.sqrt((k + 1.0) * (n_atoms - k)) / 2.0


def moments_from_density(source):
    """Means and variances of J_x, J_y, J_z in O(N).

    source is a density matrix or an AtomState, as for husimi.q_grid, or a
    nonempty list of either kind, all of one N, which gives a list of
    SpinMoments in one pass; each entry is that of its source alone.
    J_x is diagonal and J_y, J_z are tridiagonal, so the means read the
    main and first diagonals of rho and the second moments at most the
    second one; a state C_k stands for rho = C C^dagger, whose diagonals
    |C_k|^2, C_k C*_{k+1} and C_k C*_{k+2} are formed without the matrix.
    With s_k the ladder factors and x_k = k - N/2:
    <J_x> = sum x_k rho_kk, Var J_x = sum (x_k - <J_x>)^2 rho_kk,
    <J_y> = 2 sum s_k Im rho_{k,k+1}, <J_z> = -2 sum s_k Re rho_{k,k+1},
    <J_y^2>, <J_z^2> = sum (s_{k-1}^2 + s_k^2) rho_kk
                       -/+ 2 sum s_k s_{k+1} Re rho_{k,k+2}.
    A density matrix must be square, of trace 1 and Hermitian within
    1e-8 (ValueError, for the first source that is not).
    """
    sources = source if isinstance(source, list) else [source]
    if isinstance(sources[0], AtomState):
        c = np.stack([s.amplitudes for s in sources])
        # np.multiply, not *: numpy may reuse a large temporary operand as the
        # output and swap the factors, and a complex product (formed with FMA)
        # is not commutative to the last bit, so the bits would follow the size
        bands = (np.abs(c) ** 2, np.multiply(c[:, :-1], c[:, 1:].conj()),
                 np.multiply(c[:, :-2], c[:, 2:].conj()))
    else:
        rho = np.stack([np.asarray(s, dtype=complex) for s in sources])
        if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
            raise ValueError("density matrix must be square")
        tr = np.trace(rho, axis1=1, axis2=2)
        skew = rho.conj().swapaxes(1, 2)
        skew = np.abs(np.subtract(rho, skew, out=skew)).max(axis=(1, 2))
        for i in np.flatnonzero((np.abs(tr - 1.0) > 1e-8) | (skew > 1e-8))[:1]:
            if abs(tr[i] - 1.0) > 1e-8:
                raise ValueError(f"trace {tr[i]!r} deviates from 1")
            raise ValueError("density matrix is not Hermitian within tolerance")
        bands = (np.diagonal(rho, 0, 1, 2).real, np.diagonal(rho, 1, 1, 2),
                 np.diagonal(rho, 2, 1, 2))
    moments = _banded_moments(*bands)
    return moments if isinstance(source, list) else moments[0]


def _banded_moments(p: np.ndarray, first: np.ndarray, second: np.ndarray) -> list[SpinMoments]:
    """Moments from rows of the main (real), first and second diagonals of rho.

    Each reduction is an elementwise product summed along a row, so a
    row's moments do not depend on the other rows.  A variance below
    -1e-8 is refused (ValueError, the first in row and column order); one
    between that and 0 is clamped to 0.
    """
    n_atoms = p.shape[-1] - 1
    s = _ladder_factors(n_atoms)
    x = np.arange(n_atoms + 1, dtype=float) - n_atoms / 2.0
    # (J_y^2)_kk = (J_z^2)_kk = s_{k-1}^2 + s_k^2, with s_{-1} = s_N = 0
    s2 = np.concatenate(([0.0], s**2, [0.0]))
    band0 = np.sum(p * (s2[:-1] + s2[1:]), axis=-1)
    band2 = 2.0 * np.sum((s[:-1] * s[1:]) * second.real, axis=-1)
    mx = np.sum(x * p, axis=-1)
    my = 2.0 * np.sum(s * first.imag, axis=-1)
    mz = -2.0 * np.sum(s * first.real, axis=-1)
    # J_x is diagonal, so its variance is summed centred, free of the
    # cancellation of <J_x^2> - <J_x>^2 when |<J_x>| is near N/2
    var_x = np.sum(np.square(x - mx[:, None]) * p, axis=-1)
    var = np.stack((var_x, band0 - band2 - my**2, band0 + band2 - mz**2), axis=1)
    low = var[var < _VAR_FLAG]
    if low.size:
        raise ValueError(f"variance {low[0]} below roundoff tolerance {_VAR_FLAG}")
    var = np.where(var < 0.0, 0.0, var)
    return [SpinMoments(*row) for row in np.column_stack((mx, my, mz, var)).tolist()]
