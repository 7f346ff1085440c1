"""Zero-tunneling measurement model and its Gaussian asymptotics.

While the light interacts with the atoms, each arm amplitude picks up a
phase proportional to the left/right atom-number imbalance.  After the
recombining beamsplitter, the two detector-port amplitudes depend on k
through cos/sin of gt(k - N/2).  Projecting the light on a photon-count
pair (n_c, n_d) multiplies the atomic amplitudes by a k-dependent factor
A_{n_c,n_d}(k), which is what squeezes the conditional distribution.

Everything combinatorial runs in the log domain; counts in the hundreds
and N of a few thousand stay finite.  The photon-count factorials come
from spin_core.log_factorials, the package's one owner of log n!: it
matches `gammaln` bit for bit because it takes log x from math.log, the
C library's log that cephes `lgam` calls, not from np.log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    MAX_ATOMS,
    AtomState,
    GroundExcitedAmplitudes,
    _support_window,
    _unit_rows,
    _xlogy,
    ge_to_lr_amplitudes,
    log_factorials,
)

# Counts beyond this bound have no physical use here and make n*log(n)
# bookkeeping pointless; refuse instead of silently degrading.
MAX_COUNT = 10**6

# Resource guard, like husimi.MAX_GRID: the largest outcome_cutoff.  The
# detection grid holds (cutoff + 1)^2 doubles, beside two |W| x (cutoff + 1)
# Poisson tables, and pure writes each cell as one CSV row (about 33 bytes).
# A cap of MAX_ATOMS keeps the grid at most MAX_ATOMS + 1 = 4097 cells on a
# side, the size of the largest Q grid husimi.check_grid accepts: 16.8
# million cells, 134 MB of doubles.  It is met at a mean count of about
# 3500 photons per detector; light like pure_wide's (|alpha| = 10 per arm)
# needs a cutoff of 200.
MAX_CUTOFF = MAX_ATOMS

# Conditional states on outcomes less likely than this are dominated by
# floating-point noise; treat them as unreachable.
PROB_FLOOR = 1e-280


class ImpossibleOutcomeError(ValueError):
    """Raised for outcomes with (numerically) zero detection probability."""


class AsymptoticsDomainError(ValueError):
    """Raised when an outcome lies outside the arcsin domain of the window formulas."""


@dataclass(frozen=True)
class LightPair:
    """Coherent amplitudes of the two interferometer arms.

    Refused (ValueError) unless both amplitudes and the total intensity
    |alpha_l|^2 + |alpha_r|^2 are finite.  The intensity is checked in
    numpy, where an overflow reads inf, since Python's float power raises
    OverflowError instead.
    """

    alpha_l: complex
    alpha_r: complex

    def __post_init__(self):
        if not (np.isfinite(self.alpha_l) and np.isfinite(self.alpha_r)):
            raise ValueError("light amplitudes must be finite")
        with np.errstate(over="ignore"):
            intensity = np.square(np.abs(self.alpha_l)) + np.square(np.abs(self.alpha_r))
        if not np.isfinite(intensity):
            raise ValueError("light intensity |alpha_l|^2 + |alpha_r|^2 is not finite")

    @property
    def rel_phase(self) -> float:
        """Relative phase arg(alpha_l) - arg(alpha_r)."""
        return float(np.angle(self.alpha_l) - np.angle(self.alpha_r))

    @property
    def total_intensity(self) -> float:
        return float(abs(self.alpha_l) ** 2 + abs(self.alpha_r) ** 2)


@dataclass(frozen=True)
class DetectionOutcome:
    n_c: int
    n_d: int

    def __post_init__(self):
        if self.n_c < 0 or self.n_d < 0:
            raise ValueError("photon counts must be nonnegative")
        if self.n_c != int(self.n_c) or self.n_d != int(self.n_d):
            raise ValueError("photon counts must be integers")
        if self.n_c > MAX_COUNT or self.n_d > MAX_COUNT:
            raise ValueError(f"photon counts exceed log-domain capacity {MAX_COUNT}")


@dataclass(frozen=True)
class InteractionSetting:
    """Atom-light coupling g and interaction time t; only the product matters."""

    g: float
    t: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("interaction time must be nonnegative")

    @property
    def gt(self) -> float:
        return self.g * self.t


def _port_amplitudes(light: LightPair, setting, n_atoms: int):
    """Detector-port amplitudes (alpha_c(k), alpha_d(k)), k = 0..N.

    alpha_c(k) = (a_l + i a_r) cos[gt(k - N/2)] - (i a_l + a_r) sin[gt(k - N/2)]
    alpha_d(k) = (i a_l + a_r) cos[gt(k - N/2)] + (a_l + i a_r) sin[gt(k - N/2)]

    |alpha_c|^2 + |alpha_d|^2 is conserved.  setting is an
    InteractionSetting, or a list of them for one row of k per setting
    along a leading axis; every entry is that of its setting alone.
    """
    gt = np.array([s.gt for s in setting])[:, None] if isinstance(setting, list) else setting.gt
    phase = gt * (np.arange(n_atoms + 1) - n_atoms / 2.0)
    c, s = np.cos(phase), np.sin(phase)
    al, ar = light.alpha_l, light.alpha_r
    alpha_c = (al + 1j * ar) * c - (1j * al + ar) * s
    alpha_d = (1j * al + ar) * c + (al + 1j * ar) * s
    return alpha_c, alpha_d


def _log_detection_amplitudes(light: LightPair, setting, outcome: DetectionOutcome, n_atoms: int):
    """log|A(k)| and arg A(k) over the whole k range, vectorized.

    A(k) = e^{-(|a_l|^2+|a_r|^2)/2} u_c^{n_c} u_d^{n_d} / sqrt(n_c! n_d!) with
    u_{c,d} = alpha_{c,d}(k)/sqrt2.  The factor is the same with or without
    tunneling, so the master-equation readout conditions through it too.
    A list of settings gives one row per setting, as for _port_amplitudes.
    """
    nc, nd = outcome.n_c, outcome.n_d
    alpha_c, alpha_d = _port_amplitudes(light, setting, n_atoms)
    term_c = _xlogy(nc, np.abs(alpha_c) / np.sqrt(2.0))
    term_d = _xlogy(nd, np.abs(alpha_d) / np.sqrt(2.0))
    lf = log_factorials(max(nc, nd))
    log_mag = -light.total_intensity / 2.0 + term_c + term_d - 0.5 * (lf[nc] + lf[nd])
    phase = nc * np.angle(alpha_c) + nd * np.angle(alpha_d)
    return log_mag, phase


def _reachable_factor(light: LightPair, setting, outcome: DetectionOutcome, pk: np.ndarray):
    """(|A(k)| / max_k |A(k)|, A(k)/|A(k)|, P) for a distribution p_k, k = 0..N.

    P = sum_k p_k |A(k)|^2 is summed in the rescaled form, and an outcome
    with P below PROB_FLOOR is refused.  Both models condition through
    this one evaluation of A(k): p_k is |C_k|^2 for a state and the real
    diagonal rho_kk for a density matrix.  A list of settings with one
    row of pk each gives one row of each factor and one P per row, every
    row as for its setting alone; a refusal names the first failing row.
    """
    log_mag, phase = _log_detection_amplitudes(light, setting, outcome, pk.shape[-1] - 1)
    # P <= max_k |A(k)|^2, so flooring the shift only touches outcomes below
    # PROB_FLOOR; it keeps the rescaled magnitude finite where A(k) = 0 for all k
    shift = np.maximum(log_mag.max(axis=-1, keepdims=True), 0.5 * math.log(PROB_FLOOR))
    mag = np.exp(log_mag - shift)
    p = np.sum(pk * mag**2, axis=-1) * np.exp(2.0 * shift[..., 0])
    for q in np.reshape(p, -1).tolist():  # row by row, as each row alone
        if q > 1.0 + 1e-10:
            raise AssertionError(f"detection probability {q} exceeds 1")
        if not q >= PROB_FLOOR:  # a nan P is refused too
            raise ImpossibleOutcomeError(
                f"impossible outcome (n_c={outcome.n_c}, n_d={outcome.n_d}): "
                f"probability {q:.3e}"
            )
    return mag, np.exp(1j * phase), np.minimum(p, 1.0)


def conditional_state(state, light: LightPair, setting, outcome: DetectionOutcome):
    """Post-measurement state with amplitudes C_k A(k), renormalized.

    The phases of A(k) are kept; they carry the k-dependent rotation that
    shows up in the transverse spin moments.  A list of states with a
    list of settings, one each, is conditioned as one stack of rows and
    gives a list of states, each bit for bit that of its own call.
    """
    states = state if isinstance(state, list) else [state]
    amp = np.stack([s.amplitudes for s in states])
    mag, rot, _ = _reachable_factor(light, setting, outcome, np.abs(amp) ** 2)
    amp *= mag
    amp *= rot
    conds = [AtomState(s.n_atoms, row) for s, row in zip(states, _unit_rows(amp))]
    return conds if isinstance(state, list) else conds[0]


def most_probable_outcome(light: LightPair) -> DetectionOutcome:
    """Balanced outcome at the per-detector Poisson mean, ties rounded down."""
    mean = light.total_intensity / 2.0
    n = int(math.ceil(mean - 0.5))
    return DetectionOutcome(n_c=n, n_d=n)


def outcome_cutoff(light: LightPair) -> int:
    """Per-detector enumeration cap keeping the Poisson tail below 1e-6.

    Refused (ValueError) over MAX_CUTOFF, before any table is formed.
    """
    mean = light.total_intensity / 2.0
    cutoff = max(20, int(math.ceil(mean + 10.0 * math.sqrt(mean))))
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"detection grid cutoff {cutoff} exceeds {MAX_CUTOFF}")
    return cutoff


def _poisson_rows(lam: np.ndarray, n_max: int) -> np.ndarray:
    """Poisson pmf rows e^{-lam_k} lam_k^n / n!, n = 0..n_max, one row per k."""
    n = np.arange(n_max + 1, dtype=float)
    # a dark port (lam = 0) gives exp(0) = 1 at n = 0 and exp(-inf) = 0 beyond
    rows = _xlogy(n, lam[:, None], out=np.empty((len(lam), n_max + 1)))
    rows -= lam[:, None]
    rows -= log_factorials(n_max)
    return np.exp(rows, out=rows)


def detection_pmf_grid(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    n_max: int | None = None,
) -> np.ndarray:
    """Full P(n_c, n_d) table for 0 <= n_c, n_d <= n_max.

    Per k the two ports are independent Poissonians with means
    |alpha_c|^2/2 and |alpha_d|^2/2, so the table is a pmf mixture,
    sum_k p_k P_c(n|k) P_d(m|k), formed as one matrix product.

    The Poisson tables and the product run only over the k of the prior's
    support window W (spin_core._support_window).  Every Poisson entry is
    at most 1, so each cell moves by at most the mass outside W,
    sum_{k not in W} p_k <= (N+1) eps^2 max_k p_k with eps = u / (3 (N+1)^2),
    about 1e-44 at N = 2000.  The entries on W are those of a build over
    all k, bit for bit, and a full window makes exactly that build.
    """
    if n_max is None:
        n_max = outcome_cutoff(light)
    window = _support_window([state], state.n_atoms)
    alpha_c, alpha_d = _port_amplitudes(light, setting, state.n_atoms)
    pc = _poisson_rows(np.abs(alpha_c[window]) ** 2 / 2.0, n_max)
    pd = _poisson_rows(np.abs(alpha_d[window]) ** 2 / 2.0, n_max)
    pc *= state.pmf()[window, None]
    return pc.T @ pd


def _window_geometry(light: LightPair, outcome: DetectionOutcome):
    """(gt*x0, X0/gt^2) of the detection window; neither depends on gt."""
    nc, nd = outcome.n_c, outcome.n_d
    if nc + nd == 0:
        raise AsymptoticsDomainError("window undefined for the vacuum outcome")
    s_tot = light.total_intensity
    cross = 2.0 * abs(light.alpha_l * light.alpha_r)
    if cross == 0:
        raise AsymptoticsDomainError("window undefined when one arm is dark")
    arg = (s_tot / cross) * (nc - nd) / (nc + nd)
    if abs(arg) > 1.0:
        raise AsymptoticsDomainError(
            f"outcome inconsistent with asymptotics: arcsin argument {arg}"
        )
    half_angle = (light.rel_phase - math.asin(arg)) / 2.0
    if nc * nd == 0:
        return half_angle, 0.0
    kfac = ((nc + nd) / (nc * nd)) * (
        (nc + nd) ** 2 * (cross / s_tot) ** 2 - (nd - nc) ** 2
    )
    return half_angle, max(kfac, 0.0)


def gaussian_window(
    light: LightPair, setting: InteractionSetting, outcome: DetectionOutcome
) -> tuple[float, float]:
    """(x0, X0): window-peak offset from k = N/2 and inverse squared width in k."""
    if setting.gt <= 0:
        raise ValueError("gaussian_window requires gt > 0")
    half_angle, kfac = _window_geometry(light, outcome)
    gt = setting.gt
    return half_angle / gt, kfac * gt**2


def conditional_gaussian(
    ge: GroundExcitedAmplitudes,
    n_atoms: int,
    light: LightPair,
    setting: InteractionSetting,
    outcome: DetectionOutcome,
):
    """(sigma, k0, pdf): variance and peak of the conditional pmf's Gaussian.

    Valid in the many-photon regime; callers assert validity.  Reduces to
    the prior spin-coherent Gaussian at gt = 0 and to
    sigma = N|eta_l eta_r|^2 / (1 + 8 g^2 t^2 n_c N|eta_l eta_r|^2) for the
    balanced case.  An empty well (eta_l or eta_r = 0) gives sigma = 0,
    which is refused with a ValueError.
    """
    eta_l, eta_r = ge_to_lr_amplitudes(ge)
    ee = abs(eta_l * eta_r) ** 2
    prior_peak = n_atoms * abs(eta_l) ** 2
    # (X0, X0*x0): x0 carries a 1/gt and X0 a gt^2, so both are formed from
    # the gt-free geometry and stay finite as gt -> 0, where x0 alone diverges
    if outcome.n_c * outcome.n_d == 0:
        big_x0 = big_x0_x0 = 0.0
    else:
        half_angle, kfac = _window_geometry(light, outcome)
        gt = setting.gt
        big_x0, big_x0_x0 = kfac * gt**2, kfac * gt * half_angle
    denom = n_atoms * ee * big_x0 + 1.0
    sigma = n_atoms * ee / denom
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k0 = (prior_peak + n_atoms * ee * (big_x0 * n_atoms / 2.0 + big_x0_x0)) / denom

    def pdf(k):
        k = np.asarray(k, dtype=float)
        return np.exp(-((k - k0) ** 2) / (2.0 * sigma)) / np.sqrt(2.0 * np.pi * sigma)

    return sigma, k0, pdf
