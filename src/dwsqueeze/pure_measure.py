"""Zero-tunneling measurement model and its Gaussian asymptotics.

While the light interacts with the atoms, each arm amplitude picks up a
phase proportional to the left/right atom-number imbalance.  After the
recombining beamsplitter, the two detector-port amplitudes depend on k
through cos/sin of gt(k - N/2).  Projecting the light on a photon-count
pair (n_c, n_d) multiplies the atomic amplitudes by a k-dependent factor
A_{n_c,n_d}(k), which is what squeezes the conditional distribution.

Everything combinatorial runs in the log domain; counts in the hundreds
and N of a few thousand stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .spin_core import AtomState, GroundExcitedAmplitudes, ge_to_lr_amplitudes

# Counts beyond this bound have no physical use here and make n*log(n)
# bookkeeping pointless; refuse instead of silently degrading.
MAX_COUNT = 10**6

# Conditional states on outcomes less likely than this are dominated by
# floating-point noise; treat them as unreachable.
PROB_FLOOR = 1e-280


class ImpossibleOutcomeError(ValueError):
    """Raised for outcomes with (numerically) zero detection probability."""


class AsymptoticsDomainError(ValueError):
    """Raised when an outcome lies outside the arcsin domain of the window formulas."""


@dataclass(frozen=True)
class LightPair:
    """Coherent amplitudes of the two interferometer arms."""

    alpha_l: complex
    alpha_r: complex

    def __post_init__(self):
        if not (np.isfinite(self.alpha_l) and np.isfinite(self.alpha_r)):
            raise ValueError("light amplitudes must be finite")

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


def port_amplitudes(
    light: LightPair, setting: InteractionSetting, k, n_atoms: int
):
    """Detector-port amplitudes (alpha_c, alpha_d) for imbalance index k.

    alpha_c(k) = (a_l + i a_r) cos[gt(k - N/2)] - (i a_l + a_r) sin[gt(k - N/2)]
    alpha_d(k) = (i a_l + a_r) cos[gt(k - N/2)] + (a_l + i a_r) sin[gt(k - N/2)]

    Accepts scalar or array k.  |alpha_c|^2 + |alpha_d|^2 is conserved.
    """
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k > n_atoms):
        raise ValueError(f"k out of range 0..{n_atoms}")
    phase = setting.gt * (k - n_atoms / 2.0)
    c, s = np.cos(phase), np.sin(phase)
    al, ar = light.alpha_l, light.alpha_r
    alpha_c = (al + 1j * ar) * c - (1j * al + ar) * s
    alpha_d = (1j * al + ar) * c + (al + 1j * ar) * s
    if k.ndim == 0:
        return complex(alpha_c), complex(alpha_d)
    return alpha_c, alpha_d


def _log_detection_amplitudes(
    light: LightPair,
    setting: InteractionSetting,
    outcome: DetectionOutcome,
    n_atoms: int,
):
    """log|A(k)| and arg A(k) over the whole k range, vectorized.

    A(k) = e^{-(|a_l|^2+|a_r|^2)/2} u_c^{n_c} u_d^{n_d} / sqrt(n_c! n_d!) with
    u_{c,d} = alpha_{c,d}(k)/sqrt2.  The factor is the same with or without
    tunneling, so the master-equation readout conditions through it too.
    """
    nc, nd = outcome.n_c, outcome.n_d
    k = np.arange(n_atoms + 1)
    alpha_c, alpha_d = port_amplitudes(light, setting, k, n_atoms)
    mag_c = np.abs(alpha_c) / np.sqrt(2.0)
    mag_d = np.abs(alpha_d) / np.sqrt(2.0)
    with np.errstate(divide="ignore"):
        term_c = np.where(nc > 0, nc * np.log(np.where(mag_c > 0, mag_c, 1.0)), 0.0)
        term_c = np.where((nc > 0) & (mag_c == 0), -np.inf, term_c)
        term_d = np.where(nd > 0, nd * np.log(np.where(mag_d > 0, mag_d, 1.0)), 0.0)
        term_d = np.where((nd > 0) & (mag_d == 0), -np.inf, term_d)
    log_mag = (
        -light.total_intensity / 2.0
        + term_c
        + term_d
        - 0.5 * (gammaln(nc + 1) + gammaln(nd + 1))
    )
    phase = nc * np.angle(alpha_c) + nd * np.angle(alpha_d)
    return log_mag, phase


def _conditioning_factor(
    light: LightPair,
    setting: InteractionSetting,
    outcome: DetectionOutcome,
    pk: np.ndarray,
):
    """(|A(k)| / max_k |A(k)|, A(k)/|A(k)|, P) for a distribution p_k, k = 0..N.

    P = sum_k p_k |A(k)|^2 is summed in the rescaled form.  Both models
    condition through this one evaluation of A(k): p_k is |C_k|^2 for a
    state and the real diagonal rho_kk for a density matrix.
    """
    log_mag, phase = _log_detection_amplitudes(light, setting, outcome, len(pk) - 1)
    # P <= max_k |A(k)|^2, so flooring the shift only touches outcomes below
    # PROB_FLOOR; it keeps the rescaled magnitude finite where A(k) = 0 for all k
    shift = max(log_mag.max(), 0.5 * math.log(PROB_FLOOR))
    mag = np.exp(log_mag - shift)
    p = float(np.sum(pk * mag**2)) * math.exp(2.0 * shift)
    if p > 1.0 + 1e-10:
        raise AssertionError(f"detection probability {p} exceeds 1")
    return mag, np.exp(1j * phase), min(p, 1.0)


def _reachable_factor(
    light: LightPair,
    setting: InteractionSetting,
    outcome: DetectionOutcome,
    pk: np.ndarray,
):
    """Rescaled magnitude and phase factor of A(k); refuses outcomes below PROB_FLOOR."""
    mag, rot, p = _conditioning_factor(light, setting, outcome, pk)
    if not p >= PROB_FLOOR:  # a nan P is refused too
        raise ImpossibleOutcomeError(
            f"impossible outcome (n_c={outcome.n_c}, n_d={outcome.n_d}): "
            f"probability {p:.3e}"
        )
    return mag, rot


def conditional_state(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    outcome: DetectionOutcome,
) -> AtomState:
    """Post-measurement state with amplitudes C_k A(k), renormalized.

    The phases of A(k) are kept; they carry the k-dependent rotation that
    shows up in the transverse spin moments.
    """
    mag, rot = _reachable_factor(light, setting, outcome, state.pmf())
    amp = state.amplitudes * mag * rot
    amp /= np.linalg.norm(amp)
    return AtomState(n_atoms=state.n_atoms, amplitudes=amp)


def most_probable_outcome(light: LightPair) -> DetectionOutcome:
    """Balanced outcome at the per-detector Poisson mean, ties rounded down."""
    mean = light.total_intensity / 2.0
    n = int(math.ceil(mean - 0.5))
    return DetectionOutcome(n_c=n, n_d=n)


def outcome_cutoff(light: LightPair) -> int:
    """Per-detector enumeration cap keeping the Poisson tail below 1e-6."""
    mean = light.total_intensity / 2.0
    return max(20, int(math.ceil(mean + 10.0 * math.sqrt(mean))))


def detection_pmf_grid(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    n_max: int | None = None,
) -> np.ndarray:
    """Full P(n_c, n_d) table for 0 <= n_c, n_d <= n_max.

    Per k the two ports are independent Poissonians with means
    |alpha_c|^2/2 and |alpha_d|^2/2, so the table is a pmf mixture.
    """
    if n_max is None:
        n_max = outcome_cutoff(light)
    k = np.arange(state.n_atoms + 1)
    alpha_c, alpha_d = port_amplitudes(light, setting, k, state.n_atoms)
    lam_c = np.abs(alpha_c) ** 2 / 2.0
    lam_d = np.abs(alpha_d) ** 2 / 2.0
    n = np.arange(n_max + 1)

    def poisson_rows(lam):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = (
                n[None, :] * np.log(np.where(lam > 0, lam, 1.0))[:, None]
                - lam[:, None]
                - gammaln(n + 1)[None, :]
            )
        rows = np.exp(log_p)
        zero = lam == 0
        if np.any(zero):
            rows[zero] = 0.0
            rows[zero, 0] = 1.0
        return rows

    pc = poisson_rows(lam_c)
    pd = poisson_rows(lam_d)
    return np.einsum("k,kn,km->nm", state.pmf(), pc, pd)


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
