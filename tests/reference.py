"""Reference quantities the tests compare the package against.

The dense spin operators and the closed-form precession of a spin
coherent state are independent of the package's banded moments and of
its integrators, and the dense conditioning, A(k) from its definition
in plain complex arithmetic, is independent of the log-domain readout;
rhs evaluates the production generator once, so the tests can check it
against closed forms and a rebuilt oracle.
"""

import math

import numpy as np

from dwsqueeze.master_eq import ModelParams, _Generator, _Stack, coherent_overlaps
from dwsqueeze.spin_core import GroundExcitedAmplitudes, SpinMoments


def rhs(params: ModelParams, rho: np.ndarray, t: float) -> np.ndarray:
    """Time derivative of rho_{kk'}, which must be Hermitian, at time t.

    The generator integrate caches and steps, evaluated once.
    """
    gen = _Generator([params])
    gen.set_overlap(np.array([coherent_overlaps(params, t)]))
    rho = _Stack(np.array(rho, dtype=complex)[:, None, :])
    return gen.apply(rho, _Stack(np.empty_like(rho.array))).array[:, 0]


def spin_operator_matrices(n_atoms: int):
    """Dense matrices (J_x, J_y, J_z) in the left/right Fock basis.

    J_x = diag(k - N/2); J_y and J_z couple neighboring k with ladder
    factor sqrt((k+1)(N-k))/2.  The triple satisfies the su(2) algebra
    [J_x, J_y] = iJ_z (cyclic) and the Casimir (N/2)(N/2 + 1).
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be nonnegative")
    k = np.arange(n_atoms + 1, dtype=float)
    jx = np.diag(k - n_atoms / 2.0).astype(complex)
    s = np.sqrt((k[:-1] + 1.0) * (n_atoms - k[:-1])) / 2.0
    jy = np.zeros_like(jx)
    jz = np.zeros_like(jx)
    idx = np.arange(n_atoms)
    jy[idx + 1, idx] = -1j * s
    jy[idx, idx + 1] = 1j * s
    # subdiagonal sign fixed by requiring [Jx, Jy] = iJz with Jx = diag(k - N/2)
    jz[idx + 1, idx] = -s
    jz[idx, idx + 1] = -s
    return jx, jy, jz


def rel_phase(ge: GroundExcitedAmplitudes) -> float:
    """Relative phase arg(alpha) - arg(beta)."""
    return float(np.angle(ge.alpha) - np.angle(ge.beta))


def analytic_precession(
    ge: GroundExcitedAmplitudes, n_atoms: int, omega: float, t: float
) -> SpinMoments:
    """Closed-form moments of a spin coherent state precessing at frequency omega.

    The transverse mean rotates as (cos, sin)(omega*t - rel_phase) with
    radius N|alpha*beta|; J_z and its variance are constants of motion.
    """
    ab = abs(ge.alpha * ge.beta)
    ph = omega * t - rel_phase(ge)
    n = float(n_atoms)
    return SpinMoments(
        jx_mean=n * ab * np.cos(ph),
        jy_mean=n * ab * np.sin(ph),
        jz_mean=n * (abs(ge.alpha) ** 2 - abs(ge.beta) ** 2) / 2.0,
        jx_var=n / 4.0 * (1.0 - 4.0 * ab**2 * np.cos(ph) ** 2),
        jy_var=n / 4.0 * (1.0 - 4.0 * ab**2 * np.sin(ph) ** 2),
        jz_var=n * ab**2,
    )


def detection_factor(light, gt: float, n_c: int, n_d: int, n_atoms: int) -> np.ndarray:
    """A(k) = e^{-(|a_l|^2+|a_r|^2)/2} u_c^{n_c} u_d^{n_d} / sqrt(n_c! n_d!), k = 0..N.

    u_c, u_d are the detector-port brackets of the recombining
    beamsplitter with arm phases -/+ gt (k - N/2), formed by complex
    powers; fine for the small counts the tests use.
    """
    x = gt * (np.arange(n_atoms + 1) - n_atoms / 2.0)
    a_l = light.alpha_l * np.exp(-1j * x)
    a_r = light.alpha_r * np.exp(1j * x)
    u_c = (a_l + 1j * a_r) / math.sqrt(2.0)
    u_d = (1j * a_l + a_r) / math.sqrt(2.0)
    norm = math.exp(-(abs(light.alpha_l) ** 2 + abs(light.alpha_r) ** 2) / 2.0)
    return norm * u_c**n_c * u_d**n_d / math.sqrt(math.factorial(n_c) * math.factorial(n_d))


def dense_conditioning(rho: np.ndarray, light, gt: float, n_c: int, n_d: int) -> np.ndarray:
    """D rho D^dagger / tr(D rho D^dagger), D = diag A(k): the conditioned density matrix."""
    d = np.diag(detection_factor(light, gt, n_c, n_d, len(rho) - 1))
    cond = d @ rho @ d.conj().T
    return cond / np.trace(cond).real
