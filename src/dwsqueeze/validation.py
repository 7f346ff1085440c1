"""Independent oracles for the measurement and the asymptotics, and invariant sweeps.

The brute-force Fock-expansion oracle is deliberately built from nothing
but coherent-state Fock coefficients and an explicit two-mode
beamsplitter unitary, so it shares no math with the production detection
path.  It is exponential in the photon cutoff and only meant for small
instances.  It returns the detection amplitude A(k) of every outcome and
every k, phase included, and the fock suite checks two things against
it: the production pmf, and the conditional states of both models (the
pure conditional state, and the master model's conditioned density
matrix at omega = gamma = 0).  Every production call is made in the
reports, none in the oracle.

SUITES is validate's one table of suites, in report order.  Every entry
has one shape: a function of no arguments that returns its reports.
normalization_sweep also takes a list of entries; the CLI calls it on
the configured model in the normalization slot.  A report's verdict is
derived from its error and its tolerance, a module constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .husimi import q_grid
from .master_eq import (
    HERM_TOL,
    TRACE_TOL,
    IntegrationError,
    ModelParams,
    TimeGrid,
    conditional_density,
    integrate,
)
from .pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    conditional_gaussian,
    conditional_state,
    detection_pmf_grid,
    gaussian_window,
    most_probable_outcome,
    _log_detection_amplitudes,
)
from .spin_core import (
    AtomState,
    GroundExcitedAmplitudes,
    build_spin_coherent,
    ge_to_lr_amplitudes,
)

ORACLE_MAX_INTENSITY = 4.0
ORACLE_MAX_CUTOFF = 25
ORACLE_TAIL_TOL = 1e-10
FOCK_TOL = 1e-8
STIRLING_TOL = 0.05
Q_NORM_TOL = 1e-3


class OracleInconclusiveError(RuntimeError):
    """Raised when an oracle cannot bound its own truncation error."""


@dataclass(frozen=True)
class OracleReport:
    name: str
    max_abs_error: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """max_abs_error <= tolerance, so a nan error fails."""
        return self.max_abs_error <= self.tolerance

    @classmethod
    def make(cls, name: str, max_abs_error: float, tolerance: float, **context):
        return cls(name, float(max_abs_error), float(tolerance), context)


def _bs_unitary_amp(nl: int, nr: int, nc: int, nd: int) -> complex:
    """<n_c, n_d|U|n_l, n_r> for a_l+ -> (a_c+ + i a_d+)/sqrt2, a_r+ -> (i a_c+ + a_d+)/sqrt2."""
    if nl + nr != nc + nd:
        return 0.0
    tot = 0j
    for p in range(nl + 1):
        q = nc - p
        if q < 0 or q > nr:
            continue
        tot += math.comb(nl, p) * math.comb(nr, q) * 1j ** (nl - p) * 1j**q
    f = math.factorial
    return tot * math.sqrt(f(nc) * f(nd) / (f(nl) * f(nr))) / 2 ** ((nl + nr) / 2)


def _coherent_fock(mu: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    mag = abs(mu)
    if mag == 0:
        c = np.zeros(cutoff + 1, dtype=complex)
        c[0] = 1.0
        return c
    # its own log n!, not spin_core.log_factorials, so the oracle stays independent
    log_n_factorial = np.array([math.lgamma(m + 1) for m in range(cutoff + 1)])
    log_mag = -(mag**2) / 2.0 + n * math.log(mag) - 0.5 * log_n_factorial
    return np.exp(log_mag) * np.exp(1j * n * np.angle(mu))


def fock_expansion_oracle(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    outcome_cutoff: int,
) -> np.ndarray:
    """Detection amplitudes <n_c, n_d|U|mu_l(k), mu_r(k)> by brute force, as (n_c, n_d, k).

    For each k = 0..N, each arm's coherent state, dressed by the
    k-dependent phase (mu_l = alpha_l e^{-i gt (k - N/2)}, mu_r = alpha_r
    e^{+i gt (k - N/2)}), is expanded in the photon Fock basis, pushed
    through the beamsplitter unitary and projected on |n_c, n_d> for
    0 <= n_c, n_d <= outcome_cutoff.  Photon number is conserved, so only
    n_l + n_r = n_c + n_d terms contribute, and the Fock cutoff of at
    least 2 outcome_cutoff holds every one of them.  The amplitude is the
    detection factor A(k), phase included: the pmf is
    sum_k p_k |A(k)|^2, and the conditional state of an outcome is
    C_k A(k), renormalized.
    """
    mean = max(abs(light.alpha_l) ** 2, abs(light.alpha_r) ** 2)
    if mean > ORACLE_MAX_INTENSITY:
        raise ValueError(f"oracle limited to arm intensities <= {ORACLE_MAX_INTENSITY}")
    if outcome_cutoff > ORACLE_MAX_CUTOFF:
        raise ValueError(f"oracle limited to outcome cutoff <= {ORACLE_MAX_CUTOFF}")
    n_atoms = state.n_atoms
    fock_cutoff = max(
        2 * outcome_cutoff, int(math.ceil(mean + 12.0 * math.sqrt(max(mean, 1.0))))
    )
    phase = setting.gt * (np.arange(n_atoms + 1) - n_atoms / 2.0)
    cl = np.array([_coherent_fock(light.alpha_l * np.exp(-1j * x), fock_cutoff) for x in phase])
    cr = np.array([_coherent_fock(light.alpha_r * np.exp(1j * x), fock_cutoff) for x in phase])
    tail = np.max(2.0 - np.sum(np.abs(cl) ** 2, axis=1) - np.sum(np.abs(cr) ** 2, axis=1))
    if tail > ORACLE_TAIL_TOL:
        raise OracleInconclusiveError(f"Fock cutoff {fock_cutoff} leaves tail mass {tail:.2e}")
    amp = np.zeros((outcome_cutoff + 1, outcome_cutoff + 1, n_atoms + 1), dtype=complex)
    for n_c in range(outcome_cutoff + 1):
        for n_d in range(outcome_cutoff + 1):
            for n_l in range(n_c + n_d + 1):
                n_r = n_c + n_d - n_l
                amp[n_c, n_d] += cl[:, n_l] * cr[:, n_r] * _bs_unitary_amp(n_l, n_r, n_c, n_d)
    return amp


def fock_oracle_report(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    outcome_cutoff: int,
) -> OracleReport:
    """Compare the brute-force pmf, sum_k p_k |A(k)|^2, against the production detection pmf."""
    amp = fock_expansion_oracle(state, light, setting, outcome_cutoff)
    prod = detection_pmf_grid(state, light, setting, n_max=outcome_cutoff)
    err = float(np.max(np.abs(np.abs(amp) ** 2 @ state.pmf() - prod)))
    return OracleReport.make(
        f"fock_expansion_vs_detection_pmf[gt={setting.gt:g}]",
        err,
        FOCK_TOL,
        n_atoms=state.n_atoms,
        gt=setting.gt,
        outcome_cutoff=outcome_cutoff,
    )


def _polar(z: complex) -> str:
    return f"{abs(z):g}" + (f"e^{np.angle(z):g}i" if np.angle(z) else "")


def fock_conditioning_report(
    state: AtomState,
    light: LightPair,
    setting: InteractionSetting,
    outcome_cutoff: int,
) -> OracleReport:
    """Compare both conditioning paths against the oracle's conditional states.

    On every outcome up to outcome_cutoff whose oracle probability P
    exceeds FOCK_TOL, the oracle's state is C_k A(k) / sqrt(P).  Two
    production projectors must match its projector elementwise:
    conditional_state's, and conditional_density's rho at omega = gamma = 0
    from rho0 = C C^dagger.  The hybrid generator vanishes there, so
    rho0 is the readout-time matrix, and the coupling g and the readout
    time t enter through the setting.  Projectors do not depend on the
    global phase.  With identical beams, A(k) is real up to one global
    phase, so a flipped sign of arg A(k) changes no projector there; it
    shows on beams that differ.
    """
    amp = fock_expansion_oracle(state, light, setting, outcome_cutoff) * state.amplitudes
    p = np.sum(np.abs(amp) ** 2, axis=-1)
    params = ModelParams(state.n_atoms, omega=0.0, g=setting.g, gamma=0.0, light=light)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    errors = [0.0]
    for n_c, n_d in zip(*np.nonzero(p > FOCK_TOL)):
        target = amp[n_c, n_d] / math.sqrt(p[n_c, n_d])
        outcome = DetectionOutcome(int(n_c), int(n_d))
        pure = conditional_state(state, light, setting, outcome).amplitudes
        both = [np.outer(pure, pure.conj()), conditional_density(params, rho0, setting.t, outcome)]
        errors.append(np.max(np.abs(np.array(both) - np.outer(target, target.conj()))))
    beams = f"{_polar(light.alpha_l)}:{_polar(light.alpha_r)}"
    name = f"fock_expansion_vs_conditioning[N={state.n_atoms};gt={setting.gt:g};light={beams}]"
    # np.max, not max, so that a nan error fails the report
    return OracleReport.make(name, np.max(errors), FOCK_TOL, outcomes=len(errors) - 1)


def stirling_regime_check(
    ge: GroundExcitedAmplitudes,
    n_atoms: int,
    light: LightPair,
    setting: InteractionSetting,
) -> OracleReport:
    """Relative error of the Gaussian asymptotics in their central windows.

    Checks |C_k| against the Stirling Gaussian of the prior over +-3 prior
    sigma, and |A(k)| against the Gaussian detection window over +-3 sigma
    of the conditional posterior (the region the measurement actually
    weights), at the most probable outcome.
    """
    if n_atoms < 100:
        raise ValueError("asymptotic check requires n_atoms >= 100")
    outcome = most_probable_outcome(light)
    k = np.arange(n_atoms + 1)

    eta_l, eta_r = ge_to_lr_amplitudes(ge)
    var_prior = n_atoms * abs(eta_l) ** 2 * abs(eta_r) ** 2
    peak_prior = n_atoms * abs(eta_l) ** 2
    exact_c = np.abs(build_spin_coherent(ge, n_atoms).amplitudes)
    approx_c = (2.0 * np.pi * var_prior) ** -0.25 * np.exp(
        -((k - peak_prior) ** 2) / (4.0 * var_prior)
    )
    win_c = np.abs(k - peak_prior) <= 3.0 * np.sqrt(var_prior)
    err_c = float(np.max(np.abs(exact_c[win_c] - approx_c[win_c]) / approx_c[win_c]))

    x0, big_x0 = gaussian_window(light, setting, outcome)
    nc, nd = outcome.n_c, outcome.n_d
    s_tot = light.total_intensity
    log_mag, _ = _log_detection_amplitudes(light, setting, outcome, n_atoms)
    exact_a = np.exp(log_mag)
    approx_a = (
        (s_tot / (nc + nd)) ** ((nc + nd) / 2.0)
        * np.exp((nc + nd - s_tot) / 2.0)
        * (4.0 * np.pi**2 * nc * nd) ** -0.25
        * np.exp(-big_x0 / 4.0 * (k - n_atoms / 2.0 - x0) ** 2)
    )
    sigma, _, _ = conditional_gaussian(ge, n_atoms, light, setting, outcome)
    center_a = n_atoms / 2.0 + x0
    sigma_a = math.sqrt(sigma)
    win_a = np.abs(k - center_a) <= 3.0 * sigma_a
    err_a = float(np.max(np.abs(exact_a[win_a] - approx_a[win_a]) / approx_a[win_a]))

    return OracleReport.make(
        "stirling_asymptotics",
        max(err_c, err_a),
        STIRLING_TOL,
        amplitude_error=err_c,
        window_error=err_a,
        n_atoms=n_atoms,
        gt=setting.gt,
        outcome=(nc, nd),
    )


def _default_sweep_entries() -> list[tuple[ModelParams, AtomState, TimeGrid]]:
    omega = math.pi / 4.0
    ge = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
    grid = TimeGrid(8.0 / omega, 0.02, 20)
    entries = []
    for n in (2, 5, 30):
        g = 0.1 * omega / n
        params = ModelParams(n, omega, g, 0.1 * g, LightPair(2.0, 2.0))
        entries.append((params, build_spin_coherent(ge, n), grid))
    return entries


# the reports that read an entry's trajectory, in report order
_TRAJECTORY_CHECKS = (
    ("trace_drift", TRACE_TOL), ("hermiticity", HERM_TOL), ("q_normalization", Q_NORM_TOL)
)


def normalization_sweep(
    entries: list[tuple[ModelParams, AtomState, TimeGrid]] | None = None,
) -> list[OracleReport]:
    """Completeness, trace, Hermiticity and Q-normalization over a parameter matrix.

    Each entry is a model, its initial state and its time grid; defaults
    cover N in {2, 5, 30} with tunneling/coupling values at the squeezing
    operating point.  Completeness is checked at gt = g * t_max.  The
    start is passed to integrate as a density matrix, so every entry
    deliberately runs the rho-RK4 path, also at gamma = 0, and its trace
    and Hermiticity drifts are the ones reported; the drift maxima are
    folded as the samples arrive, propagate nan, and only the last sample
    is held.  An IntegrationError or ValueError on the way (integrate
    refusing an unstable dt, conditioning refusing an unreachable
    outcome, q_grid refusing its result) fails every report of the entry
    not yet made, with the error text in its context.
    """
    if entries is None:
        entries = _default_sweep_entries()
    reports: list[OracleReport] = []
    for params, state, grid in entries:
        tag = f"N={params.n_atoms}"
        setting = InteractionSetting(params.g, grid.t_max)
        grid_pmf = detection_pmf_grid(state, params.light, setting)
        reports.append(
            OracleReport.make(
                f"completeness[{tag}]",
                abs(1.0 - float(grid_pmf.sum())),
                1e-6,
                gt=setting.gt,
            )
        )

        rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
        made = len(reports)
        # the drift maxima (np.maximum propagates nan) and the last sample
        drifts, kept = [-math.inf, -math.inf], [None]

        def fold(s):
            drifts[:] = np.maximum(drifts[0], s.trace_err), np.maximum(drifts[1], s.herm_err)
            kept[0] = s

        try:
            integrate(params, rho0, grid, fold)
            for (name, tol), d in zip(_TRAJECTORY_CHECKS, drifts):
                reports.append(OracleReport.make(f"{name}[{tag}]", d, tol, dt=grid.dt))
            last = kept[0]
            cond = conditional_density(
                params, last.state, last.t, most_probable_outcome(params.light)
            )
            q_err = abs(1.0 - q_grid(cond, 128, 128).quadrature_sum())
            reports.append(
                OracleReport.make(f"q_normalization[{tag}]", q_err, Q_NORM_TOL, grid=(128, 128))
            )
        except (IntegrationError, ValueError) as exc:
            reports.extend(
                OracleReport.make(f"{name}[{tag}]", math.inf, tol, error=str(exc))
                for name, tol in _TRAJECTORY_CHECKS[len(reports) - made :]
            )
    return reports


_SUITE_GE = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))


def _fock_suite() -> list[OracleReport]:
    n2, n30 = (build_spin_coherent(_SUITE_GE, n) for n in (2, 30))
    # (state, light, setting, outcome cutoff); A(k) is real up to one global
    # phase on identical beams, so a phase error shows on the last two only
    instances = [
        (n2, LightPair(1.0, 1.0), InteractionSetting(1.0, 0.0), 12),
        (n2, LightPair(1.0, 1.0), InteractionSetting(1.0, 0.3), 12),
        (n2, LightPair(1.0, 1.2 * np.exp(0.5j)), InteractionSetting(1.0, 0.3), 12),
        (n30, LightPair(2.0, 1.5 * np.exp(0.5j)), InteractionSetting(1.0, 0.1), 8),
    ]
    pmf = [fock_oracle_report(*i) for i in instances[:2]]
    return pmf + [fock_conditioning_report(*i) for i in instances]


def _stirling_suite() -> list[OracleReport]:
    ge, light = GroundExcitedAmplitudes(0.0, 1.0), LightPair(math.sqrt(20.0), math.sqrt(20.0))
    return [stirling_regime_check(ge, 200, light, InteractionSetting(1.0, 0.005))]


# validate's suites in report order, each a function of no arguments
SUITES = {
    "normalization": normalization_sweep,
    "fock": _fock_suite,
    "stirling": _stirling_suite,
}
