"""Oracle suite: brute-force Fock expansion of the pmf and of both conditioning paths, sweeps."""

import cmath
import math

import numpy as np
import pytest

import dwsqueeze.pure_measure as pure_measure
import dwsqueeze.validation as validation
from dwsqueeze.master_eq import ModelParams, Sample, TimeGrid
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    ImpossibleOutcomeError,
    InteractionSetting,
    LightPair,
    _log_detection_amplitudes,
    detection_pmf_grid,
    outcome_cutoff,
)
from dwsqueeze.spin_core import GroundExcitedAmplitudes, build_spin_coherent
from dwsqueeze.validation import (
    OracleReport,
    fock_conditioning_report,
    fock_expansion_oracle,
    fock_oracle_report,
    normalization_sweep,
    stirling_regime_check,
)


def poisson(n, lam):
    return math.exp(-lam) * lam**n / math.factorial(n)


def small_state():
    return build_spin_coherent(
        GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 2
    )


def oracle_pmf(state, light, setting, cutoff):
    """The oracle's pmf, sum_k p_k |A(k)|^2, as fock_oracle_report forms it."""
    return np.abs(fock_expansion_oracle(state, light, setting, cutoff)) ** 2 @ state.pmf()


def test_report_consistency_enforced():
    # the verdict is derived from error and tolerance, so a report cannot
    # carry one that disagrees with them
    with pytest.raises(TypeError):
        OracleReport(name="x", max_abs_error=2.0, tolerance=1.0, passed=True)
    cases = [(0.5, True), (1.0, True), (2.0, False), (math.nan, False), (math.inf, False)]
    for err, passed in cases:
        assert OracleReport.make("x", err, 1.0).passed is passed
        assert OracleReport("x", err, 1.0).passed is passed


def test_fock_oracle_poisson_product_at_gt0():
    pmf = oracle_pmf(small_state(), LightPair(1.0, 1.0), InteractionSetting(1.0, 0.0), 8)
    for nc in range(9):
        for nd in range(9):
            assert pmf[nc, nd] == pytest.approx(
                poisson(nc, 1.0) * poisson(nd, 1.0), abs=1e-12
            )


@pytest.mark.parametrize("gt", [0.0, 0.3])
def test_fock_oracle_matches_detection_pmf(gt):
    report = fock_oracle_report(
        small_state(), LightPair(1.0, 1.0), InteractionSetting(1.0, gt), 12
    )
    assert report.passed
    assert report.max_abs_error < 1e-8


def test_fock_oracle_vacuum_light():
    pmf = oracle_pmf(small_state(), LightPair(0.0, 0.0), InteractionSetting(1.0, 0.7), 4)
    assert pmf[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_fock_oracle_preconditions():
    with pytest.raises(ValueError):
        fock_expansion_oracle(
            small_state(), LightPair(3.0, 3.0), InteractionSetting(1.0, 0.1), 8
        )
    with pytest.raises(ValueError):
        fock_expansion_oracle(
            small_state(), LightPair(1.0, 1.0), InteractionSetting(1.0, 0.1), 26
        )


# complex beams whose arms differ in magnitude and phase, and a dark arm
BEAMS = {
    "complex": LightPair(1.1 * cmath.exp(-0.7j), 1.6 * cmath.exp(0.5j)),
    "dark_arm": LightPair(0.0, 1.5 * cmath.exp(0.5j)),
}


@pytest.mark.parametrize("beams", BEAMS)
def test_oracle_amplitudes_match_the_detection_factor(beams):
    # the oracle's amplitude of every outcome, the vacuum (0, 0) among
    # them, is A(k), phase included, at gt > 0
    light, setting = BEAMS[beams], InteractionSetting(1.0, 0.23)
    state = build_spin_coherent(GroundExcitedAmplitudes(math.sqrt(0.4), math.sqrt(0.6)), 6)
    amp = fock_expansion_oracle(state, light, setting, 10)
    assert amp.shape == (11, 11, 7)
    for n_c in range(11):
        for n_d in range(11):
            outcome = DetectionOutcome(n_c, n_d)
            log_mag, phase = _log_detection_amplitudes(light, setting, outcome, 6)
            prod = np.exp(log_mag + 1j * phase)
            assert np.max(np.abs(amp[n_c, n_d] - prod)) <= 1e-13 * np.max(np.abs(prod))
    # the vacuum amplitude is e^{-(|alpha_l|^2 + |alpha_r|^2) / 2} at every k
    assert np.allclose(amp[0, 0], math.exp(-light.total_intensity / 2.0), rtol=1e-14, atol=0)


def test_crosscheck_published_example():
    ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
    report = fock_conditioning_report(
        build_spin_coherent(ge, 30), LightPair(2, 2), InteractionSetting(1.0, 0.1), 8
    )
    assert report.passed and report.max_abs_error < 1e-8
    assert report.context["outcomes"] > 0


def test_crosscheck_gt0_identity():
    # at gt = 0 every conditional state is the prior
    ge = GroundExcitedAmplitudes(0.0, 1.0)
    report = fock_conditioning_report(
        build_spin_coherent(ge, 10), LightPair(2, 2), InteractionSetting(1.0, 0.0), 8
    )
    assert report.passed


def test_crosscheck_exhaustive_small_instance():
    # every outcome of the detection grid whose probability exceeds 1e-8
    ge = GroundExcitedAmplitudes(math.sqrt(0.4), math.sqrt(0.6))
    light = LightPair(2.0, 2.0)
    state = build_spin_coherent(ge, 5)
    setting = InteractionSetting(1.0, 0.12)
    cutoff = outcome_cutoff(light)
    report = fock_conditioning_report(state, light, setting, cutoff)
    assert report.passed
    pmf = detection_pmf_grid(state, light, setting, n_max=cutoff)
    assert report.context["outcomes"] == np.count_nonzero(pmf > 1e-8)


def test_flipped_phase_fails_the_conditioning_rows_on_differing_beams(monkeypatch):
    # a sign error in arg A(k) leaves every pmf unchanged; on identical
    # real beams A(k) is real up to one global phase, so the conjugated
    # factor conditions to the same projectors, and only the rows on
    # beams that differ fail
    log_detection_amplitudes = pure_measure._log_detection_amplitudes

    def flipped(*args):
        log_mag, phase = log_detection_amplitudes(*args)
        return log_mag, -phase

    monkeypatch.setattr(pure_measure, "_log_detection_amplitudes", flipped)
    verdicts = {r.name: r.passed for r in validation.SUITES["fock"]()}
    assert verdicts == {
        "fock_expansion_vs_detection_pmf[gt=0]": True,
        "fock_expansion_vs_detection_pmf[gt=0.3]": True,
        "fock_expansion_vs_conditioning[N=2;gt=0;light=1:1]": True,
        "fock_expansion_vs_conditioning[N=2;gt=0.3;light=1:1]": True,
        "fock_expansion_vs_conditioning[N=2;gt=0.3;light=1:1.2e^0.5i]": False,
        "fock_expansion_vs_conditioning[N=30;gt=0.1;light=2:1.5e^0.5i]": False,
    }


def test_stirling_regime_check_passes_in_design_regime():
    report = stirling_regime_check(
        GroundExcitedAmplitudes(0.0, 1.0),
        200,
        LightPair(math.sqrt(20.0), math.sqrt(20.0)),
        InteractionSetting(1.0, 0.005),
    )
    assert report.passed
    assert report.context["amplitude_error"] < 0.02
    assert report.context["window_error"] < 0.05


def test_stirling_regime_check_requires_large_n():
    with pytest.raises(ValueError):
        stirling_regime_check(
            GroundExcitedAmplitudes(0.0, 1.0),
            50,
            LightPair(2.0, 2.0),
            InteractionSetting(1.0, 0.01),
        )


def test_normalization_sweep_default_all_pass():
    reports = normalization_sweep()
    assert reports
    assert all(r.passed for r in reports)


def test_normalization_sweep_fault_injection():
    params = ModelParams(
        n_atoms=10, omega=math.pi / 4, g=0.01, gamma=0.0, light=LightPair(2.0, 2.0)
    )
    state = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 10)
    grid = TimeGrid(t_max=100.0, dt=5.0, sample_stride=5)  # grossly unstable on purpose
    reports = {r.name: r for r in normalization_sweep([(params, state, grid)])}
    # integrate refuses the run before its first step; every report that
    # reads the trajectory fails and carries the refusal
    for name in ("trace_drift[N=10]", "hermiticity[N=10]", "q_normalization[N=10]"):
        assert not reports[name].passed
        assert "step bound" in reports[name].context["error"]


def test_normalization_sweep_nan_trajectory_fails(monkeypatch):
    # an overflowed trajectory ends in a nan sample after finite ones, or a
    # finite sample follows the nan one; the drift maxima, folded as the
    # samples arrive, must propagate the nan and fail, not report the finite part
    entries = validation._default_sweep_entries()[:1]  # N = 2
    for drifts in ((0.0, math.nan), (0.0, math.nan, 0.0)):

        def overflowed(params, rho0, grid, reduce, drifts=drifts):
            return [
                reduce(Sample(grid.t_max * i, rho0 if d == 0.0 else np.full_like(rho0, d), d, d))
                for i, d in enumerate(drifts)
            ]

        monkeypatch.setattr(validation, "integrate", overflowed)
        reports = {r.name: r for r in normalization_sweep(entries)}
        for name in ("trace_drift[N=2]", "hermiticity[N=2]"):
            assert math.isnan(reports[name].max_abs_error)
            assert not reports[name].passed
        assert reports["completeness[N=2]"].passed


def test_normalization_sweep_conditioning_failure(monkeypatch):
    # a good trajectory whose outcome conditioning refuses: the drift
    # reports are real and only the Q report fails, carrying the refusal
    def refuse(*args):
        raise ImpossibleOutcomeError("outcome has zero probability")

    monkeypatch.setattr(validation, "conditional_density", refuse)
    entries = validation._default_sweep_entries()[:1]  # N = 2
    reports = normalization_sweep(entries)
    assert [r.name for r in reports] == [
        f"{check}[N=2]"
        for check in ("completeness", "trace_drift", "hermiticity", "q_normalization")
    ]
    assert all(r.passed and "error" not in r.context for r in reports[:3])
    q = reports[3]
    assert q.max_abs_error == math.inf and not q.passed
    assert q.context == {"error": "outcome has zero probability"}


def test_normalization_sweep_undesigned_error_propagates(monkeypatch):
    # only the designed refusals become FAIL rows; a broken invariant such
    # as a detection probability above 1 is not swallowed
    def broken(*args):
        raise AssertionError("detection probability 1.5 exceeds 1")

    monkeypatch.setattr(validation, "conditional_density", broken)
    with pytest.raises(AssertionError):
        normalization_sweep(validation._default_sweep_entries()[:1])


def test_suites_take_no_arguments():
    for name, suite in validation.SUITES.items():
        reports = suite()
        assert reports and all(isinstance(r, OracleReport) for r in reports), name


def test_normalization_sweep_empty_is_success():
    assert normalization_sweep([]) == []


def test_oracle_independence_spot_check():
    # the oracle must agree with the production grid on a fresh instance
    # it has never been tuned against
    ge = GroundExcitedAmplitudes(math.sqrt(0.6), -1j * math.sqrt(0.4))
    state = build_spin_coherent(ge, 3)
    light = LightPair(0.9, 1.1j)
    setting = InteractionSetting(1.0, 0.21)
    oracle = oracle_pmf(state, light, setting, 10)
    prod = detection_pmf_grid(state, light, setting, n_max=10)
    assert np.max(np.abs(oracle - prod)) < 1e-10
