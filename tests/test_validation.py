"""Oracle suite: brute-force Fock expansion, cross-model checks, sweeps."""

import math

import numpy as np
import pytest

import dwsqueeze.validation as validation
from dwsqueeze.master_eq import ModelParams, Sample, TimeGrid
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    ImpossibleOutcomeError,
    InteractionSetting,
    LightPair,
    _reachable_factor,
    detection_pmf_grid,
    outcome_cutoff,
)
from dwsqueeze.spin_core import GroundExcitedAmplitudes, build_spin_coherent
from dwsqueeze.validation import (
    OracleReport,
    fock_expansion_oracle,
    fock_oracle_report,
    me_vs_pure_crosscheck,
    normalization_sweep,
    stirling_regime_check,
)


def poisson(n, lam):
    return math.exp(-lam) * lam**n / math.factorial(n)


def small_state():
    return build_spin_coherent(
        GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 2
    )


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
    pmf = fock_expansion_oracle(
        small_state(), LightPair(1.0, 1.0), InteractionSetting(1.0, 0.0), 8
    )
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
    pmf = fock_expansion_oracle(
        small_state(), LightPair(0.0, 0.0), InteractionSetting(1.0, 0.7), 4
    )
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


def test_crosscheck_published_example():
    ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
    params = ModelParams(n_atoms=30, omega=0.0, g=1.0, gamma=0.0, light=LightPair(2, 2))
    report = me_vs_pure_crosscheck(
        params, build_spin_coherent(ge, 30), DetectionOutcome(4, 4), t=0.1
    )
    assert report.passed and report.max_abs_error < 1e-8


def test_crosscheck_gt0_identity():
    ge = GroundExcitedAmplitudes(0.0, 1.0)
    params = ModelParams(n_atoms=10, omega=0.0, g=1.0, gamma=0.0, light=LightPair(2, 2))
    report = me_vs_pure_crosscheck(
        params, build_spin_coherent(ge, 10), DetectionOutcome(4, 4), t=0.0
    )
    assert report.passed


def test_crosscheck_exhaustive_small_instance():
    ge = GroundExcitedAmplitudes(math.sqrt(0.4), math.sqrt(0.6))
    light = LightPair(2.0, 2.0)
    params = ModelParams(n_atoms=5, omega=0.0, g=1.0, gamma=0.0, light=light)
    state = build_spin_coherent(ge, 5)
    t = 0.12
    cutoff = outcome_cutoff(light)
    for nc in range(cutoff + 1):
        for nd in range(cutoff + 1):
            outcome = DetectionOutcome(nc, nd)
            p = _reachable_factor(
                light, InteractionSetting(1.0, t), outcome, state.pmf()
            )[2]
            if p <= 1e-8:
                continue
            assert me_vs_pure_crosscheck(params, state, outcome, t=t).passed


def test_crosscheck_requires_closed_dynamics():
    ge = GroundExcitedAmplitudes(0.0, 1.0)
    params = ModelParams(n_atoms=4, omega=0.5, g=1.0, gamma=0.0, light=LightPair(1, 1))
    with pytest.raises(ValueError):
        me_vs_pure_crosscheck(params, build_spin_coherent(ge, 4), DetectionOutcome(1, 1), 0.1)


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
    oracle = fock_expansion_oracle(state, light, setting, 10)
    prod = detection_pmf_grid(state, light, setting, n_max=10)
    assert np.max(np.abs(oracle - prod)) < 1e-10
