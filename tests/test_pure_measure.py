"""Zero-tunneling measurement model: ports, amplitudes, conditioning, asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsqueeze import pure_measure
from dwsqueeze.pure_measure import (
    AsymptoticsDomainError,
    DetectionOutcome,
    ImpossibleOutcomeError,
    InteractionSetting,
    LightPair,
    conditional_gaussian,
    conditional_state,
    detection_pmf_grid,
    gaussian_window,
    most_probable_outcome,
    outcome_cutoff,
    _reachable_factor,
    _log_detection_amplitudes,
    _poisson_rows,
    _port_amplitudes,
    _window_geometry,
)
from dwsqueeze.spin_core import (
    MAX_ATOMS,
    BlochAngles,
    GroundExcitedAmplitudes,
    bloch_to_ge,
    build_spin_coherent,
    ge_to_lr_amplitudes,
    _support_window,
)
from dwsqueeze.validation import fock_oracle_report

RT20 = math.sqrt(20.0)
GROUND = GroundExcitedAmplitudes(0.0, 1.0)


def poisson(n, lam):
    return math.exp(-lam) * lam**n / math.factorial(n)


def detection_probability(state, light, setting, outcome):
    """P(n_c, n_d) = sum_k |C_k|^2 |A(k)|^2 from the conditioning kernel."""
    return _reachable_factor(light, setting, outcome, state.pmf())[2]


def unshifted_probability(state, light, setting, outcome):
    """The same sum of the unrescaled |A(k)|^2, also below the kernel's floor."""
    log_mag, _ = _log_detection_amplitudes(light, setting, outcome, state.n_atoms)
    return float(np.sum(state.pmf() * np.exp(2.0 * log_mag)))


def approx_detection_probability(ge, n_atoms, light, setting, outcome):
    """Closed-form Gaussian approximation to P(n_c, n_d), an oracle for the tests.

    Product of Stirling-approximated Poissonians times the overlap of the
    detection window with the prior atom distribution.
    """
    nc, nd = outcome.n_c, outcome.n_d
    assert nc >= 1 and nd >= 1, "approximation requires n_c, n_d >= 1"
    eta_l, eta_r = ge_to_lr_amplitudes(ge)
    ee = abs(eta_l * eta_r) ** 2
    s_tot = light.total_intensity
    half_angle, kfac = _window_geometry(light, outcome)
    gt = setting.gt
    # X0, X0*x0 and X0*x0^2, with x0 = half_angle/gt and X0 = kfac*gt^2,
    # stay finite at gt = 0
    big_x0 = kfac * gt**2
    big_x0_x0 = kfac * gt * half_angle
    big_x0_x0sq = kfac * half_angle**2
    denom = 1.0 + n_atoms * ee * big_x0
    centroid = n_atoms * (abs(eta_l) ** 2 - abs(eta_r) ** 2) / 2.0
    # X0*(x0 - centroid)^2 expanded so the gt -> 0 limit stays finite
    quad = big_x0_x0sq - 2.0 * centroid * big_x0_x0 + centroid**2 * big_x0
    log_p = (
        -0.5 * np.log(4.0 * np.pi**2 * nc * nd * denom)
        + (nc + nd) * np.log(s_tot / (nc + nd))
        + (nc + nd - s_tot)
        - quad / (2.0 * denom)
    )
    return float(np.exp(log_p))


def test_port_amplitudes_gt0():
    light = LightPair(RT20, RT20)
    ac, ad = (a[0] for a in _port_amplitudes(light, InteractionSetting(1.0, 0.0), 200))
    assert ac == pytest.approx(RT20 * (1 + 1j))
    assert ad == pytest.approx(RT20 * (1j + 1))
    assert abs(ac / math.sqrt(2)) ** 2 == pytest.approx(20.0)


def test_port_amplitudes_center_index():
    light = LightPair(1.3, 0.4 - 0.2j)
    ac0, ad0 = _port_amplitudes(light, InteractionSetting(1.0, 0.0), 200)
    for gt in (0.0, 0.17, 1.1):
        ac, ad = _port_amplitudes(light, InteractionSetting(1.0, gt), 200)
        assert ac[100] == pytest.approx(ac0[100]) and ad[100] == pytest.approx(ad0[100])


def test_port_amplitudes_quarter_turn():
    light = LightPair(0.8, 0.5j)
    setting = InteractionSetting(g=math.pi / 2, t=1.0)  # gt*(k-N/2) = pi/2 at k=N
    ac = _port_amplitudes(light, setting, 2)[0][2]
    assert ac == pytest.approx(-(1j * light.alpha_l + light.alpha_r))


@settings(max_examples=40, deadline=None)
@given(
    re_l=st.floats(-3, 3), im_l=st.floats(-3, 3),
    re_r=st.floats(-3, 3), im_r=st.floats(-3, 3),
    gt=st.floats(0, 2), k=st.integers(0, 20),
)
def test_port_energy_conservation(re_l, im_l, re_r, im_r, gt, k):
    light = LightPair(complex(re_l, im_l), complex(re_r, im_r))
    ac, ad = (a[k] for a in _port_amplitudes(light, InteractionSetting(1.0, gt), 20))
    assert abs(ac) ** 2 + abs(ad) ** 2 == pytest.approx(
        2 * light.total_intensity, abs=1e-10
    )


def amplitude_at(light, setting, outcome, k, n_atoms):
    log_mag, phase = _log_detection_amplitudes(light, setting, outcome, n_atoms)
    return complex(np.exp(log_mag[k]) * np.exp(1j * phase[k]))


def test_detection_amplitude_balanced_mean():
    light = LightPair(RT20, RT20)
    a = amplitude_at(
        light, InteractionSetting(1.0, 0.0), DetectionOutcome(20, 20), 5, 200
    )
    expected = poisson(20, 20.0) ** 2
    assert abs(a) ** 2 == pytest.approx(expected, rel=1e-12)
    assert abs(a) ** 2 == pytest.approx(7.885e-3, rel=1e-3)


def test_detection_amplitude_vacuum_outcome():
    light = LightPair(1.2, 0.7j)
    vals = [
        amplitude_at(
            light, InteractionSetting(1.0, 0.0), DetectionOutcome(0, 0), k, 6
        )
        for k in range(7)
    ]
    assert all(abs(abs(v) ** 2 - math.exp(-light.total_intensity)) < 1e-14 for v in vals)


def test_detection_amplitude_k_independent_at_gt0():
    light = LightPair(1.5, 0.9)
    vals = [
        amplitude_at(
            light, InteractionSetting(1.0, 0.0), DetectionOutcome(2, 3), k, 10
        )
        for k in range(11)
    ]
    assert np.ptp(np.abs(vals)) < 1e-15


def test_detection_probability_poisson_product_at_gt0():
    state = build_spin_coherent(GROUND, 30)
    light = LightPair(2.0, 2.0)
    mean = light.total_intensity / 2
    for nc, nd in [(0, 0), (4, 4), (2, 7)]:
        p = detection_probability(
            state, light, InteractionSetting(1.0, 0.0), DetectionOutcome(nc, nd)
        )
        assert p == pytest.approx(poisson(nc, mean) * poisson(nd, mean), rel=1e-12)


def test_most_probable_outcome_examples():
    assert most_probable_outcome(LightPair(RT20, RT20)) == DetectionOutcome(20, 20)
    assert most_probable_outcome(LightPair(2.0, 2.0)) == DetectionOutcome(4, 4)
    assert most_probable_outcome(LightPair(0.0, 0.0)) == DetectionOutcome(0, 0)


def test_light_intensity_must_be_finite():
    # finite amplitudes whose |alpha|^2 overflows are refused, with no
    # OverflowError and no numpy warning; the largest finite intensity is kept
    for alpha_l, alpha_r in [(1e200, 0.0), (0.0, 1e200j), (1e154, 1e154), (1e308 + 1e308j, 0.0)]:
        with pytest.raises(ValueError, match="intensity"):
            LightPair(alpha_l, alpha_r)
    assert LightPair(1e153, 1e153j).total_intensity == 2e306


def test_grid_argmax_at_poisson_mean():
    state = build_spin_coherent(GROUND, 30)
    grid = detection_pmf_grid(state, LightPair(RT20, RT20), InteractionSetting(1, 0.0))
    assert np.unravel_index(np.argmax(grid), grid.shape) == (20, 20)


def einsum_pmf_grid(state, light, setting, n_max):
    """P(n_c, n_d) as the three-operand einsum over k: the GEMM's oracle."""
    alpha_c, alpha_d = _port_amplitudes(light, setting, state.n_atoms)
    pc = _poisson_rows(np.abs(alpha_c) ** 2 / 2.0, n_max)
    pd = _poisson_rows(np.abs(alpha_d) ** 2 / 2.0, n_max)
    return np.einsum("k,kn,km->nm", state.pmf(), pc, pd)


@pytest.mark.parametrize("gt", [0.0, 0.003, 0.03])
def test_detection_grid_matches_einsum(gt):
    state = build_spin_coherent(bloch_to_ge(BlochAngles(1.1, 0.4)), 200)
    light = LightPair(RT20, RT20 * np.exp(0.3j))
    setting = InteractionSetting(1.0, gt)
    grid = detection_pmf_grid(state, light, setting)
    oracle = einsum_pmf_grid(state, light, setting, grid.shape[0] - 1)
    assert np.all(np.abs(grid - oracle) <= 1e-14 * oracle)
    assert grid.sum() == pytest.approx(oracle.sum(), rel=1e-14, abs=0)


def test_detection_grid_dark_port():
    # alpha_r = i alpha_l at gt = 0 sends all light to port d: lambda_c(k) = 0
    # for every k, so P(n_c, n_d) is zero off n_c = 0 and Poissonian on it
    al = 1.5 - 0.5j
    light = LightPair(al, 1j * al)
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.8, 2.0)), 40)
    grid = detection_pmf_grid(state, light, InteractionSetting(1.0, 0.0), n_max=24)
    assert np.all(grid[1:] == 0.0)
    lam_d = 2 * abs(al) ** 2
    expected = [poisson(n, lam_d) for n in range(25)]
    assert np.allclose(grid[0], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("gt", [0.0, 0.001, 0.01])
@pytest.mark.parametrize("n_atoms", [30, 200])
def test_completeness(gt, n_atoms):
    state = build_spin_coherent(GROUND, n_atoms)
    light = LightPair(RT20, RT20)
    grid = detection_pmf_grid(state, light, InteractionSetting(1.0, gt))
    assert abs(grid.sum() - 1.0) < 1e-6


def full_k_pmf_grid(state, light, setting, n_max):
    """P(n_c, n_d) built over every k, as detection_pmf_grid did before its window."""
    alpha_c, alpha_d = _port_amplitudes(light, setting, state.n_atoms)
    pc = _poisson_rows(np.abs(alpha_c) ** 2 / 2.0, n_max)
    pd = _poisson_rows(np.abs(alpha_d) ** 2 / 2.0, n_max)
    pc *= state.pmf()[:, None]
    return pc.T @ pd


def grid_window_bound(state, full):
    """Per-cell bound on |windowed - full-k grid|, and the window.

    The k outside the window carry at most (N+1) eps^2 max p of mass, and
    every Poisson entry is at most 1; each side's sum of N+1 or fewer
    nonnegative products rounds by at most (N+2) u of the full sum.
    """
    n_atoms = state.n_atoms
    window = _support_window([state], n_atoms)
    p = state.pmf()
    eps = 2.0**-53 / (3.0 * (n_atoms + 1) ** 2)
    outside = np.ones(n_atoms + 1, dtype=bool)
    outside[window] = False
    assert p[outside].sum() <= (n_atoms + 1) * eps**2 * p.max()
    mass = (n_atoms + 1) * eps**2 * p.max()
    return mass + 2.0 * (n_atoms + 3) * 2.0**-53 * full, window


# (N, light amplitude, gt, Bloch angles): a pure_wide-like near-pole
# prior at N = 2000, and at N = 200 one near the x pole
GRID_WINDOWS = [(200, RT20, 0.03, (math.pi / 2, 0.3)), (2000, 10.0, 5e-4, (0.05, 3.9))]


@pytest.mark.parametrize("n_atoms,alpha,gt,angles", GRID_WINDOWS)
def test_detection_grid_window_matches_full_k(n_atoms, alpha, gt, angles):
    state = build_spin_coherent(bloch_to_ge(BlochAngles(*angles)), n_atoms)
    light, setting = LightPair(alpha, alpha), InteractionSetting(1.0, gt)
    grid = detection_pmf_grid(state, light, setting)
    full = full_k_pmf_grid(state, light, setting, grid.shape[0] - 1)
    bound, window = grid_window_bound(state, full)
    assert window.stop - window.start < n_atoms / 2
    assert np.all(np.abs(grid - full) <= bound)


def test_detection_grid_full_window_keeps_bits():
    # at N = 30 every k is in the window, so the grid is the full-k build
    state = build_spin_coherent(bloch_to_ge(BlochAngles(1.1, 0.4)), 30)
    assert _support_window([state], 30) == slice(0, 31)
    light, setting = LightPair(RT20, RT20 * np.exp(0.3j)), InteractionSetting(1.0, 0.02)
    grid = detection_pmf_grid(state, light, setting)
    assert grid.tobytes() == full_k_pmf_grid(state, light, setting, grid.shape[0] - 1).tobytes()


def test_detection_grid_window_dark_arms_and_vacuum():
    n_atoms = 2000
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.05, 3.9)), n_atoms)
    setting = InteractionSetting(1.0, 5e-4)
    # dark arms: every Poisson mean is 0, so only the vacuum cell holds the
    # prior's mass, the mass of the window
    grid = detection_pmf_grid(state, LightPair(0.0, 0.0), setting)
    full = full_k_pmf_grid(state, LightPair(0.0, 0.0), setting, grid.shape[0] - 1)
    bound, window = grid_window_bound(state, full)
    assert window.stop - window.start < n_atoms + 1
    assert grid.shape == (21, 21) and not grid.ravel()[1:].any()
    assert abs(grid[0, 0] - full[0, 0]) <= bound[0, 0]
    assert grid[0, 0] == pytest.approx(1.0, abs=1e-12)
    # the vacuum outcome with light: lambda_c(k) + lambda_d(k) is the total
    # intensity S for every k, so P(0, 0) = e^-S
    light = LightPair(10.0, 10.0)
    grid = detection_pmf_grid(state, light, setting)
    full = full_k_pmf_grid(state, light, setting, grid.shape[0] - 1)
    bound, _ = grid_window_bound(state, full)
    assert abs(grid[0, 0] - full[0, 0]) <= bound[0, 0]
    assert grid[0, 0] == pytest.approx(math.exp(-light.total_intensity), rel=1e-12)


def test_detection_grid_window_keeps_fock_oracle():
    # the Fock oracle on a prior whose window is partial (N = 40, near the
    # x pole); test_completeness covers partial windows at N = 200, and
    # test_validation the normalization sweep's completeness reports
    state = build_spin_coherent(bloch_to_ge(BlochAngles(math.pi / 2, 0.3)), 40)
    window = _support_window([state], 40)
    assert window.stop - window.start < 41
    report = fock_oracle_report(state, LightPair(1.0, 1.0), InteractionSetting(1.0, 0.2), 10)
    assert report.passed


def test_outcome_cutoff_floor():
    assert outcome_cutoff(LightPair(0.5, 0.5)) == 20
    assert outcome_cutoff(LightPair(RT20, RT20)) == math.ceil(20 + 10 * RT20)


def test_outcome_cutoff_refuses_a_grid_over_the_bound(monkeypatch):
    # MAX_CUTOFF = MAX_ATOMS keeps the detection grid at most MAX_ATOMS + 1
    # cells a side: a mean of 3000 photons per detector needs 3548, while
    # 3600 needs about 4200, refused before any Poisson table is formed
    def no_table(*args):
        raise AssertionError("a table was formed for refused light")

    monkeypatch.setattr(pure_measure, "_poisson_rows", no_table)
    assert pure_measure.MAX_CUTOFF == MAX_ATOMS
    mean = 3000.0
    cutoff = math.ceil(mean + 10 * math.sqrt(mean))
    assert outcome_cutoff(LightPair(math.sqrt(2 * mean), 0.0)) == cutoff <= MAX_ATOMS
    state = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 10)
    with pytest.raises(ValueError, match=f"exceeds {MAX_ATOMS}"):
        detection_pmf_grid(state, LightPair(math.sqrt(7200.0), 0.0), InteractionSetting(1.0, 0.1))


def test_conditional_state_neutral_at_gt0():
    ge = GroundExcitedAmplitudes(math.sqrt(0.2), math.sqrt(0.8))
    state = build_spin_coherent(ge, 25)
    light = LightPair(2.0, 2.0)
    for outcome in [DetectionOutcome(4, 4), DetectionOutcome(1, 6), DetectionOutcome(0, 2)]:
        cond = conditional_state(state, light, InteractionSetting(1.0, 0.0), outcome)
        fidelity = abs(np.vdot(state.amplitudes, cond.amplitudes))
        assert fidelity > 1 - 1e-12


def test_conditional_state_impossible_outcome():
    state = build_spin_coherent(GROUND, 10)
    with pytest.raises(ImpossibleOutcomeError):
        conditional_state(
            state,
            LightPair(2.0, 2.0),
            InteractionSetting(1.0, 0.01),
            DetectionOutcome(400, 400),
        )


def test_detection_probability_below_floor_does_not_raise():
    # A(k) itself is evaluated below the floor; only the kernel refuses it
    state = build_spin_coherent(GROUND, 10)
    args = (LightPair(2.0, 2.0), InteractionSetting(1.0, 0.01), DetectionOutcome(400, 400))
    p = unshifted_probability(state, *args)
    assert 0.0 <= p < 1e-280
    with pytest.raises(ImpossibleOutcomeError, match="impossible outcome"):
        _reachable_factor(*args, state.pmf())


def test_dark_light_with_counts_is_impossible():
    # A(k) = 0 for every k: P is exactly 0 and conditioning refuses the outcome
    state = build_spin_coherent(GROUND, 10)
    setting, outcome = InteractionSetting(1.0, 0.3), DetectionOutcome(1, 0)
    assert unshifted_probability(state, LightPair(0.0, 0.0), setting, outcome) == 0.0
    with pytest.raises(ImpossibleOutcomeError):
        conditional_state(state, LightPair(0.0, 0.0), setting, outcome)


def test_conditioning_factor_matches_unshifted_sum():
    state = build_spin_coherent(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 40)
    light, setting = LightPair(RT20, RT20), InteractionSetting(1.0, 0.02)
    outcome = DetectionOutcome(23, 17)
    log_mag, phase = _log_detection_amplitudes(light, setting, outcome, 40)
    mag, rot, p = _reachable_factor(light, setting, outcome, state.pmf())
    assert mag.max() == 1.0
    assert np.allclose(mag * rot, np.exp(log_mag - log_mag.max() + 1j * phase), atol=1e-15)
    assert p == pytest.approx(np.sum(state.pmf() * np.exp(2.0 * log_mag)), rel=1e-12)


def test_conditional_pmf_matches_gaussian_in_many_photon_regime():
    state = build_spin_coherent(GROUND, 200)
    light = LightPair(RT20, RT20)
    setting = InteractionSetting(1.0, 0.005)
    outcome = DetectionOutcome(20, 20)
    pmf = conditional_state(state, light, setting, outcome).pmf()
    *_, pdf = conditional_gaussian(GROUND, 200, light, setting, outcome)
    gauss = pdf(np.arange(201))
    assert np.max(np.abs(pmf - gauss)) < 0.05 * pmf.max()


def test_conditional_pmf_multimodal_at_large_gt():
    state = build_spin_coherent(GROUND, 200)
    light = LightPair(RT20, RT20)
    pmf = conditional_state(
        state, light, InteractionSetting(1.0, 1 / math.sqrt(200)), DetectionOutcome(20, 20)
    ).pmf()
    smooth = np.convolve(pmf, np.ones(3) / 3, mode="same")
    peaks = [
        i
        for i in range(1, len(smooth) - 1)
        if smooth[i] > smooth[i - 1] and smooth[i] > smooth[i + 1]
    ]
    assert len(peaks) >= 2


def test_conditional_pmf_symmetry():
    state = build_spin_coherent(GROUND, 40)
    pmf = conditional_state(
        state, LightPair(2.0, 2.0), InteractionSetting(1.0, 0.02), DetectionOutcome(4, 4)
    ).pmf()
    assert np.max(np.abs(pmf - pmf[::-1])) < 1e-9


def test_conditional_variance_monotone_in_gt():
    state = build_spin_coherent(GROUND, 200)
    light = LightPair(RT20, RT20)
    outcome = DetectionOutcome(20, 20)
    k = np.arange(201)
    prior_var = 200 * 0.25
    last = prior_var + 1e-9
    for gt in (0.0, 0.002, 0.005, 0.01, 0.2 / math.sqrt(200)):
        pmf = conditional_state(state, light, InteractionSetting(1.0, gt), outcome).pmf()
        var = float(pmf @ k**2 - (pmf @ k) ** 2)
        assert var <= prior_var + 1e-9
        assert var <= last + 1e-12
        last = var


def test_gaussian_window_balanced():
    x0, big_x0 = gaussian_window(
        LightPair(RT20, RT20), InteractionSetting(1.0, 0.005), DetectionOutcome(20, 20)
    )
    assert x0 == pytest.approx(0.0, abs=1e-12)
    assert big_x0 == pytest.approx(8 * 0.005**2 * 20, rel=1e-12)


def test_gaussian_window_phase_offset():
    phi = 0.3
    light = LightPair(2.0 * np.exp(1j * phi), 2.0)
    gt = 0.01
    x0, _ = gaussian_window(light, InteractionSetting(1.0, gt), DetectionOutcome(4, 4))
    assert x0 == pytest.approx(phi / (2 * gt), rel=1e-12)


def test_gaussian_window_domain_error():
    # (nc-nd)/(nc+nd) too large for the arm product: arcsin argument > 1
    with pytest.raises(AsymptoticsDomainError):
        gaussian_window(
            LightPair(2.0, 0.1), InteractionSetting(1.0, 0.01), DetectionOutcome(8, 0)
        )


@settings(max_examples=40, deadline=None)
@given(nc=st.integers(1, 40), nd=st.integers(1, 40))
def test_gaussian_window_nonnegative_width(nc, nd):
    light = LightPair(RT20, RT20)
    s_tot = light.total_intensity
    cross = 2 * abs(light.alpha_l * light.alpha_r)
    if abs((s_tot / cross) * (nc - nd) / (nc + nd)) > 1:
        return
    setting = InteractionSetting(1.0, 0.01)
    _, big_x0 = gaussian_window(light, setting, DetectionOutcome(nc, nd))
    assert big_x0 >= 0


def test_conditional_gaussian_published_width():
    sigma, _, _ = conditional_gaussian(
        GROUND,
        200,
        LightPair(RT20, RT20),
        InteractionSetting(1.0, 0.01),
        DetectionOutcome(20, 20),
    )
    assert sigma == pytest.approx(50 / 1.8, rel=1e-12)


def test_conditional_gaussian_gt0_is_prior():
    ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
    sigma, k0, _ = conditional_gaussian(
        ge, 100, LightPair(2, 2), InteractionSetting(1.0, 0.0), DetectionOutcome(4, 4)
    )
    el = abs((ge.alpha + ge.beta) / math.sqrt(2)) ** 2
    er = 1 - el
    assert sigma == pytest.approx(100 * el * er, rel=1e-12)
    assert k0 == pytest.approx(100 * el, rel=1e-12)


def test_conditional_gaussian_strong_measurement_centers():
    _, k0, _ = conditional_gaussian(
        GROUND,
        200,
        LightPair(RT20, RT20),
        InteractionSetting(1.0, 5.0),
        DetectionOutcome(20, 20),
    )
    assert k0 == pytest.approx(100.0, abs=0.1)


def test_approx_probability_gt0_stirling_product():
    light = LightPair(RT20, RT20)
    p = approx_detection_probability(
        GROUND, 200, light, InteractionSetting(1.0, 0.0), DetectionOutcome(20, 20)
    )
    s = light.total_intensity
    stirling = lambda n: (s / (2 * n)) ** n * math.exp(n - s / 2) / math.sqrt(
        2 * math.pi * n
    )
    assert p == pytest.approx(stirling(20) ** 2, rel=1e-10)


def test_approx_probability_balanced_beats_unbalanced():
    # at gt=0 the exact Poisson ties (19,20) with (20,20); the claim that
    # survives is that the balanced split maximizes at fixed photon total
    light = LightPair(RT20, RT20)
    setting = InteractionSetting(1.0, 0.0)
    center = approx_detection_probability(
        GROUND, 200, light, setting, DetectionOutcome(20, 20)
    )
    for gt in (0.0, 0.005):
        setting = InteractionSetting(1.0, gt)
        center = approx_detection_probability(
            GROUND, 200, light, setting, DetectionOutcome(20, 20)
        )
        for nc in (16, 18, 19, 21, 22, 24):
            assert (
                approx_detection_probability(
                    GROUND, 200, light, setting, DetectionOutcome(nc, 40 - nc)
                )
                < center
            )


def test_approx_probability_many_photon_regime_accuracy():
    state = build_spin_coherent(GROUND, 200)
    light = LightPair(RT20, RT20)
    setting = InteractionSetting(1.0, 0.005)
    outcome = DetectionOutcome(20, 20)
    exact = detection_probability(state, light, setting, outcome)
    approx = approx_detection_probability(GROUND, 200, light, setting, outcome)
    assert abs(approx - exact) / exact < 0.1
