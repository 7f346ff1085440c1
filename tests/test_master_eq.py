"""Hybrid master equation: generator, integration, detection, conditioning."""

import math

import numpy as np
import pytest

from dwsqueeze import master_eq
from dwsqueeze.master_eq import (
    HybridState,
    IntegrationError,
    ModelParams,
    PureSample,
    TimeGrid,
    coherent_overlaps,
    conditional_density,
    integrate,
    rhs,
)
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    ImpossibleOutcomeError,
    LightPair,
    conditional_state,
    detection_pmf_grid,
    InteractionSetting,
    port_amplitudes,
    _conditioning_factor,
)
from dwsqueeze.spin_core import (
    AtomState,
    BlochAngles,
    GroundExcitedAmplitudes,
    analytic_precession,
    bloch_to_ge,
    build_spin_coherent,
    moments_from_density,
    spin_operator_matrices,
)

TILTED = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))


def make_params(n=30, omega=0.0, g=0.0, gamma=0.0, light=None):
    return ModelParams(
        n_atoms=n,
        omega=omega,
        g=g,
        gamma=gamma,
        light=light or LightPair(2.0, 2.0),
    )


def coherent_rho(ge, n):
    amp = build_spin_coherent(ge, n).amplitudes
    return np.outer(amp, amp.conj())


def random_density(n, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_light_amplitudes_examples():
    # the readout sees the arms dressed by the atoms, a_l e^{-i phi} and
    # a_r e^{+i phi} with phi = gt(k - N/2), through the beamsplitter:
    # port_amplitudes(k) = (a_l + i a_r, i a_l + a_r) of the dressed pair
    light, n, g = LightPair(1.5, 0.7j), 4, 0.3
    k = np.arange(n + 1)
    t_flip = math.pi / (g * (2 * 4 - 4) / 2)  # phi = pi at k = 4
    for t in (0.0, 5.0, t_flip, 2.37):
        phi = g * t * (k - n / 2)
        a_l = light.alpha_l * np.exp(-1j * phi)
        a_r = light.alpha_r * np.exp(1j * phi)
        ac, ad = port_amplitudes(light, InteractionSetting(g, t), k, n)
        assert np.max(np.abs(ac - (a_l + 1j * a_r))) < 1e-12
        assert np.max(np.abs(ad - (1j * a_l + a_r))) < 1e-12
    # no dressing at t = 0 or at k = N/2, a sign flip at phi = pi
    bare_c, bare_d = 1.5 + 1j * 0.7j, 1j * 1.5 + 0.7j
    for t, kk, sign in ((0.0, 1, 1.0), (5.0, 2, 1.0), (t_flip, 4, -1.0)):
        ac, ad = port_amplitudes(light, InteractionSetting(g, t), kk, n)
        assert ac == pytest.approx(sign * bare_c, abs=1e-12)
        assert ad == pytest.approx(sign * bare_d, abs=1e-12)


def test_light_amplitudes_magnitude_preserved():
    # inverting the beamsplitter, a_l = (alpha_c - i alpha_d)/2 and
    # a_r = (alpha_d - i alpha_c)/2 keep the bare arm magnitudes for every k
    light = LightPair(1.1 + 0.3j, 0.4 - 0.9j)
    k = np.arange(11)
    ac, ad = port_amplitudes(light, InteractionSetting(0.7, 2.37), k, 10)
    assert np.allclose(np.abs(ac - 1j * ad) / 2, abs(1.1 + 0.3j))
    assert np.allclose(np.abs(ad - 1j * ac) / 2, abs(0.4 - 0.9j))


def test_coherent_overlaps_examples():
    params = make_params(g=1.0, light=LightPair(2.0, 2.0))
    assert coherent_overlaps(params, 0.0) == pytest.approx(1.0)
    ov = coherent_overlaps(params, math.pi)
    assert ov == pytest.approx(math.exp(-16.0), rel=1e-10)


def test_coherent_overlaps_modulus():
    params = make_params(g=1.0, light=LightPair(1.2, 0.8j))
    s_tot = params.light.total_intensity
    for gt in (0.1, 0.9, 2.5):
        ovp = coherent_overlaps(params, gt)
        expected = math.exp(-s_tot * (1 - math.cos(gt)))
        assert abs(ovp) == pytest.approx(expected, rel=1e-12)
        assert abs(ovp) <= 1.0


def test_rhs_reduces_to_jz_commutator():
    n, omega = 12, 0.8
    params = make_params(n=n, omega=omega, g=0.0)
    rho = random_density(n)
    _, _, jz = spin_operator_matrices(n)
    expected = -1j * omega * (jz @ rho - rho @ jz)
    assert np.max(np.abs(rhs(params, rho, 1.3) - expected)) < 1e-12


def test_rhs_frozen_without_tunneling():
    params = make_params(n=8, omega=0.0, g=0.5, gamma=0.0)
    rho = random_density(8)
    assert np.max(np.abs(rhs(params, rho, 0.4))) == 0.0


def test_rhs_trace_free_lindblad():
    params = make_params(n=10, omega=0.6, g=0.2, gamma=0.05)
    rho = random_density(10)
    assert abs(np.trace(rhs(params, rho, 0.9))) < 1e-12


def test_lindblad_dephasing_closed_form():
    n = 10
    gamma = 0.08
    params = make_params(n=n, omega=0.0, g=0.0, gamma=gamma)
    rho0 = coherent_rho(GroundExcitedAmplitudes(math.sqrt(0.4), math.sqrt(0.6)), n)
    samples = integrate(params, rho0, TimeGrid(t_max=2.0, dt=0.002, sample_stride=500))
    m = np.arange(n + 1)
    decay = np.exp(-gamma * (m[:, None] - m[None, :]) ** 2 * samples[-1].t / 2)
    assert np.max(np.abs(samples[-1].rho - rho0 * decay)) < 1e-9


def test_dephasing_contraction_and_constant_diagonal():
    n = 8
    params = make_params(n=n, omega=0.0, g=0.0, gamma=0.2)
    rho0 = coherent_rho(GroundExcitedAmplitudes(math.sqrt(0.5), math.sqrt(0.5)), n)
    samples = integrate(params, rho0, TimeGrid(t_max=1.0, dt=0.002, sample_stride=100))
    off = [np.abs(s.rho - np.diag(np.diag(s.rho))) for s in samples]
    for a, b in zip(off, off[1:]):
        assert np.all(b <= a + 1e-12)
    for s in samples:
        assert np.max(np.abs(np.diag(s.rho) - np.diag(rho0))) < 1e-12


def test_integrate_precession_against_analytic():
    omega = math.pi / 4
    params = make_params(n=30, omega=omega)
    rho0 = coherent_rho(TILTED, 30)
    t_max = 20.0 / omega
    samples = integrate(params, rho0, TimeGrid(t_max, 0.01, sample_stride=200))
    for s in samples:
        ref = analytic_precession(TILTED, 30, omega, s.t)
        got = moments_from_density(s.rho)
        for field in ("jx_mean", "jy_mean", "jz_mean", "jx_var", "jy_var", "jz_var"):
            r, g_ = getattr(ref, field), getattr(got, field)
            assert abs(g_ - r) <= 1e-6 * max(abs(r), 1.0)
        assert s.trace_error() < 1e-8


def test_integrate_fourth_order_convergence():
    params = make_params(n=10, omega=0.9, g=0.05, gamma=0.01, light=LightPair(1.5, 1.5))
    rho0 = coherent_rho(GroundExcitedAmplitudes(math.sqrt(0.2), math.sqrt(0.8)), 10)
    coarse = integrate(params, rho0, TimeGrid(2.0, 0.02, sample_stride=100))[-1]
    fine = integrate(params, rho0, TimeGrid(2.0, 0.01, sample_stride=200))[-1]
    mc, mf = moments_from_density(coarse.rho), moments_from_density(fine.rho)
    for field in ("jx_mean", "jy_mean", "jz_mean"):
        assert abs(getattr(mc, field) - getattr(mf, field)) < 1e-8


def test_integrate_lands_on_t_max():
    params = make_params(n=4, omega=0.1)
    rho0 = coherent_rho(GroundExcitedAmplitudes(0.0, 1.0), 4)
    # dt does not divide t_max; the step count is rounded and dt adjusted
    samples = integrate(params, rho0, TimeGrid(t_max=1.0, dt=0.3, sample_stride=1))
    assert samples[-1].t == pytest.approx(1.0, abs=1e-15)


def test_integrate_step_bound_enforced():
    params = make_params(n=30, omega=0.0, g=0.0, gamma=0.01)  # gamma*N^2 = 9
    rho0 = coherent_rho(GroundExcitedAmplitudes(0.0, 1.0), 30)
    with pytest.raises(ValueError):
        integrate(params, rho0, TimeGrid(t_max=1.0, dt=0.1, sample_stride=1))


def test_integrate_invariants_along_trajectory():
    omega = math.pi / 4
    params = make_params(
        n=20, omega=omega, g=0.1 * omega / 20, gamma=0.001, light=LightPair(2, 2)
    )
    rho0 = coherent_rho(TILTED, 20)
    samples = integrate(params, rho0, TimeGrid(10.0, 0.01, sample_stride=100))
    for s in samples:
        assert s.herm_error() < 1e-9
        assert s.trace_error() < 1e-8
        d = np.diag(s.rho).real
        assert d.min() > -1e-10 and d.max() < 1 + 1e-10


def test_boundary_safety_smallest_system():
    params = make_params(n=1, omega=0.5, g=0.3, gamma=0.02, light=LightPair(1, 1))
    rho0 = coherent_rho(GroundExcitedAmplitudes(0.0, 1.0), 1)
    samples = integrate(params, rho0, TimeGrid(1.0, 0.01, sample_stride=10))
    assert all(np.all(np.isfinite(s.rho)) for s in samples)


def oracle_rhs(params, rho, t):
    """The generator rebuilt in full at every call: the reference for the cached one."""
    n = params.n_atoms
    om = params.omega
    k = np.arange(n, dtype=float)
    s = np.sqrt((k + 1.0) * (n - k)) / 2.0
    il, ir = abs(params.light.alpha_l) ** 2, abs(params.light.alpha_r) ** 2
    gt = params.g * t
    ov_plus = np.exp(-(il + ir)) * np.exp(il * np.exp(-1j * gt)) * np.exp(ir * np.exp(1j * gt))
    ov_minus = ov_plus.conjugate()
    d = np.zeros_like(rho)
    d[1:, :] += 1j * om * s[:, None] * ov_minus * rho[:-1, :]
    d[:-1, :] += 1j * om * s[:, None] * ov_plus * rho[1:, :]
    d[:, 1:] -= 1j * om * s[None, :] * ov_plus * rho[:, :-1]
    d[:, :-1] -= 1j * om * s[None, :] * ov_minus * rho[:, 1:]
    m = np.arange(n + 1, dtype=float)
    d -= 0.5 * params.gamma * (m[:, None] - m[None, :]) ** 2 * rho
    return d


def oracle_integrate(params, rho0, grid):
    """(t, rho) samples of textbook RK4 on oracle_rhs, on integrate's time grid."""
    n_steps = max(1, int(round(grid.t_max / grid.dt)))
    dt = grid.t_max / n_steps
    rho = np.asarray(rho0, dtype=complex)
    samples = [(0.0, rho)]
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        k1 = oracle_rhs(params, rho, t)
        k2 = oracle_rhs(params, rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = oracle_rhs(params, rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = oracle_rhs(params, rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % grid.sample_stride == 0 or step == n_steps:
            samples.append((step * dt, rho))
    return samples


def assert_matches_oracle(params, rho0, grid, samples):
    ref = oracle_integrate(params, rho0, grid)
    assert [s.t for s in samples] == [t for t, _ in ref]
    for s, (_, rho) in zip(samples, ref):
        assert np.max(np.abs(s.rho - rho)) <= 1e-13


# tunneling, a light overlap that turns by gt = 0.4 over a 250-step run, and
# dephasing; g N dt = 0.048 keeps N = 30 inside the step bound
def dephasing_params(n):
    return make_params(n=n, omega=math.pi / 4, g=0.08, gamma=0.001, light=LightPair(1.2, 0.7j))


@pytest.mark.parametrize("n", [1, 2, 30])
def test_integrate_matches_rebuilt_generator(n):
    # the cached generator and stage buffers change no step: 250 steps
    # from a generic density matrix against the generator rebuilt per call
    params = dephasing_params(n)
    rho0 = random_density(n, seed=n)
    grid = TimeGrid(5.0, 0.02, sample_stride=23)
    samples = integrate(params, rho0, grid)
    assert len(samples) == 12
    assert_matches_oracle(params, rho0, grid, samples)
    # rhs is the same generator at one time
    assert np.max(np.abs(rhs(params, rho0, 1.3) - oracle_rhs(params, rho0, 1.3))) <= 1e-15


def test_integrate_across_overlap_blocks():
    # more than _BLOCK steps, sampled on both sides of the block boundary
    params = dephasing_params(1)
    rho0 = random_density(1, seed=5)
    n_steps = master_eq._BLOCK + 300
    grid = TimeGrid(n_steps * 0.01, 0.01, sample_stride=97)
    assert_matches_oracle(params, rho0, grid, integrate(params, rho0, grid))


def test_overlap_cache_is_per_block(monkeypatch):
    # the step overlaps are three scalars per step, formed a block at a
    # time: never a steps x N array, whatever N is
    monkeypatch.setattr(master_eq, "_BLOCK", 64)
    sizes = {}

    def counted(params, t):
        sizes.setdefault(params.n_atoms, []).append(np.shape(t))
        return coherent_overlaps(params, t)

    monkeypatch.setattr(master_eq, "coherent_overlaps", counted)
    grid = TimeGrid(173 * 0.02, 0.02, sample_stride=31)
    for n in (1, 30):
        params = dephasing_params(n)
        rho0 = random_density(n, seed=11)
        samples = integrate(params, rho0, grid)
        assert_matches_oracle(params, rho0, grid, samples)
    assert sizes[1] == sizes[30] == [(64, 3), (64, 3), (45, 3)]


@pytest.mark.parametrize("n", [1, 2, 30])
def test_rk4_samples_exactly_hermitian(n):
    # the generator adds the adjoint of its row terms, so every step keeps
    # rho Hermitian to the last bit: every sample of a Hermitian start, and
    # every sample after t = 0 of starts Hermitian only up to roundoff (a
    # generic density matrix, a state's projector)
    params = dephasing_params(n)
    grid = TimeGrid(5.0, 0.02, sample_stride=23)
    rho0 = random_density(n, seed=n)
    hermitian = 0.5 * (rho0 + rho0.conj().T)
    samples = integrate(params, hermitian, grid)
    assert [s.herm_error() for s in samples] == [0.0] * len(samples)
    amp = np.linspace(1.0, 2.0j, n + 1)
    for start in (rho0, AtomState(n, amp / np.linalg.norm(amp))):
        samples = integrate(params, start, grid)
        assert all(isinstance(s, HybridState) for s in samples)
        assert [s.herm_error() for s in samples[1:]] == [0.0] * (len(samples) - 1)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_rk4_steps_hermitian_part(n):
    # an anti-Hermitian part i eps B that passes the t = 0 gate is kept in
    # the first sample and dropped from the steps
    params = dephasing_params(n)
    grid = TimeGrid(5.0, 0.02, sample_stride=23)
    rho0 = random_density(n, seed=n)
    rng = np.random.default_rng(100 + n)
    b = rng.normal(size=rho0.shape) + 1j * rng.normal(size=rho0.shape)
    b = b + b.conj().T
    b -= np.trace(b) / (n + 1) * np.eye(n + 1)
    perturbed = rho0 + 0.4j * master_eq.HERM_TOL * b / np.max(np.abs(b))
    got = integrate(params, perturbed, grid)
    ref = integrate(params, rho0, grid)
    assert np.array_equal(got[0].rho, perturbed)
    assert got[0].herm_error() > 0.5 * master_eq.HERM_TOL
    for a, r in zip(got[1:], ref[1:], strict=True):
        assert np.max(np.abs(a.rho - r.rho)) <= 1e-13


def projector(state):
    return np.outer(state.amplitudes, state.amplitudes.conj())


@pytest.mark.parametrize("n", [30, 100])
def test_rotation_matches_rk4_density(n):
    # the Fig-6 point (and N = 100 at the same couplings), to omega t = 12:
    # the one-atom rotation at the CLI's dt against density-matrix RK4 at
    # dt/2, whose own dt-halving difference is checked first
    omega = math.pi / 4
    params = make_params(n=n, omega=omega, g=0.1 * omega / 30, light=LightPair(2, 2))
    state = build_spin_coherent(TILTED, n)
    t_max = 12.0 / omega
    steps = round(t_max / 0.02)
    rotated = integrate(params, state, TimeGrid(t_max, t_max / steps, 50))
    rk4 = integrate(params, projector(state), TimeGrid(t_max, t_max / (2 * steps), 100))
    rk4_half = integrate(params, projector(state), TimeGrid(t_max, t_max / (4 * steps), 200))
    assert len(rotated) == len(rk4) == len(rk4_half)
    assert max(np.max(np.abs(a.rho - b.rho)) for a, b in zip(rk4, rk4_half)) < 1e-9
    outcome = DetectionOutcome(4, 4)
    fields = ("jx_mean", "jy_mean", "jz_mean", "jx_var", "jy_var", "jz_var")
    for a, b in zip(rotated, rk4):
        assert isinstance(a, PureSample) and a.t == b.t
        assert np.max(np.abs(projector(a.state) - b.rho)) < 1e-8
        ma = moments_from_density(conditional_density(params, a, outcome))
        mb = moments_from_density(conditional_density(params, b, outcome))
        for field in fields:
            ref = getattr(mb, field)
            assert abs(getattr(ma, field) - ref) <= 1e-8 * max(abs(ref), 1.0)


def test_rotation_exact_for_constant_generator():
    # at g = 0 the generator is omega J_z at all times, so each Magnus step
    # is the exact rotation; N = 200 follows the closed form to roundoff
    omega = math.pi / 4
    params = make_params(n=200, omega=omega)
    samples = integrate(params, build_spin_coherent(TILTED, 200), TimeGrid(40.0, 0.02, 250))
    for s in samples:
        ref = analytic_precession(TILTED, 200, omega, s.t)
        got = moments_from_density(s.state)
        for field in ("jx_mean", "jy_mean", "jz_mean", "jx_var", "jy_var", "jz_var"):
            r = getattr(ref, field)
            assert abs(getattr(got, field) - r) <= 1e-10 * max(abs(r), 1.0)
        assert s.trace_error() < 1e-12 and s.herm_error() == 0.0


def test_rotation_fourth_order():
    # a light overlap that turns fast makes the Magnus commutator term
    # matter; each halving of dt cuts the error 16-fold
    params = make_params(n=1, omega=1.3, g=0.7, light=LightPair(1.2, 0.5j))
    start = AtomState(1, np.array([0.6, 0.8j]))

    def final(steps):
        grid = TimeGrid(3.0, 3.0 / steps, steps)
        return integrate(params, start, grid, strict=False)[-1].state.amplitudes

    ref = final(25600)

    def error(amp):
        phase = np.vdot(amp, ref)
        return np.max(np.abs(amp * phase.conjugate() / abs(phase) - ref))

    errors = [error(final(steps)) for steps in (50, 100, 200)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


@pytest.mark.parametrize("n", [1, 30, 4096])
def test_coherent_start_takes_rotation_path(n):
    # the one-atom state is read off the mean spin, which stays accurate at
    # the poles and at capacity, where single amplitudes carry ~1e-12 noise
    params = make_params(n=n, omega=0.5)
    for theta in (0.0, 0.06, 1.2, math.pi):
        state = build_spin_coherent(bloch_to_ge(BlochAngles(theta, 2.0)), n)
        first = integrate(params, state, TimeGrid(0.02, 0.02))[0]
        assert isinstance(first, PureSample)
        assert abs(abs(np.vdot(first.state.amplitudes, state.amplitudes)) - 1.0) < 1e-12


def test_integrate_state_input_paths():
    omega = math.pi / 4
    params = make_params(n=12, omega=omega, g=0.1 * omega / 12)
    grid = TimeGrid(2.0, 0.02, 25)
    # a conditioned state is not spin coherent: it runs RK4 on its projector
    squeezed = conditional_state(
        build_spin_coherent(TILTED, 12), params.light, InteractionSetting(1.0, 0.3),
        DetectionOutcome(4, 4),
    )
    got = integrate(params, squeezed, grid)
    ref = integrate(params, projector(squeezed), grid)
    assert all(isinstance(s, HybridState) for s in got)
    assert all(np.array_equal(a.rho, b.rho) for a, b in zip(got, ref))
    # and so does a Dicke state, orthogonal to the lift its zero mean spin gives
    dicke = AtomState(12, np.eye(13)[6])
    assert all(isinstance(s, HybridState) for s in integrate(params, dicke, grid))
    # so does a coherent state once gamma > 0
    dephased = make_params(n=12, omega=omega, gamma=0.01)
    coherent = build_spin_coherent(TILTED, 12)
    got = integrate(dephased, coherent, grid)
    ref = integrate(dephased, projector(coherent), grid)
    assert all(np.array_equal(a.rho, b.rho) for a, b in zip(got, ref))
    with pytest.raises(ValueError, match="13 atoms"):
        integrate(params, build_spin_coherent(TILTED, 13), grid)


def test_pure_sample_validate():
    state = build_spin_coherent(TILTED, 4)
    PureSample(state, 0.0, 1e-12).validate()
    with pytest.raises(IntegrationError, match="trace drift"):
        PureSample(state, 0.0, 1e-6).validate()
    # an overflowed rotation: the drift is nan and must fail, not pass
    with pytest.raises(IntegrationError, match="trace drift"):
        PureSample(state, 1.0, math.nan).validate()
    # and its nan amplitudes are no state at all
    with pytest.raises(ValueError, match="state norm"):
        AtomState(4, np.full(5, np.nan, dtype=complex))


def probability_from_rho(params, state, outcome):
    setting = InteractionSetting(params.g, state.t)
    return _conditioning_factor(params.light, setting, outcome, np.diag(state.rho).real)[2]


def test_detection_probability_poisson_at_t0():
    params = make_params(n=6, g=0.4, light=LightPair(2.0, 2.0))
    rho0 = coherent_rho(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 6)
    p = probability_from_rho(params, HybridState(rho0, 0.0), DetectionOutcome(4, 4))
    expected = (math.exp(-4) * 4.0**4 / math.factorial(4)) ** 2
    assert p == pytest.approx(expected, rel=1e-12)
    assert p == pytest.approx(3.816819e-2, rel=1e-6)


def test_detection_probability_independent_of_rho_when_g0():
    params = make_params(n=8, g=0.0, light=LightPair(1.7, 0.6))
    outcome = DetectionOutcome(2, 1)
    p1 = probability_from_rho(
        params, HybridState(coherent_rho(GroundExcitedAmplitudes(0, 1), 8), 2.0), outcome
    )
    p2 = probability_from_rho(params, HybridState(random_density(8), 2.0), outcome)
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_detection_grid_completeness():
    # the grid depends on rho only through its diagonal, the pure pmf here
    state = build_spin_coherent(GroundExcitedAmplitudes(0, 1), 10)
    light = LightPair(2.0, 2.0)
    grid = detection_pmf_grid(state, light, InteractionSetting(0.3, 1.7), n_max=24)
    assert abs(grid.sum() - 1.0) < 1e-6


def test_conditional_density_neutral_when_g0():
    params = make_params(n=8, g=0.0, light=LightPair(2.0, 2.0))
    rho0 = coherent_rho(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 8)
    cond = conditional_density(params, HybridState(rho0, 3.0), DetectionOutcome(3, 5))
    assert np.max(np.abs(cond - rho0)) < 1e-12


def test_conditional_density_matches_pure_model():
    n = 12
    params = make_params(n=n, g=1.0, light=LightPair(2.0, 2.0))
    ge = GroundExcitedAmplitudes(math.sqrt(0.25), math.sqrt(0.75))
    state = build_spin_coherent(ge, n)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    t = 0.08
    for outcome in [DetectionOutcome(4, 4), DetectionOutcome(2, 5)]:
        cond_me = conditional_density(params, HybridState(rho0, t), outcome)
        pure = conditional_state(state, params.light, InteractionSetting(1.0, t), outcome)
        proj = np.outer(pure.amplitudes, pure.amplitudes.conj())
        assert np.max(np.abs(cond_me - proj)) < 1e-10


def test_conditional_density_positive_semidefinite():
    omega = math.pi / 4
    params = make_params(n=16, omega=omega, g=omega / 16, light=LightPair(2, 2))
    rho0 = coherent_rho(TILTED, 16)
    samples = integrate(params, rho0, TimeGrid(8.0, 0.01, sample_stride=400))
    cond = conditional_density(params, samples[-1], DetectionOutcome(4, 4))
    assert np.max(np.abs(cond - cond.conj().T)) < 1e-9
    assert abs(np.trace(cond) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(cond).min() > -1e-8


def test_conditional_moment_bounds():
    omega = math.pi / 4
    n = 14
    params = make_params(n=n, omega=omega, g=0.1 * omega / n, light=LightPair(2, 2))
    rho0 = coherent_rho(TILTED, n)
    samples = integrate(params, rho0, TimeGrid(12.0, 0.01, sample_stride=300))
    for s in samples:
        m = moments_from_density(conditional_density(params, s, DetectionOutcome(4, 4)))
        for mean in (m.jx_mean, m.jy_mean, m.jz_mean):
            assert abs(mean) <= n / 2 + 1e-9
        for var in (m.jx_var, m.jy_var, m.jz_var):
            assert -1e-9 <= var <= n**2 / 4 + 1e-9


def test_conditional_density_unreachable_outcome():
    params = make_params(n=6, g=0.2, light=LightPair(1.0, 1.0))
    state = HybridState(coherent_rho(GroundExcitedAmplitudes(0, 1), 6), 0.5)
    with pytest.raises(ImpossibleOutcomeError):
        conditional_density(params, state, DetectionOutcome(300, 300))


def test_conditional_density_imaginary_trace_is_integration_error():
    # a drifted trajectory can leave an imaginary diagonal; conditioning on
    # it must fail as an integration error, not as a bare assertion
    params = make_params(n=6, g=0.2, light=LightPair(1.0, 1.0))
    rho = coherent_rho(GroundExcitedAmplitudes(0, 1), 6) + 1e-3j * np.eye(7)
    with pytest.raises(IntegrationError, match="imaginary residue"):
        conditional_density(params, HybridState(rho, 0.5), DetectionOutcome(1, 1))


def test_model_params_validation():
    with pytest.raises(ValueError):
        make_params(gamma=-0.1)
    with pytest.raises(ValueError):
        TimeGrid(t_max=1.0, dt=-0.1)


def test_hybrid_state_validate():
    good = HybridState(np.eye(3) / 3, 0.0)
    good.validate()
    bad = HybridState(np.eye(3), 0.0)
    with pytest.raises(IntegrationError):
        bad.validate()
    # an overflowed sample: every drift is nan and must fail, not pass
    overflowed = HybridState(np.full((3, 3), np.nan), 0.0)
    with pytest.raises(IntegrationError):
        overflowed.validate()
