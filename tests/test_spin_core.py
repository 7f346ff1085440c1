"""Spin basis, coherent states, operator matrices, moments, precession oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsqueeze.spin_core import (
    AtomState,
    BlochAngles,
    GroundExcitedAmplitudes,
    MAX_ATOMS,
    _xlogy,
    bloch_to_ge,
    build_spin_coherent,
    ge_to_lr_amplitudes,
    log_factorials,
    moments_from_density,
)
from reference import analytic_precession, rel_phase, spin_operator_matrices

RT2 = math.sqrt(2.0)


def test_ge_normalization_enforced():
    with pytest.raises(ValueError):
        GroundExcitedAmplitudes(0.5, 0.5)


def test_ge_to_lr_examples():
    el, er = ge_to_lr_amplitudes(GroundExcitedAmplitudes(0.0, 1.0))
    assert el == pytest.approx(1 / RT2) and er == pytest.approx(1 / RT2)
    el, er = ge_to_lr_amplitudes(GroundExcitedAmplitudes(1.0, 0.0))
    assert el == pytest.approx(1 / RT2) and er == pytest.approx(-1 / RT2)
    ge = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
    el, er = ge_to_lr_amplitudes(ge)
    assert el == pytest.approx((ge.alpha + ge.beta) / RT2, abs=1e-15)
    assert er == pytest.approx((ge.beta - ge.alpha) / RT2, abs=1e-15)
    # loose published decimals for the same pair
    assert abs(el - 0.72927) < 5e-4 and abs(er - 0.68455) < 5e-4
    assert abs(el) ** 2 + abs(er) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_bloch_to_ge_examples():
    ge = bloch_to_ge(BlochAngles(0.0, 0.0))
    assert ge.alpha == pytest.approx(0.0) and ge.beta == pytest.approx(1.0)
    ge = bloch_to_ge(BlochAngles(math.pi, 0.0))
    assert abs(ge.alpha) == pytest.approx(1.0) and abs(ge.beta) == pytest.approx(
        0.0, abs=1e-15
    )
    ge = bloch_to_ge(BlochAngles(math.pi / 2, 0.0))
    assert ge.alpha == pytest.approx(1 / RT2) and ge.beta == pytest.approx(1 / RT2)


def test_bloch_angle_ranges():
    with pytest.raises(ValueError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(0.1, 7.0)


def test_spin_coherent_small_cases():
    st2 = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 2)
    assert np.allclose(st2.amplitudes, [0.5, 1 / RT2, 0.5], atol=1e-12)
    st2 = build_spin_coherent(GroundExcitedAmplitudes(1.0, 0.0), 2)
    # global phase fixed by comparing against the direct product form
    ref = np.array([0.5, -1 / RT2, 0.5])
    phase = st2.amplitudes[0] / ref[0]
    assert np.allclose(st2.amplitudes / phase, ref, atol=1e-12)


def test_spin_coherent_peak_location():
    st200 = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 200)
    assert int(np.argmax(st200.pmf())) == 100


def test_spin_coherent_capacity_guard():
    with pytest.raises(ValueError):
        build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), MAX_ATOMS + 1)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    n=st.integers(0, 80),
)
def test_spin_coherent_norm_property(theta, phi, n):
    state = build_spin_coherent(bloch_to_ge(BlochAngles(theta, phi)), n)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_atom_state_validation():
    with pytest.raises(ValueError):
        AtomState(n_atoms=2, amplitudes=np.ones(3))
    with pytest.raises(ValueError):
        AtomState(n_atoms=3, amplitudes=np.ones(3) / math.sqrt(3))


def test_operator_matrices_small():
    jx, jy, jz = spin_operator_matrices(1)
    assert np.allclose(jx, np.diag([-0.5, 0.5]))
    jx, jy, jz = spin_operator_matrices(2)
    # ladder magnitude sqrt((k+1)(N-k))/2 at k=1; the sign is fixed by the
    # commutation relations together with Jx = diag(k - N/2)
    assert abs(jz[2, 1]) == pytest.approx(RT2 / 2)
    assert jz[2, 1] == pytest.approx(-RT2 / 2)
    assert jy[2, 1] == pytest.approx(-1j * RT2 / 2)
    for op in (jx, jy, jz):
        assert abs(np.trace(op)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_commutation_and_casimir(n):
    jx, jy, jz = spin_operator_matrices(n)
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-10
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-10
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-10
    casimir = jx @ jx + jy @ jy + jz @ jz
    expected = (n / 2) * (n / 2 + 1) * np.eye(n + 1)
    assert np.max(np.abs(casimir - expected)) < 1e-9


def pure_moments(state):
    return moments_from_density(np.outer(state.amplitudes, state.amplitudes.conj()))


def test_moments_ground_state():
    m = pure_moments(build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 30))
    assert m.jz_mean == pytest.approx(-15.0, abs=1e-9)
    assert m.jz_var == pytest.approx(0.0, abs=1e-9)


def test_moments_tilted_state():
    ge = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
    m = pure_moments(build_spin_coherent(ge, 30))
    assert m.jz_mean == pytest.approx(30 * (0.001 - 0.999) / 2, abs=1e-9)
    assert abs(m.jz_mean - (-14.97)) < 1e-9
    assert m.jz_var == pytest.approx(30 * 0.001 * 0.999, abs=1e-9)
    assert m.jx_mean == pytest.approx(30 * math.sqrt(0.001 * 0.999), abs=1e-9)
    assert abs(m.jx_mean - 0.94818) < 1e-4


def test_moments_from_density_matches_state():
    ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7) * 1j)
    psi = build_spin_coherent(ge, 12).amplitudes
    md = moments_from_density(np.outer(psi, psi.conj()))
    for axis, op in zip("xyz", spin_operator_matrices(12)):
        mean = np.vdot(psi, op @ psi).real
        var = np.vdot(op @ psi, op @ psi).real - mean**2
        assert getattr(md, f"j{axis}_mean") == pytest.approx(mean, abs=1e-10)
        assert getattr(md, f"j{axis}_var") == pytest.approx(var, abs=1e-10)


@pytest.mark.parametrize("n_atoms", [0, 1, 2, 5, 30, 200])
def test_moments_from_density_matches_dense_operators(n_atoms):
    # the banded routine against traces with the dense operators on a
    # seeded random mixed state; N = 0 and N = 1 leave the first and the
    # second diagonal of rho empty
    rng = np.random.default_rng(n_atoms)
    a = rng.normal(size=(n_atoms + 1,) * 2) + 1j * rng.normal(size=(n_atoms + 1,) * 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    md = moments_from_density(rho)
    for axis, op in zip("xyz", spin_operator_matrices(n_atoms)):
        mean = np.trace(op @ rho).real
        var = np.trace(op @ op @ rho).real - mean**2
        assert getattr(md, f"j{axis}_mean") == pytest.approx(mean, rel=1e-12, abs=0)
        assert getattr(md, f"j{axis}_var") == pytest.approx(var, rel=1e-12, abs=0)


@pytest.mark.parametrize("n_atoms", [0, 1, 2, 5, 30, 200])
def test_moments_from_state_match_projector(n_atoms):
    # a state reads the three diagonals of its projector without forming it
    rng = np.random.default_rng(n_atoms)
    c = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    state = AtomState(n_atoms, c / np.linalg.norm(c))
    ms = moments_from_density(state)
    md = moments_from_density(np.outer(state.amplitudes, state.amplitudes.conj()))
    for field in ("jx_mean", "jy_mean", "jz_mean", "jx_var", "jy_var", "jz_var"):
        ref = getattr(md, field)
        assert abs(getattr(ms, field) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_moments_from_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        moments_from_density(np.eye(4))


def test_precession_pole_state():
    for t in (0.0, 0.7, 3.0):
        m = analytic_precession(GroundExcitedAmplitudes(0.0, 1.0), 30, math.pi / 4, t)
        assert (m.jx_mean, m.jy_mean, m.jz_mean) == pytest.approx((0, 0, -15))
        assert m.jx_var == pytest.approx(7.5) and m.jy_var == pytest.approx(7.5)


def test_precession_phase_alignment():
    ge = bloch_to_ge(BlochAngles(0.4, 1.1))
    phi_ab = rel_phase(ge)
    omega = math.pi / 4
    m = analytic_precession(ge, 20, omega, phi_ab / omega)
    amp = 20 * abs(ge.alpha * ge.beta)
    assert m.jx_mean == pytest.approx(amp, abs=1e-12)
    assert m.jy_mean == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.01, math.pi - 0.01),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    t=st.floats(0.0, 50.0),
)
def test_precession_transverse_radius_conserved(theta, phi, t):
    ge = bloch_to_ge(BlochAngles(theta, phi))
    m = analytic_precession(ge, 24, 0.9, t)
    radius = 24 * abs(ge.alpha * ge.beta)
    assert m.jx_mean**2 + m.jy_mean**2 == pytest.approx(radius**2, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    n=st.integers(1, 50),
)
def test_coherent_state_moments_match_analytic(theta, phi, n):
    ge = bloch_to_ge(BlochAngles(theta, phi))
    ms = pure_moments(build_spin_coherent(ge, n))
    ma = analytic_precession(ge, n, 1.0, 0.0)
    for field in ("jx_mean", "jy_mean", "jz_mean", "jx_var", "jy_var", "jz_var"):
        assert getattr(ms, field) == pytest.approx(getattr(ma, field), abs=1e-9)


@pytest.mark.parametrize("tilt", [0.01, 0.001])
@pytest.mark.parametrize("towards", ["y", "z"])
def test_jx_variance_near_the_x_pole(tilt, towards):
    # a coherent state tilted from +x (theta = pi/2, phi = 0) has
    # Var J_x = N/4 sin^2(tilt); with <J_x> near N/2, <J_x^2> - <J_x>^2
    # cancels to 3e-8 relative at tilt 0.001, and the centred sum does not
    n = 2000
    theta, phi = (math.pi / 2, tilt) if towards == "y" else (math.pi / 2 - tilt, 0.0)
    angles = BlochAngles(theta, phi)
    var = moments_from_density(build_spin_coherent(bloch_to_ge(angles), n)).jx_var
    assert abs(var / (n / 4 * math.sin(tilt) ** 2) - 1.0) <= 1e-10


def test_bloch_round_trip_up_to_global_phase():
    for theta, phi in [(0.3, 0.2), (1.4, 3.9), (2.8, 5.5)]:
        ge = bloch_to_ge(BlochAngles(theta, phi))
        # recover angles from magnitudes/arguments, rebuild, compare states
        theta_r = 2 * math.acos(min(abs(ge.beta), 1.0))
        phi_r = (np.angle(ge.beta) - np.angle(ge.alpha)) % (2 * math.pi)
        ge_r = bloch_to_ge(BlochAngles(theta_r, phi_r))
        s1 = build_spin_coherent(ge, 7).amplitudes
        s2 = build_spin_coherent(ge_r, 7).amplitudes
        overlap = abs(np.vdot(s1, s2))
        assert overlap == pytest.approx(1.0, abs=1e-10)


# gammaln(n + 1) of the cephes lgam routine, as float.hex
LOG_FACTORIAL_HEX = {
    0: "0x0.0p+0",
    1: "0x0.0p+0",
    11: "0x1.180973f3a8d74p+4",
    12: "0x1.3fcba16d50143p+4",
    13: "0x1.68d5a9c3b32cdp+4",
    30: "0x1.2aa208b59d0e5p+6",
    998: "0x1.70a504c9302eep+12",
    999: "0x1.711386da7cab6p+12",
    1000: "0x1.71820d04e2eb7p+12",
    2000: "0x1.9cb431deaea39p+13",
    4096: "0x1.d46a979d430c1p+14",
    10**6: "0x1.87193cc4f1ea6p+23",
}


@pytest.mark.parametrize("n", sorted(LOG_FACTORIAL_HEX))
def test_log_factorials_pinned_bits(n):
    # the small-product/Stirling switch (12, 13) and the series switch
    # (x = n + 1 crossing 1000) are both covered
    assert float(log_factorials(n)[n]).hex() == LOG_FACTORIAL_HEX[n]


def test_log_factorials_accurate():
    lf = log_factorials(5000)
    exact = np.empty(5001)
    f = 1
    for n in range(5001):
        f *= max(n, 1)
        exact[n] = math.log(f)
    ulp = np.spacing(np.maximum(exact, 1.0))
    assert np.all(np.abs(lf - exact) <= 4 * ulp)


def test_log_factorials_relative_error():
    # the bound on Q's row norm (husimi module docstring) takes every entry
    # up to MAX_ATOMS within 3.5 u of ln n!, relatively
    mpmath = pytest.importorskip("mpmath")
    lf = log_factorials(MAX_ATOMS)
    assert lf[0] == lf[1] == 0.0
    with mpmath.workdps(40):
        worst = max(
            abs(mpmath.mpf(float(lf[n])) / mpmath.loggamma(n + 1) - 1)
            for n in range(2, MAX_ATOMS + 1)
        )
    assert worst <= 3.5 * 2.0**-53


def test_log_factorials_match_gammaln_whole_range():
    special = pytest.importorskip("scipy.special")
    n = np.arange(10**6 + 2)
    assert np.array_equal(log_factorials(10**6 + 1), special.gammaln(n + 1.0))


def test_log_factorials_prefix_and_read_only():
    big = log_factorials(3000).copy()
    small = log_factorials(40)
    assert small.shape == (41,)
    assert np.array_equal(small, big[:41])
    assert np.array_equal(log_factorials(3000), big)
    assert not small.flags.writeable
    with pytest.raises(ValueError):
        small[0] = 1.0


def test_xlogy_zero_log_zero():
    # 0 log 0 = 0 and n log 0 = -inf for n > 0, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_xlogy(0, np.array([0.0])), [0.0])
        assert np.array_equal(_xlogy(np.array([3]), 0.0), [-np.inf])
        n = np.arange(4)[None, :]
        x = np.array([0.0, 0.5, 2.0])[:, None]
        out = _xlogy(n, x)
    assert out.shape == (3, 4)
    assert out[0, 0] == 0.0 and np.all(out[0, 1:] == -np.inf)
    assert np.all(out[:, 0] == 0.0)
    assert np.array_equal(out[1:, 1:], n[:, 1:] * np.log(x[1:]))
    # out=: the result lands in the given buffer, equal to the one formed
    # without it; the broadcast n = 0 column reads +0.0 whatever x is (the
    # product there is nan at x = 0 and -0.0 at x < 1), and n log 0 = -inf
    for n_col, x_col in ((n, x), (n.ravel(), x), (np.arange(4.0), x[:, :, None])):
        buffer = np.full(np.broadcast_shapes(n_col.shape, x_col.shape), 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            into = _xlogy(n_col, x_col, out=buffer)
        assert into is buffer
        assert np.array_equal(into.reshape(3, 4), out)
        assert not np.signbit(into[..., 0]).any()
    # a scalar n broadcasts over x: n = 0 zeroes every entry, n > 0 none
    assert np.array_equal(_xlogy(0, x[:, 0], out=np.empty(3)), np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twice = _xlogy(2, x[:, 0], out=np.empty(3))
    assert np.array_equal(twice, [-np.inf, 2 * np.log(0.5), 2 * np.log(2.0)])


def random_sources(kind, n_atoms, count):
    rng = np.random.default_rng(n_atoms)
    sources = []
    for _ in range(count):
        if kind == "state":
            c = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
            sources.append(AtomState(n_atoms, c / np.linalg.norm(c)))
        else:
            a = rng.normal(size=(n_atoms + 1,) * 2) + 1j * rng.normal(size=(n_atoms + 1,) * 2)
            rho = a @ a.conj().T
            sources.append(rho / np.trace(rho).real)
    return sources


@pytest.mark.parametrize("n_atoms", [1, 2, 30])
@pytest.mark.parametrize("kind", ["state", "rho"])
def test_batched_moments_match_dense_operators(kind, n_atoms):
    # a list of sources is read out in one pass: each entry matches the
    # traces with the dense operators and is bit for bit its own call
    sources = random_sources(kind, n_atoms, 6)
    batch = moments_from_density(sources)
    assert len(batch) == len(sources)
    for source, got in zip(sources, batch):
        assert got == moments_from_density(source)
        rho = source if kind == "rho" else np.outer(source.amplitudes, source.amplitudes.conj())
        for axis, op in zip("xyz", spin_operator_matrices(n_atoms)):
            mean = np.trace(op @ rho).real
            var = np.trace(op @ op @ rho).real - mean**2
            assert getattr(got, f"j{axis}_mean") == pytest.approx(mean, rel=1e-12, abs=1e-14)
            assert getattr(got, f"j{axis}_var") == pytest.approx(var, rel=1e-12, abs=1e-14)


def test_batched_moments_refuse_first_failing_source():
    # the error is that of the first source that fails, as if read alone
    rho = random_sources("rho", 3, 1)[0]
    skewed = rho + 1e-6 * np.triu(np.ones((4, 4)), 1)
    heavy = 2.0 * rho
    for batch, message in (
        ([rho, skewed, heavy], "not Hermitian"),
        ([rho, heavy, skewed], "trace"),
    ):
        with pytest.raises(ValueError, match=message):
            moments_from_density(batch)
    with pytest.raises(ValueError, match="square"):
        moments_from_density([np.ones((2, 3)) / 2])
