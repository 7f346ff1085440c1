"""Husimi Q evaluation: overlap rows, grid values, grid quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsqueeze.husimi import MIN_GRID, _overlap_matrix, q_grid
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    conditional_state,
)
from dwsqueeze.spin_core import (
    BlochAngles,
    GroundExcitedAmplitudes,
    bloch_to_ge,
    build_spin_coherent,
)

RT2 = math.sqrt(2.0)


def overlap_row(theta, phi, n):
    return _overlap_matrix(n, np.array([theta]), np.array([phi]))[0, 0]


def grid_node(n_grid, i, j):
    """Angles of cell (i, j) of an n_grid x n_grid q_grid."""
    return (i + 0.5) * math.pi / n_grid, (j + 0.5) * 2 * math.pi / n_grid


def test_overlap_row_pole():
    row = overlap_row(0.0, 0.0, 2)
    assert np.allclose(row, [0.5, 1 / RT2, 0.5], atol=1e-12)


def test_overlap_row_equator_concentrates():
    row = overlap_row(math.pi / 2, 0.0, 5)
    assert abs(row[5]) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(row[:5])) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    n=st.integers(0, 60),
)
def test_overlap_row_unit_norm(theta, phi, n):
    row = overlap_row(theta, phi, n)
    assert abs(np.linalg.norm(row) - 1.0) < 1e-10


def test_q_pure_self_overlap_peak():
    n, n_grid, i, j = 24, 16, 5, 6
    state = build_spin_coherent(bloch_to_ge(BlochAngles(*grid_node(n_grid, i, j))), n)
    qg = q_grid(state, n_grid, n_grid)
    assert qg.values[i, j] == pytest.approx((n + 1) / (4 * math.pi), rel=1e-10)


def test_q_pure_antipodal_zero():
    # the antipode of node (i, j) is node (n - 1 - i, j + n/2)
    n, n_grid, i, j = 16, 16, 3, 2
    state = build_spin_coherent(bloch_to_ge(BlochAngles(*grid_node(n_grid, i, j))), n)
    qg = q_grid(state, n_grid, n_grid)
    assert qg.values[n_grid - 1 - i, j + n_grid // 2] == pytest.approx(0.0, abs=1e-20)


def test_q_pure_bounds():
    n = 20
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.7, 0.4)), n)
    cap = (n + 1) / (4 * math.pi)
    values = q_grid(state, 16, 16).values
    assert values.min() >= 0.0
    assert values.max() <= cap * (1 + 1e-12)


def test_q_mixed_projector_matches_pure():
    n = 15
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 5.1)), n)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    q_rho = q_grid(rho, 16, 16).values
    q_psi = q_grid(state, 16, 16).values
    assert np.max(np.abs(q_rho - q_psi)) <= 1e-12


def test_q_mixed_maximally_mixed_flat():
    n = 9
    rho = np.eye(n + 1) / (n + 1)
    values = q_grid(rho, 16, 16).values
    assert np.allclose(values, 1 / (4 * math.pi), rtol=1e-10, atol=0)


def test_q_grid_normalization_coherent():
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.0, 0.0)), 30)
    qg = q_grid(state, 128, 128)
    assert qg.quadrature_sum() == pytest.approx(1.0, abs=1e-3)
    assert 0.999 <= qg.quadrature_sum() <= 1.001


def test_q_grid_refinement_improves_normalization():
    # Fejer-I in theta and the uniform phi rule integrate a spin-N/2 Q
    # exactly once n_theta, n_phi > N, so every refinement is at roundoff
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.4, 1.0)), 25)
    errs = [abs(q_grid(state, n, n).quadrature_sum() - 1.0) for n in (32, 64, 128)]
    assert max(errs) <= 1e-13


def test_q_grid_min_size_guard():
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.0, 0.0)), 4)
    with pytest.raises(ValueError):
        q_grid(state, MIN_GRID - 1, 64)


def test_q_grid_rotation_shifts_phi_peak():
    # rigid precession about z moves the phi peak by the rotation angle
    n = 30
    n_phi = 128
    shift = 3 * math.pi / 4
    q0 = q_grid(build_spin_coherent(bloch_to_ge(BlochAngles(1.2, 0.5)), n), 64, n_phi)
    q1 = q_grid(
        build_spin_coherent(bloch_to_ge(BlochAngles(1.2, 0.5 + shift)), n), 64, n_phi
    )
    i0 = np.unravel_index(np.argmax(q0.values), q0.values.shape)
    i1 = np.unravel_index(np.argmax(q1.values), q1.values.shape)
    assert i0[0] == i1[0]
    dphi = (q1.phis[i1[1]] - q0.phis[i0[1]]) % (2 * math.pi)
    cell = 2 * math.pi / n_phi
    assert abs(dphi - shift) <= cell + 1e-12


def test_q_grid_conditional_mixed_state_normalizes():
    # conditioned projector fed through the density-matrix path
    state = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), 30)
    cond = conditional_state(
        state, LightPair(2.0, 2.0), InteractionSetting(1.0, 0.05), DetectionOutcome(4, 4)
    )
    rho = np.outer(cond.amplitudes, cond.amplitudes.conj())
    qg = q_grid(rho, 128, 128)
    assert qg.quadrature_sum() == pytest.approx(1.0, abs=1e-3)
    assert qg.values.min() >= 0.0


def test_q_grid_squeezed_marginal_narrower():
    # conditioning on the balanced outcome squeezes the x spin direction;
    # the Q second moment along x = sin(theta)cos(phi) must drop below the
    # coherent-state value while the y moment grows
    n = 200
    light = LightPair(math.sqrt(20), math.sqrt(20))
    state = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), n)
    cond = conditional_state(
        state, light, InteractionSetting(1.0, 6.0 / n), DetectionOutcome(20, 20)
    )

    def second_moments(st_):
        qg = q_grid(st_, 96, 96)
        th = qg.thetas[:, None]
        ph = qg.phis[None, :]
        w = qg.values * qg.weights
        x = np.sin(th) * np.cos(ph)
        y = np.sin(th) * np.sin(ph)
        mx = float((w * x**2).sum() - (w * x).sum() ** 2)
        my = float((w * y**2).sum() - (w * y).sum() ** 2)
        return mx, my

    mx_cond, my_cond = second_moments(cond)
    mx_coh, my_coh = second_moments(state)
    assert mx_cond < mx_coh
    assert my_cond > my_coh
