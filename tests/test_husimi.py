"""Husimi Q evaluation: overlap rows, grid values, grid quadrature."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsqueeze import husimi
from dwsqueeze.husimi import MIN_GRID, _overlap_matrix, q_grid
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    conditional_state,
)
from dwsqueeze.spin_core import (
    MAX_ATOMS,
    AtomState,
    BlochAngles,
    GroundExcitedAmplitudes,
    _log_coherent_amplitudes,
    bloch_to_ge,
    build_spin_coherent,
)

RT2 = math.sqrt(2.0)
U = 2.0**-53


def overlap_row(theta, phi, n):
    return _overlap_matrix(n, np.array([theta]), np.array([phi]))[0, 0]


def row_norm(thetas, phis, n_atoms):
    """s^N, the rows' squared norm, formed as q_grid forms it."""
    eta_l, eta_r = husimi._eta_pair(thetas, phis)
    return np.exp(n_atoms * np.log(np.square(np.abs(eta_l)) + np.square(np.abs(eta_r))))


def norm_gap(n_atoms):
    """The husimi docstring's bound on |numerical row norm / s^N - 1|."""
    return (9 * math.lgamma(n_atoms + 1) + 16 * (n_atoms + 2)) * U


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
def test_overlap_row_norm_is_s_to_the_n(theta, phi, n):
    # the rows are not normalized: by the binomial theorem their squared
    # norm is s^N, which a numerical norm meets to the derived gap
    row = overlap_row(theta, phi, n)
    assert abs(np.linalg.norm(row) ** 2 / row_norm(theta, phi, n) - 1.0) <= norm_gap(n)


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


def grid_axes(n_theta, n_phi):
    """q_grid's cell-centered theta and phi nodes."""
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    return thetas, (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi


def source_atoms(source):
    return source.n_atoms if isinstance(source, AtomState) else source.shape[0] - 1


def contract_whole(source, rows, window):
    """<theta, phi|source|theta, phi> over the k of window, from one tensor."""
    if isinstance(source, AtomState):
        return np.abs(rows @ source.amplitudes[window]) ** 2
    rho = source[window, window]
    return np.real(np.einsum("ijk,kl,ijl->ij", rows, rho, rows.conj(), optimize=True))


def window_tensor_q(source, n_theta, n_phi, window=slice(None)):
    """Q from one (n_theta, n_phi, |W|) tensor of q_grid's rows, contracted whole.

    Each point is divided by s^N and scaled as q_grid does it.  On
    q_grid's support window it is the oracle for q_grid's blocked
    contraction (same rows, same nodes, same norm); on the default full
    window it is the full-row evaluation that the window is checked
    against.
    """
    thetas, phis = grid_axes(n_theta, n_phi)
    n_atoms = source_atoms(source)
    values = contract_whole(source, _overlap_matrix(n_atoms, thetas, phis, window), window)
    values /= row_norm(thetas[:, None], phis[None, :], n_atoms)
    values *= (n_atoms + 1) / (4.0 * np.pi)
    return np.maximum(values, 0.0)


def whole_tensor_q(source, n_theta, n_phi):
    """Q from full rows, each normalized by np.linalg.norm, contracted whole.

    This is the numerical-norm definition of Q, which q_grid's analytic
    s^N is checked against.
    """
    thetas, phis = grid_axes(n_theta, n_phi)
    n_atoms = source_atoms(source)
    rows = _overlap_matrix(n_atoms, thetas, phis)
    rows /= np.linalg.norm(rows, axis=2, keepdims=True)
    values = contract_whole(source, rows, slice(None))
    return np.maximum(values * (n_atoms + 1) / (4.0 * np.pi), 0.0)


def q_window(source):
    return husimi._support_window([source], source_atoms(source))


def random_density(n_atoms, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_atoms + 1,) * 2) + 1j * rng.normal(size=(n_atoms + 1,) * 2)
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def brute_live(n_atoms, window, n_theta, n_phi):
    """The point cut's mask from its definition, the bound's maximum over every k of W.

    log b_k(x) = 2 log|R_k| - N log s, from the log magnitudes of the rows
    over all of W; a full window keeps every point.
    """
    if window.stop - window.start == n_atoms + 1:
        return np.ones((n_theta, n_phi), dtype=bool)
    thetas, phis = grid_axes(n_theta, n_phi)
    eta_l, eta_r = husimi._eta_pair(thetas[:, None], phis[None, :])
    log_mag, _ = _log_coherent_amplitudes(eta_l, eta_r, n_atoms, window)
    log_s = np.log(np.square(np.abs(eta_l)) + np.square(np.abs(eta_r)))
    log_b = (2.0 * log_mag).max(axis=-1) - n_atoms * log_s
    bound = math.log((n_atoms + 1) * (window.stop - window.start)) + log_b
    return ~(bound <= math.log(U / 2.0))


def expected_builds(live, height):
    """(theta rows, phi columns) of each row build: a block's live columns, if any."""
    builds = []
    for start in range(0, live.shape[0], height):
        cols = int(live[start : start + height].any(axis=0).sum())
        if cols:
            builds.append((min(height, live.shape[0] - start), cols))
    return builds


def spy_builds(monkeypatch):
    """Record (theta rows, phi columns, |W|) of every _overlap_matrix call of q_grid."""
    builds = []

    def spy(n, thetas, phis, window):
        builds.append((thetas.size, phis.size, window.stop - window.start))
        return _overlap_matrix(n, thetas, phis, window)

    monkeypatch.setattr(husimi, "_overlap_matrix", spy)
    return builds


def built_grid(n_atoms, n_theta, n_phi):
    """(theta, phi) node counts of q_grid's build: each axis at most at the band
    limit, N + 1 and 2N + 2, and theta coarsened only when the built phi count is even."""
    built_phi = min(n_phi, 2 * n_atoms + 2)
    return (n_theta if built_phi % 2 else min(n_theta, n_atoms + 1)), built_phi


def direct_error(n_atoms):
    """The husimi docstring's E: a built value's error against Q.

    The window's u / (4 pi), the cut's u / (8 pi) and the rows' rounding,
    cap (g(N) + 4 (N + 4) u) with g the norm gap.
    """
    cap = (n_atoms + 1) / (4.0 * math.pi)
    return 3.0 * U / (8.0 * math.pi) + cap * (norm_gap(n_atoms) + 4 * (n_atoms + 4) * U)


def resampled_error(n_atoms, n_theta, n_phi):
    """The husimi docstring's bound on a returned value's error against Q.

    Each resampled axis takes the error e of its inputs to L e + F(n, n_out),
    L = sqrt(2N + 1) and F = G (sqrt(2 (2N + 1)) (c_n + 6 u) + sqrt(2 n_out)
    c_(n_out)), with c_n = 7 u log2 n and G = 2 cap; theta goes first, over
    2 n'_theta circle nodes.  A grid built as requested keeps E.
    """
    cap = (n_atoms + 1) / (4.0 * math.pi)
    lebesgue = math.sqrt(2 * n_atoms + 1)

    def fft(n):
        return 7 * U * math.log2(n)

    def step(n, n_out):
        return 2 * cap * (math.sqrt(2 * (2 * n_atoms + 1)) * (fft(n) + 6 * U)
                          + math.sqrt(2 * n_out) * fft(n_out))

    built_theta, built_phi = built_grid(n_atoms, n_theta, n_phi)
    error = direct_error(n_atoms)
    if built_theta < n_theta:
        error = lebesgue * error + step(2 * built_theta, 2 * n_theta)
    if built_phi < n_phi:
        error = lebesgue * error + step(built_phi, n_phi)
    return error


def resampled_tolerance(n_atoms, n_theta, n_phi):
    """How far q_grid may sit from window_tensor_q, a direct build of the
    requested grid: the resampled bound plus the oracle's own E."""
    return resampled_error(n_atoms, n_theta, n_phi) + direct_error(n_atoms)


# (n_theta, n_phi, block budget in theta rows of the built grid, or None
# for the default).  At N = 200 the default holds 8 of the 20-wide rows, so
# 17 rows end in a ragged block, and 2 of the 64-wide ones; 2.5 rows gives
# blocks of 2 and a ragged last block; at 0.5 rows a single theta row
# exceeds the budget, so every block is one row
BLOCKINGS = [(17, 20, None), (50, 64, None), (17, 20, 2.5), (17, 20, 0.5)]


@pytest.mark.parametrize("n_theta,n_phi,budget_rows", BLOCKINGS)
@pytest.mark.parametrize("n_atoms", [1, 2, 30, 200])
def test_q_grid_blocks_match_whole_tensor(monkeypatch, n_atoms, n_theta, n_phi, budget_rows):
    # N = 1 and 2 on every grid, and N = 30 on 50 x 64, are finer than the
    # band limit: they build the band-limited grid in blocks and resample it
    built_theta, built_phi = built_grid(n_atoms, n_theta, n_phi)
    resampled = (built_theta, built_phi) != (n_theta, n_phi)
    assert resampled == (n_atoms <= 2 or (n_atoms, n_phi) == (30, 64))
    row_entries = built_phi * (n_atoms + 1)
    if budget_rows is not None:
        monkeypatch.setattr(husimi, "_BLOCK_ENTRIES", int(budget_rows * row_entries))
    height = block_height(n_atoms, built_phi)
    builds = spy_builds(monkeypatch)
    # at N = 200 this state's window is k = 0..141, so blocks of a partial
    # window, and of only their live columns, are checked too
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), n_atoms)
    live = brute_live(n_atoms, q_window(state), built_theta, built_phi)
    assert live.all() == (n_atoms < 200)
    got = q_grid(state, n_theta, n_phi).values
    oracle = window_tensor_q(state, n_theta, n_phi, q_window(state))
    rho = random_density(n_atoms, seed=n_atoms)
    q_rho = q_grid(rho, n_theta, n_phi).values
    rho_oracle = window_tensor_q(rho, n_theta, n_phi, q_window(rho))
    if resampled:
        tol = resampled_tolerance(n_atoms, n_theta, n_phi)
        assert np.max(np.abs(got - oracle)) <= tol
        assert np.max(np.abs(q_rho - rho_oracle)) <= tol
    else:
        assert np.array_equal(got[live], oracle[live])
        # a cut point reads 0, and its Q on the window was at most u / (8 pi)
        assert not got[~live].any()
        assert np.all(oracle[~live] <= U / (8.0 * math.pi))
        assert np.max(np.abs(q_rho - rho_oracle)) <= 1e-14
    # the random rho has a full window: whole theta rows, every column
    assert [b[:2] for b in builds] == (
        expected_builds(live, height) + expected_builds(np.ones_like(live), height)
    )


# (N, n_theta, n_phi) of grids finer than the band limit, N + 1 theta and
# 2N + 2 phi nodes: theta only, phi only, both, and an odd n_phi above the
# band, which the phi step reaches from the even 2N + 2
RESAMPLED = [
    (1, 16, 16), (1, 17, 17), (2, 16, 16), (2, 16, 17),
    (30, 40, 20), (30, 17, 70), (30, 50, 64), (30, 33, 63),
    (200, 210, 20), (200, 16, 410),
]


@pytest.mark.parametrize("n_atoms,n_theta,n_phi", RESAMPLED)
def test_resampled_q_matches_whole_tensor(monkeypatch, n_atoms, n_theta, n_phi):
    built_theta, built_phi = built_grid(n_atoms, n_theta, n_phi)
    assert (built_theta, built_phi) != (n_theta, n_phi)
    height = block_height(n_atoms, built_phi)
    builds = spy_builds(monkeypatch)
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), n_atoms)
    rho = random_density(n_atoms, seed=n_atoms)
    singles = [q_grid(s, n_theta, n_phi) for s in (state, rho)]
    live = brute_live(n_atoms, q_window(state), built_theta, built_phi)
    full = np.ones_like(live)
    assert builds == [
        (rows, cols, w.stop - w.start)
        for b, w in ((live, q_window(state)), (full, q_window(rho)))
        for rows, cols in expected_builds(b, height)
    ]
    tol = resampled_tolerance(n_atoms, n_theta, n_phi)
    thetas, phis = grid_axes(n_theta, n_phi)
    weights = np.outer(husimi._fejer_weights(thetas), np.full(n_phi, 2.0 * np.pi / n_phi))
    for source, grid in zip((state, rho), singles):
        oracle = window_tensor_q(source, n_theta, n_phi, q_window(source))
        assert np.max(np.abs(grid.values - oracle)) <= tol
        # the requested grid's own cut points read 0 (at N = 200 the
        # state's window is partial; elsewhere every point is live)
        assert not grid.values[~brute_live(n_atoms, q_window(source), n_theta, n_phi)].any()
        # the requested grid's nodes and weights
        assert grid.thetas.tobytes() == thetas.tobytes() and grid.phis.tobytes() == phis.tobytes()
        assert grid.weights.tobytes() == weights.tobytes()
    # a list builds the band-limited grid once, on the window of both, the
    # rho's full one: a source whose own window that is (the rho, and the
    # state at N <= 30) gets its single call's values bit for bit, and the
    # state at N = 200 agrees with its single call to the bound
    builds.clear()
    grids = q_grid([state, rho], n_theta, n_phi)
    assert builds == [(rows, cols, n_atoms + 1) for rows, cols in expected_builds(full, height)]
    assert same_grid(grids[1], singles[1])
    if q_window(state) == q_window(rho):
        assert same_grid(grids[0], singles[0])
    assert np.max(np.abs(grids[0].values - singles[0].values)) <= 2 * tol


@pytest.mark.parametrize("n_theta,n_phi", [(40, 20), (50, 64)])
def test_resampled_partial_window_cuts_to_zero(n_theta, n_phi):
    # Fock states have one-point windows, so at N = 30 both the built grid
    # and the requested one have cut points; after the resampling, the
    # requested grid's own cut points read exactly 0, for a state and for
    # a list whose window spans both of its sources
    n_atoms = 30
    for sources in ([fock_state(n_atoms, 5)], [fock_state(n_atoms, 3), fock_state(n_atoms, 8)]):
        window = husimi._support_window(sources, n_atoms)
        assert window.stop - window.start < n_atoms + 1
        live = brute_live(n_atoms, window, n_theta, n_phi)
        built_live = brute_live(n_atoms, window, *built_grid(n_atoms, n_theta, n_phi))
        assert 0 < live.sum() < live.size and 0 < built_live.sum() < built_live.size
        tol = resampled_tolerance(n_atoms, n_theta, n_phi)
        for source, grid in zip(sources, q_grid(sources, n_theta, n_phi)):
            assert not grid.values[~live].any()
            oracle = window_tensor_q(source, n_theta, n_phi, window)
            assert np.max(np.abs(grid.values - oracle)) <= tol


@pytest.mark.parametrize(
    "n_atoms,n_theta,n_phi", [(2000, 64, 64), (30, 17, 20), (30, 40, 21)],
    ids=["pure_wide", "n30", "n30_odd_phi"],
)
def test_grid_within_band_is_built_as_requested(monkeypatch, n_atoms, n_theta, n_phi):
    # a grid not finer than the band limit on either axis is built on its
    # own nodes, each theta row once, and is never resampled, so it keeps
    # the build's bits: pure_wide's conditional state on 64 x 64, and N = 30
    # on 17 x 20.  An odd n_phi <= 2N + 2 cannot pair its columns into great
    # circles, so 40 x 21 at N = 30 is built as requested too.
    built = []

    def spy(n, thetas, phis, window):
        built.append((thetas, phis))
        return _overlap_matrix(n, thetas, phis, window)

    def no_resampling(*args):
        raise AssertionError("a grid within the band was resampled")

    monkeypatch.setattr(husimi, "_overlap_matrix", spy)
    monkeypatch.setattr(husimi, "_fft_resample", no_resampling)
    assert built_grid(n_atoms, n_theta, n_phi) == (n_theta, n_phi)
    if n_atoms == 2000:
        source = conditional(2000)
    else:
        source = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), n_atoms)
    grid = q_grid(source, n_theta, n_phi)
    thetas, phis = grid_axes(n_theta, n_phi)
    assert np.concatenate([t for t, _ in built]).tobytes() == thetas.tobytes()
    assert all(np.isin(p, phis).all() for _, p in built)
    live = brute_live(n_atoms, q_window(source), n_theta, n_phi)
    oracle = window_tensor_q(source, n_theta, n_phi, q_window(source))
    assert np.array_equal(grid.values[live], oracle[live]) and not grid.values[~live].any()


def same_grid(a, b):
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("thetas", "phis", "values", "weights")
    ) and a.values.shape == b.values.shape


# a theta block budget of None (the default: all 17 rows in one block) or
# of 3 rows (blocks of 3 and a ragged last block of 2)
@pytest.mark.parametrize("budget_rows", [None, 3])
def test_q_grid_list_matches_each_source(monkeypatch, budget_rows):
    n_atoms, n_theta, n_phi = 30, 17, 20
    if budget_rows is not None:
        monkeypatch.setattr(husimi, "_BLOCK_ENTRIES", budget_rows * n_phi * (n_atoms + 1))
    states = [
        build_spin_coherent(bloch_to_ge(BlochAngles(theta, phi)), n_atoms)
        for theta, phi in [(0.9, 2.3), (0.1, 0.4), (2.6, 5.0)]
    ]
    rhos = [random_density(n_atoms, seed) for seed in (1, 2, 3)]
    builds = spy_builds(monkeypatch)
    # at N = 30 every source's window is the full range, so a list builds
    # the rows of each single call, on every column
    for sources in (states, rhos, states[:1] + rhos[:1]):
        assert all(q_window(s) == slice(0, n_atoms + 1) for s in sources)
        singles = [q_grid(s, n_theta, n_phi) for s in sources]
        builds.clear()
        grids = q_grid(sources, n_theta, n_phi)
        assert len(grids) == len(sources)
        assert all(same_grid(g, s) for g, s in zip(grids, singles))
        # one row build per theta block, shared by every source
        heights = [n_theta] if budget_rows is None else [3, 3, 3, 3, 3, 2]
        assert builds == [(h, n_phi, n_atoms + 1) for h in heights]


@pytest.mark.parametrize("n_atoms", [30, 200])
def test_q_grid_values_do_not_depend_on_budget(monkeypatch, n_atoms):
    # each block contracts whole theta rows in the same shapes, so the
    # budget moves no bit of Q: for a state, a rho and a list of both (at
    # N = 200 the conditional state's window is partial).  At N = 30 the 64
    # phi nodes are finer than the band, so the build has 62 and is
    # resampled.  The default splits the build into blocks of 17 rows
    # (N = 30) or 2 (N = 200), and is checked against one row per block and
    # one block for all rows.
    n_theta, n_phi = 23, 64
    state = conditional(200) if n_atoms == 200 else build_spin_coherent(
        bloch_to_ge(BlochAngles(0.9, 2.3)), n_atoms
    )
    sources = [state, random_density(n_atoms, seed=4), [state, random_density(n_atoms, seed=5)]]

    def values(source):
        grid = q_grid(source, n_theta, n_phi)
        return np.stack([g.values for g in grid]) if isinstance(grid, list) else grid.values

    default = [values(s) for s in sources]
    assert 1 < block_height(n_atoms, built_grid(n_atoms, n_theta, n_phi)[1]) < n_theta
    for budget in (1, n_theta * n_phi * (n_atoms + 1)):
        monkeypatch.setattr(husimi, "_BLOCK_ENTRIES", budget)
        assert all(np.array_equal(values(s), d) for s, d in zip(sources, default))


def test_q_grid_list_refuses_mixed_atom_numbers(monkeypatch):
    def no_build(*args):
        raise AssertionError("rows built for a refused list")

    monkeypatch.setattr(husimi, "_overlap_matrix", no_build)
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), 4)
    with pytest.raises(ValueError):
        q_grid([state, random_density(5, seed=0)], 16, 16)
    assert q_grid([], 16, 16) == []


def traced_peak(run, *args):
    """tracemalloc's peak of numpy and Python allocations during run(*args)."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_height(n_atoms, n_phi):
    """Theta rows per q_grid block at the current budget."""
    return max(1, husimi._BLOCK_ENTRIES // (n_phi * (n_atoms + 1)))


def test_q_grid_memory_stays_blocked(monkeypatch):
    # the whole (64, 64, 2001) overlap tensor alone is 131 MB; q_grid holds
    # one block of theta rows, on the sources' window and the block's live
    # columns, and its build's temporaries.  On top of the peak of its
    # largest build, for three sources, it may add only the 64 x 64
    # results, 32 kB each, and 16 kB for one block's contraction, the norm
    # s^N, the point cut's mask and small Python objects; a row block held
    # into the next build would add its complex rows.
    states = [
        build_spin_coherent(bloch_to_ge(BlochAngles(theta, 1.0)), 2000)
        for theta in (0.6, 1.1, 2.0)
    ]
    result = 64 * 64 * 8
    window = husimi._support_window(states, 2000)
    builds = spy_builds(monkeypatch)

    def largest():
        """(theta rows, phi columns, |W|) of the largest build made, and its entries."""
        rows, cols, width = max(builds, key=math.prod)
        builds.clear()
        return rows, cols, width, rows * cols * width

    one = traced_peak(q_grid, states[0], 64, 64)
    *_, one_entries = largest()
    three = traced_peak(q_grid, states, 64, 64)
    rows, cols, width, three_entries = largest()
    assert width == window.stop - window.start and three_entries > one_entries
    thetas, phis = grid_node(64, np.arange(rows), np.arange(cols))
    build = traced_peak(_overlap_matrix, 2000, thetas, phis, window)
    assert one < 32e6
    # Each stage of a build holds at most four real arrays of |W| entries
    # per built point (the log magnitudes, the second term and the phases;
    # then the magnitudes, the phases and the complex rows as two) and no
    # array over all k or all columns, which would add 8 bytes per point
    # for each k outside W; 8 kB covers the eta pair and small objects.
    assert build <= 4 * 8 * three_entries + 8192
    # Three sources may add to one source's peak their two extra results
    # and 4 * 8 bytes per extra entry of their largest build, over a wider
    # window and more live columns; and 8 kB, as the small objects' share
    # moves by about 2 kB with what ran before.
    assert three - one <= 2 * result + 4 * 8 * (three_entries - one_entries) + 8192
    assert three - build <= 3 * result + 16384


def fig6_peak(n_phi):
    """tracemalloc's peak of q_grid on three N = 30 snapshots on 128 x n_phi,
    less their three results."""
    states = [
        build_spin_coherent(bloch_to_ge(BlochAngles(theta, phi)), 30)
        for theta, phi in [(0.1, 0.4), (0.9, 2.3), (2.6, 5.0)]
    ]
    return traced_peak(q_grid, states, 128, n_phi) - 3 * 128 * n_phi * 8


def test_q_grid_memory_fits_the_cache_at_fig6_size():
    # the Fig-6 point of a master run: three N = 30 snapshots on 128 x 128.
    # Besides the three results, a block and its build's temporaries must
    # stay within 2 MB, one core's L2 cache on the 2-vCPU VM the benchmark
    # runs on.  The grid is built at the band limit, 31 x 62 points, and
    # resampled; test_q_grid_budget_sets_the_peak_within_band holds the
    # negative control.
    assert fig6_peak(128) <= 2**21


def test_q_grid_budget_sets_the_peak_within_band(monkeypatch):
    # an odd n_phi within the band cannot pair its columns into great
    # circles, so 128 x 61 at N = 30 is built as requested, 242 k entries;
    # it fits the cache at the default budget, while a budget of 2^18
    # entries (one block of all 128 theta rows) peaks at about 8 MB, which
    # the same check must refuse
    assert fig6_peak(61) <= 2**21
    monkeypatch.setattr(husimi, "_BLOCK_ENTRIES", 1 << 18)
    assert fig6_peak(61) > 2**21


# The support window: the overlap rows of q_grid cover only the k range W
# outside which every source's weight is below eps = u / (3 (N+1)^2) of
# its maximum, which moves any Q by at most u / (4 pi).


def fock_state(n_atoms, k):
    amplitudes = np.zeros(n_atoms + 1, dtype=complex)
    amplitudes[k] = 1.0
    return AtomState(n_atoms, amplitudes)


# (light amplitude, gt, outcome) of a squeezed conditional state: at N = 200
# the point of test_q_grid_squeezed_marginal_narrower, at N = 2000 one like
# the pure_wide benchmark's
CONDITIONING = {200: (math.sqrt(20), 6.0 / 200, 20), 2000: (10.0, 5e-4, 100)}


def conditional(n_atoms):
    alpha, gt, count = CONDITIONING[n_atoms]
    state = build_spin_coherent(GroundExcitedAmplitudes(0.0, 1.0), n_atoms)
    return conditional_state(
        state, LightPair(alpha, alpha), InteractionSetting(1.0, gt), DetectionOutcome(count, count)
    )


def window_sources(case, n_atoms):
    """The sources of one case and the window bounds it must reach."""
    if case == "conditional":
        return [conditional(n_atoms)], ()
    if case == "touches_0":
        # eta_l is small near (pi/2, pi): the weight piles up at k = 0
        angles = BlochAngles(*grid_node(16, 7, 7))
        return [build_spin_coherent(bloch_to_ge(angles), n_atoms)], ("start",)
    if case == "touches_N":
        angles = BlochAngles(*grid_node(16, 7, 0))
        return [build_spin_coherent(bloch_to_ge(angles), n_atoms)], ("stop",)
    if case == "rho":
        # an equal mixture of the conditional state and a copy shifted by N/20
        c = conditional(n_atoms).amplitudes
        v = np.stack([c, np.roll(c, n_atoms // 20)], axis=1) / math.sqrt(2.0)
        return [v @ v.conj().T], ()
    # a list whose two sources have disjoint one-point supports
    return [fock_state(n_atoms, n_atoms // 5), fock_state(n_atoms, 4 * n_atoms // 5)], ()


@pytest.mark.parametrize("case", ["conditional", "touches_0", "touches_N", "rho", "disjoint_list"])
@pytest.mark.parametrize("n_atoms", [200, 2000])
def test_windowed_q_matches_full_rows(case, n_atoms):
    sources, ends = window_sources(case, n_atoms)
    window = husimi._support_window(sources, n_atoms)
    # the window is partial, and reaches the ends it must
    assert window.stop - window.start < n_atoms + 1
    assert (window.start == 0) == ("start" in ends)
    assert (window.stop == n_atoms + 1) == ("stop" in ends)
    if case == "disjoint_list":
        assert window == slice(n_atoms // 5, 4 * n_atoms // 5 + 1)
    grids = q_grid(sources, 16, 16)
    for source, grid in zip(sources, grids):
        # the same rows over all k, divided by the same s^N
        full = window_tensor_q(source, 16, 16)
        # the dropped part moves Q by at most u / (4 pi); the shorter sums
        # round in another order, a few ulp of the largest Q
        tol = U / (4.0 * math.pi) + 16 * np.spacing(full.max())
        assert np.max(np.abs(grid.values - full)) <= tol


def test_support_window_is_smallest_range():
    n_atoms = 50
    eps = U / (3.0 * (n_atoms + 1) ** 2)
    c = np.full(n_atoms + 1, 0.5 * eps)
    c[20:31] = 1.0
    c[10] = c[40] = 2.0 * eps
    c[5] = 0.0
    state = AtomState(n_atoms, c / np.linalg.norm(c))
    assert husimi._support_window([state], n_atoms) == slice(10, 41)
    # a density matrix reads its diagonal rho_kk = w_k^2; an entry that
    # rounded below zero is outside, and a nan keeps every k
    rho = np.diag(np.abs(state.amplitudes) ** 2).astype(complex)
    rho[0, 0] = -1e-300
    assert husimi._support_window([rho], n_atoms) == slice(10, 41)
    rho[3, 3] = np.nan
    assert husimi._support_window([rho], n_atoms) == slice(0, n_atoms + 1)
    # a list takes the smallest range holding every window
    edge = fock_state(n_atoms, n_atoms)
    assert husimi._support_window([state, edge], n_atoms) == slice(10, n_atoms + 1)
    assert husimi._support_window([edge], n_atoms) == slice(n_atoms, n_atoms + 1)


def test_window_keeps_log_magnitudes_and_phases():
    # the window only skips entries: the log magnitudes, the phases and the
    # rows it keeps are those of the full range bit for bit.  The 17-point
    # grid has a node at (pi/2, pi), where eta_l rounds to about 1e-16, so
    # the log magnitudes fall by about 37 per k and the rows underflow to 0
    # there long before the window starts.
    n_atoms, window = 300, slice(40, 170)
    for n_grid in (16, 17):
        thetas, phis = grid_node(n_grid, np.arange(n_grid), np.arange(n_grid))
        eta_l, eta_r = husimi._eta_pair(thetas[:, None], phis[None, :])
        log_mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms)
        log_mag_w, phase_w = _log_coherent_amplitudes(eta_l, eta_r, n_atoms, window)
        assert log_mag_w.tobytes() == log_mag[..., window].tobytes()
        assert phase_w.tobytes() == phase[..., window].tobytes()
        full = _overlap_matrix(n_atoms, thetas, phis)
        part = _overlap_matrix(n_atoms, thetas, phis, window)
        assert part.tobytes() == full[..., window].tobytes()
    # the 17-point grid's (pi/2, pi) node
    assert not full[8, 8, 40:].any() and full[8, 8, 0] != 0


@pytest.mark.parametrize("n_atoms", [1, 30, 2000])
def test_index_window_matches_the_slice(n_atoms):
    # the point cut passes each point's own k as an index array in the
    # window slot: every entry is that of the full range at its k, bit for
    # bit.  The 17-point grid's (pi/2, pi) node has |eta_l| about 1e-16, and
    # the appended nodes eta_l = 0 exactly, where k = 0 reads 0 log 0 = 0
    thetas, phis = grid_node(17, np.arange(17), np.arange(17))
    eta_l, eta_r = husimi._eta_pair(thetas[:, None], phis[None, :])
    assert abs(eta_l[8, 8]) < 2e-16
    eta_l = np.append(eta_l.ravel(), [0.0, 0.0])
    eta_r = np.append(eta_r.ravel(), [1.0, -1j])
    rng = np.random.default_rng(n_atoms)
    k = rng.integers(0, n_atoms + 1, size=(eta_l.size, 3))
    k[:, 0], k[-2:, 1] = 0, n_atoms
    log_mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms)
    log_mag_k, phase_k = _log_coherent_amplitudes(eta_l, eta_r, n_atoms, k)
    assert log_mag_k.shape == phase_k.shape == k.shape
    assert log_mag_k.tobytes() == np.take_along_axis(log_mag, k, axis=-1).tobytes()
    assert phase_k.tobytes() == np.take_along_axis(phase, k, axis=-1).tobytes()
    # at eta_l = 0 only k = 0 is reached, and there it is log|eta_r|^N = 0
    assert log_mag_k[-2:, 0].tolist() == [0.0, 0.0]
    assert np.isneginf(log_mag_k[-2:, 1]).all()


def test_full_window_rows_are_the_complex_exp_rows():
    # on the full range the rows, built from cos and sin, equal
    # m exp(-i phase), the whole-row build, entry for entry
    n_atoms = 30
    thetas, phis = grid_node(16, np.arange(16), np.arange(16))
    eta_l, eta_r = husimi._eta_pair(thetas[:, None], phis[None, :])
    log_mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms)
    rows = np.exp(log_mag) * np.exp(-1j * phase)
    assert np.array_equal(_overlap_matrix(n_atoms, thetas, phis), rows)


# (N, grid size): the odd grids put a node at (pi/2, pi), where eta_l
# rounds to about 1e-16; at N = 2000 the whole-tensor rho contraction costs
# (N+1)^2 per point, so only the 17 point grid runs
NORM_CASES = [(n, g) for n in (1, 2, 30, 200) for g in (16, 17, 33)] + [(2000, 17)]


@pytest.mark.parametrize("n_atoms,n_grid", NORM_CASES)
def test_analytic_norm_matches_numerical_norm(n_atoms, n_grid):
    # q_grid divides by s^N; normalizing every full row by np.linalg.norm
    # instead moves Q relatively by at most the derived norm gap.  Each
    # side's contraction rounds by at most 2 (N+1) u of the cap (N+1)/(4 pi),
    # and its scaling, squares and divisions by a few u more; a partial
    # window adds its u / (4 pi).
    if n_grid % 2:
        eta_l, _ = husimi._eta_pair(*grid_node(n_grid, n_grid // 2, n_grid // 2))
        assert abs(eta_l) < 2e-16
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), n_atoms)
    if n_atoms == 2000:
        rho = window_sources("rho", n_atoms)[0][0]
    else:
        rho = random_density(n_atoms, seed=n_atoms)
    cap = (n_atoms + 1) / (4.0 * math.pi)
    tol = U / (4.0 * math.pi) + cap * (norm_gap(n_atoms) + 4 * (n_atoms + 4) * U)
    for source in (state, rho):
        got = q_grid(source, n_grid, n_grid).values
        assert np.max(np.abs(got - whole_tensor_q(source, n_grid, n_grid))) <= tol


# The point cut: on a partial window, a point whose bound
# (N+1)/(4 pi) |W| max_{k in W} b_k(x) is at most u / (8 pi) reads 0 and
# costs no row.


@pytest.mark.parametrize("case,n_atoms,n_grid", [("conditional", 2000, 17), ("rho", 200, 33)])
def test_point_cut_keeps_live_cells(monkeypatch, case, n_atoms, n_grid):
    # a state at N = 2000 like pure_wide's, and a rho at an N where points
    # are cut; the build with nothing cut takes an all-live mask, as a full
    # window does
    (source,), _ = window_sources(case, n_atoms)
    window = q_window(source)
    live = husimi._live_points(n_atoms, window, *grid_axes(n_grid, n_grid))
    assert np.array_equal(live, brute_live(n_atoms, window, n_grid, n_grid))
    assert 0 < live.sum() < live.size
    got = q_grid(source, n_grid, n_grid).values
    monkeypatch.setattr(
        husimi, "_live_points", lambda n, w, thetas, phis: np.ones((thetas.size, phis.size), bool)
    )
    uncut = q_grid(source, n_grid, n_grid).values
    # live cells keep their bits; a cut cell reads 0, and moved by at most
    # u / (8 pi) against its windowed value and u / (4 pi) against full rows
    assert np.array_equal(got[live], uncut[live])
    assert not got[~live].any()
    assert np.all(uncut[~live] <= U / (8.0 * math.pi))
    assert np.all(whole_tensor_q(source, n_grid, n_grid)[~live] <= U / (4.0 * math.pi))


def test_full_window_computes_no_bound(monkeypatch):
    # a full window holds every b_k's mode, so no point can be cut: no
    # bound is formed and the rows are built whole-row, as before the cut.
    # A nan source keeps every k, hence every point.
    def no_bound(*args):
        raise AssertionError("point cut formed on a full window")

    monkeypatch.setattr(husimi, "_live_points", no_bound)
    builds = spy_builds(monkeypatch)
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.9, 2.3)), 30)
    for source in (state, random_density(30, seed=6), [state, random_density(30, seed=7)]):
        q_grid(source, 17, 20)
        assert builds == [(17, 20, 31)]
        builds.clear()
    rho = random_density(200, seed=8)
    rho[3, 3] = np.nan
    assert np.isnan(q_grid(rho, 17, 20).values).all()
    assert builds == [(8, 20, 201), (8, 20, 201), (1, 20, 201)]


@pytest.mark.parametrize("case", ["touches_0", "touches_N"])
def test_point_cut_at_extreme_nodes(case):
    # windows that touch k = 0 or k = N, on the 17-point grid with its node
    # at (pi/2, pi), |eta_l| about 1e-16, and at (pi/2, 0) and (pi/2, pi)
    # themselves, x = 1 and x = 0 up to rounding: no nan and no warning
    n_atoms = 2000
    (state,), _ = window_sources(case, n_atoms)
    window = q_window(state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        live = husimi._live_points(n_atoms, window, *grid_axes(17, 17))
        ends = husimi._live_points(n_atoms, window, np.array([np.pi / 2]), np.array([0.0, np.pi]))
        values = q_grid(state, 17, 17).values
    assert np.array_equal(live, brute_live(n_atoms, window, 17, 17))
    assert 0 < live.sum() < live.size
    # x = 1 puts the mode at k = N, x = 0 at k = 0: only the matching end is live
    assert ends.tolist() == ([[False, True]] if case == "touches_0" else [[True, False]])
    assert not np.isnan(values).any() and not values[~live].any()


def test_point_cut_memory_stays_blocked(monkeypatch):
    # the cut holds about 240 bytes per point while it forms its mask (the
    # eta pair, x, s, the mode, three k and their log magnitudes and
    # phases), about 16 MB over a whole 256 x 256 grid.  Formed a block of
    # theta rows at a time, it may add to one block's peak only the
    # blocks' masks and their concatenation, a byte per point each, and
    # 8 kB of small objects; the mask keeps every bit
    n_atoms, n_grid = 200, 256
    window = q_window(conditional(n_atoms))
    thetas, phis = grid_axes(n_grid, n_grid)
    height = husimi._BLOCK_ENTRIES // (3 * n_grid)
    assert 1 < height < n_grid // 4
    block = traced_peak(husimi._live_points, n_atoms, window, thetas[:height], phis)
    whole = traced_peak(husimi._live_points, n_atoms, window, thetas, phis)
    assert whole <= block + 2 * n_grid * n_grid + 8192
    live = husimi._live_points(n_atoms, window, thetas, phis)
    assert 0 < live.sum() < live.size
    monkeypatch.setattr(husimi, "_BLOCK_ENTRIES", 1 << 40)
    assert np.array_equal(live, husimi._live_points(n_atoms, window, thetas, phis))


def test_q_grid_max_size_guard(monkeypatch):
    # MAX_GRID = MAX_ATOMS + 1 nodes integrate any state exactly; a finer
    # axis is refused before any work
    def no_work(*args):
        raise AssertionError("q_grid worked on a refused grid")

    monkeypatch.setattr(husimi, "_fejer_weights", no_work)
    monkeypatch.setattr(husimi, "_overlap_matrix", no_work)
    assert husimi.MAX_GRID == MAX_ATOMS + 1
    state = build_spin_coherent(bloch_to_ge(BlochAngles(0.4, 0.0)), 4)
    for n_theta, n_phi in ((husimi.MAX_GRID + 1, MIN_GRID), (MIN_GRID, husimi.MAX_GRID + 1)):
        with pytest.raises(ValueError, match="grid sizes"):
            q_grid(state, n_theta, n_phi)
