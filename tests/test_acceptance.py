"""Acceptance gate: end-to-end physics properties at fixed tolerances.

Each test prints exactly one ACCEPTANCE line (PASS or FAIL with the
measured numbers) and then asserts, so the full scorecard survives in
the pytest report either way.
"""

import math
import time

import numpy as np

from dwsqueeze.cli import main
from dwsqueeze.husimi import q_grid
from dwsqueeze.master_eq import (
    ModelParams,
    TimeGrid,
    conditional_density,
    integrate,
)
from dwsqueeze.pure_measure import (
    DetectionOutcome,
    InteractionSetting,
    LightPair,
    conditional_gaussian,
    conditional_state,
    detection_pmf_grid,
)
from dwsqueeze.spin_core import (
    GroundExcitedAmplitudes,
    build_spin_coherent,
    moments_from_density,
)
from dwsqueeze.validation import fock_oracle_report
from reference import analytic_precession, master_vs_pure_conditional, spin_operator_matrices

OMEGA = math.pi / 4
GE_POLAR = GroundExcitedAmplitudes(0.0, 1.0)
GE_NEAR_POLE = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
LIGHT_20 = LightPair(math.sqrt(20.0), math.sqrt(20.0))
LIGHT_4 = LightPair(2.0, 2.0)


def check(num: int, name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def conditional_variance_series(params, grid, outcome):
    """(omega_t, 4 var_x / N, 4 var_y / N) along a trajectory, conditioned per sample."""
    state = build_spin_coherent(GE_NEAR_POLE, params.n_atoms)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    samples = integrate(params, rho0, grid)
    norm = 4.0 / params.n_atoms
    omega_t, var_x, var_y = [], [], []
    for s in samples:
        m = moments_from_density(conditional_density(params, s.state, s.t, outcome))
        omega_t.append(params.omega * s.t)
        var_x.append(norm * m.jx_var)
        var_y.append(norm * m.jy_var)
    return np.array(omega_t), np.array(var_x), np.array(var_y)


def first_subunity_crossing(omega_t, values):
    for i in range(1, len(values)):
        if values[i - 1] >= 1.0 > values[i]:
            return omega_t[i]
    return math.nan


def connected_superlevel_components(qg, level_frac=0.5):
    """Components of {Q >= level_frac * max Q}, 4-connected, phi wraps around."""
    mask = qg.values >= level_frac * qg.values.max()
    labels = np.zeros(mask.shape, dtype=int)
    current = 0
    nt, np_ = mask.shape
    for i in range(nt):
        for j in range(np_):
            if not mask[i, j] or labels[i, j]:
                continue
            current += 1
            stack = [(i, j)]
            labels[i, j] = current
            while stack:
                a, b = stack.pop()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, (b + db) % np_
                    if 0 <= na < nt and mask[na, nb] and not labels[na, nb]:
                        labels[na, nb] = current
                        stack.append((na, nb))
    comps = []
    for lab in range(1, current + 1):
        sel = labels == lab
        w = qg.values[sel] * qg.weights[sel]
        theta_c = float(np.sum(w * qg.thetas[np.nonzero(sel)[0]]) / np.sum(w))
        comps.append(theta_c)
    return comps


def test_01_gaussian_pmf_agreement():
    t0 = time.perf_counter()
    n_atoms = 200
    setting = InteractionSetting(1.0, 0.005)
    outcome = DetectionOutcome(20, 20)
    state = build_spin_coherent(GE_POLAR, n_atoms)
    exact = conditional_state(state, LIGHT_20, setting, outcome).pmf()
    *_, pdf = conditional_gaussian(GE_POLAR, n_atoms, LIGHT_20, setting, outcome)
    approx = pdf(np.arange(n_atoms + 1))
    dev = float(np.max(np.abs(exact - approx)) / exact.max())
    elapsed = time.perf_counter() - t0
    check(
        1,
        "gaussian_pmf_agreement",
        dev < 0.05 and elapsed < 5.0,
        f"max deviation {dev:.3e} of peak, {elapsed:.2f} s",
    )


def test_02_strong_coupling_multimodal_pmf():
    t0 = time.perf_counter()
    n_atoms = 200
    setting = InteractionSetting(1.0, 1.0 / math.sqrt(n_atoms))
    outcome = DetectionOutcome(20, 20)
    state = build_spin_coherent(GE_POLAR, n_atoms)
    p = conditional_state(state, LIGHT_20, setting, outcome).pmf()
    # peak counting rule: 3-point moving average, then strict interior maxima
    sm = np.convolve(p, np.ones(3) / 3.0, mode="valid")
    n_peaks = int(np.count_nonzero((sm[1:-1] > sm[:-2]) & (sm[1:-1] > sm[2:])))
    k = np.arange(n_atoms + 1)
    mean = float(np.sum(k * p))
    std = float(math.sqrt(np.sum((k - mean) ** 2 * p)))
    elapsed = time.perf_counter() - t0
    check(
        2,
        "strong_coupling_multimodal_pmf",
        n_peaks >= 2 and std > math.sqrt(n_atoms) and elapsed < 5.0,
        f"{n_peaks} peaks, std {std:.3f} vs required > {math.sqrt(n_atoms):.3f}, "
        f"{elapsed:.2f} s",
    )


def test_03_most_probable_outcome_balanced():
    state = build_spin_coherent(GE_POLAR, 200)
    grid = detection_pmf_grid(state, LIGHT_20, InteractionSetting(1.0, 0.0))
    idx = np.unravel_index(np.argmax(grid), grid.shape)
    check(
        3,
        "most_probable_outcome_balanced",
        tuple(int(v) for v in idx) == (20, 20),
        f"argmax at {tuple(int(v) for v in idx)}",
    )


def test_04_detection_grid_completeness():
    worst = 0.0
    for n_atoms in (30, 200):
        state = build_spin_coherent(GE_POLAR, n_atoms)
        for gt in (0.0, 0.001, 0.01):
            grid = detection_pmf_grid(state, LIGHT_20, InteractionSetting(1.0, gt))
            worst = max(worst, abs(float(grid.sum()) - 1.0))
    check(4, "detection_grid_completeness", worst < 1e-6, f"max |sum - 1| = {worst:.3e}")


def test_05_fock_expansion_oracle():
    t0 = time.perf_counter()
    state = build_spin_coherent(GE_POLAR, 2)
    light = LightPair(1.0, 1.0)
    worst = 0.0
    for gt in (0.0, 0.3):
        rep = fock_oracle_report(state, light, InteractionSetting(1.0, gt), 12)
        worst = max(worst, rep.max_abs_error)
    elapsed = time.perf_counter() - t0
    check(
        5,
        "fock_expansion_oracle",
        worst < 1e-8 and elapsed < 60.0,
        f"max abs error {worst:.3e}, {elapsed:.2f} s",
    )


def test_06_conditioning_matches_pure_projector():
    params = ModelParams(
        n_atoms=30, omega=0.0, g=1.0, gamma=0.0, light=LIGHT_4
    )
    state = build_spin_coherent(GE_POLAR, 30)
    t = 0.1
    pmf = detection_pmf_grid(state, LIGHT_4, InteractionSetting(1.0, t), 24)
    worst = 0.0
    n_checked = 0
    for nc in range(pmf.shape[0]):
        for nd in range(pmf.shape[1]):
            if pmf[nc, nd] <= 1e-8:
                continue
            err = master_vs_pure_conditional(params, state, DetectionOutcome(nc, nd), t)
            worst = max(worst, err)
            n_checked += 1
    check(
        6,
        "conditioning_matches_pure_projector",
        worst < 1e-8 and n_checked > 0,
        f"max elementwise error {worst:.3e} over {n_checked} outcomes",
    )


def test_07_tunneling_precession_closed_form():
    t0 = time.perf_counter()
    params = ModelParams(n_atoms=30, omega=OMEGA, g=0.0, gamma=0.0, light=LIGHT_4)
    state = build_spin_coherent(GE_NEAR_POLE, 30)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    samples = integrate(params, rho0, TimeGrid(60.0 / OMEGA, 0.02, 25))
    worst_rel = 0.0
    worst_trace = 0.0
    for s in samples:
        m = moments_from_density(s.state)
        ref = analytic_precession(GE_NEAR_POLE, 30, OMEGA, s.t)
        for got, want in (
            (m.jx_mean, ref.jx_mean), (m.jy_mean, ref.jy_mean),
            (m.jz_mean, ref.jz_mean), (m.jx_var, ref.jx_var),
            (m.jy_var, ref.jy_var), (m.jz_var, ref.jz_var),
        ):
            worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1.0))
        worst_trace = max(worst_trace, s.trace_err)
    elapsed = time.perf_counter() - t0
    check(
        7,
        "tunneling_precession_closed_form",
        worst_rel < 1e-6 and worst_trace < 1e-8 and elapsed < 60.0,
        f"max rel error {worst_rel:.3e}, trace drift {worst_trace:.3e}, {elapsed:.2f} s",
    )


def test_08_conditional_squeezing_onset():
    params = ModelParams(
        n_atoms=30, omega=OMEGA, g=0.1 * OMEGA / 30, gamma=0.0, light=LIGHT_4
    )
    _, var_x, var_y = conditional_variance_series(
        params, TimeGrid(60.0 / OMEGA, 0.02, 20), DetectionOutcome(4, 4)
    )
    check(
        8,
        "conditional_squeezing_onset",
        var_x.min() < 1.0 < var_y.max(),
        f"min 4 var_x / N = {var_x.min():.3f}, max 4 var_y / N = {var_y.max():.3f}",
    )


def test_09_dephasing_delays_squeezing():
    g = 0.1 * OMEGA / 30
    crossings = {}
    min_weak = math.inf
    for gamma, dt, stride in ((0.1 * g, 0.02, 20), (3.0 * g, 0.005, 80)):
        params = ModelParams(
            n_atoms=30, omega=OMEGA, g=g, gamma=gamma, light=LIGHT_4
        )
        omega_t, var_x, _ = conditional_variance_series(
            params, TimeGrid(60.0 / OMEGA, dt, stride), DetectionOutcome(4, 4)
        )
        crossings[gamma] = first_subunity_crossing(omega_t, var_x)
        if gamma == 0.1 * g:
            min_weak = var_x.min()
    weak, strong = crossings[0.1 * g], crossings[3.0 * g]
    check(
        9,
        "dephasing_delays_squeezing",
        min_weak < 1.0 and weak < strong,
        f"weak-dephasing min {min_weak:.3f}, crossings at omega_t "
        f"{weak:.3f} (weak) vs {strong:.3f} (strong)",
    )


def test_10_cat_state_antipodal_lobes():
    params = ModelParams(
        n_atoms=30, omega=OMEGA, g=OMEGA / 30, gamma=0.0, light=LIGHT_4
    )
    state = build_spin_coherent(GE_NEAR_POLE, 30)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    samples = integrate(params, rho0, TimeGrid(20.0 / OMEGA, 0.02, 100))
    last = samples[-1]
    cond = conditional_density(params, last.state, last.t, DetectionOutcome(4, 4))
    qg = q_grid(cond, 128, 128)
    centers = connected_superlevel_components(qg)
    dist_north = min((abs(c) for c in centers), default=math.inf)
    dist_south = min((abs(math.pi - c) for c in centers), default=math.inf)
    check(
        10,
        "cat_state_antipodal_lobes",
        len(centers) == 2 and dist_north < 0.3 and dist_south < 0.3,
        f"{len(centers)} component(s) at half maximum, theta centers "
        f"{[f'{c:.3f}' for c in centers]}, pole distances "
        f"{dist_north:.3f} / {dist_south:.3f} rad",
    )


def test_11_husimi_quadrature_normalization():
    errors = {}
    coherent = build_spin_coherent(GE_POLAR, 200)
    errors["coherent"] = abs(1.0 - q_grid(coherent, 128, 128).quadrature_sum())

    squeezed = conditional_state(
        coherent, LIGHT_20, InteractionSetting(1.0, 6.0 / 200), DetectionOutcome(20, 20)
    )
    errors["squeezed"] = abs(1.0 - q_grid(squeezed, 128, 128).quadrature_sum())

    params = ModelParams(
        n_atoms=30, omega=OMEGA, g=0.1 * OMEGA / 30, gamma=0.0, light=LIGHT_4
    )
    state = build_spin_coherent(GE_NEAR_POLE, 30)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    samples = integrate(params, rho0, TimeGrid(8.0 / OMEGA, 0.02, 100))
    last = samples[-1]
    cond = conditional_density(params, last.state, last.t, DetectionOutcome(4, 4))
    errors["conditional"] = abs(1.0 - q_grid(cond, 128, 128).quadrature_sum())

    worst = max(errors.values())
    check(
        11,
        "husimi_quadrature_normalization",
        worst < 1e-3,
        ", ".join(f"{k} {v:.3e}" for k, v in errors.items()),
    )


def test_12_invariant_and_determinism_suite(tmp_path):
    t0 = time.perf_counter()
    checks = []

    for n_atoms in (1, 2, 5, 30, 200):
        jx, jy, jz = spin_operator_matrices(n_atoms)
        j = n_atoms / 2.0
        eye = np.eye(n_atoms + 1)
        checks.append(np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-10)
        checks.append(np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-10)
        checks.append(np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-10)
        casimir = jx @ jx + jy @ jy + jz @ jz
        checks.append(np.max(np.abs(casimir - j * (j + 1) * eye)) < 1e-10)

    g = 0.1 * OMEGA / 30
    params = ModelParams(
        n_atoms=30, omega=OMEGA, g=g, gamma=0.1 * g, light=LIGHT_4
    )
    state = build_spin_coherent(GE_NEAR_POLE, 30)
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    for s in integrate(params, rho0, TimeGrid(8.0 / OMEGA, 0.02, 10)):
        checks.append(s.trace_err < 1e-8)
        checks.append(s.herm_err < 1e-9)
        checks.append(float(np.linalg.eigvalsh(s.state).min()) > -1e-8)

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "n_atoms = 30\nalpha = 0\nbeta = 1\ng = 0.05\nt = 0.2\n"
        "alpha_l = 2\nalpha_r = 2\nomega = 0.7853981633974483\n"
        "t_max = 4\ndt = 0.02\nsample_stride = 50\noutcome = 4,4\n",
        encoding="utf-8",
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"pure_{tag}"
        assert main(["pure", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "pure_pmf.csv").read_bytes())
    checks.append(outs[0] == outs[1])
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"master_{tag}"
        assert main(["master", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "master_timeseries.csv").read_bytes())
    checks.append(outs[0] == outs[1])

    elapsed = time.perf_counter() - t0
    check(
        12,
        "invariant_and_determinism_suite",
        all(checks) and elapsed < 120.0,
        f"{sum(checks)}/{len(checks)} checks, {elapsed:.2f} s",
    )
