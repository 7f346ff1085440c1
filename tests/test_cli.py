"""Config parsing, subcommand runs, CSV format, determinism, exit codes."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

import dwsqueeze.cli as cli
import dwsqueeze.master_eq as master_eq
from dwsqueeze.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    fmt,
    load_config,
    main,
    write_csv,
)
from dwsqueeze.husimi import q_grid
from dwsqueeze.master_eq import (
    ModelParams,
    PureSample,
    TimeGrid,
    conditional_density,
    integrate,
)
from dwsqueeze.pure_measure import DetectionOutcome, LightPair
from dwsqueeze.spin_core import (
    GroundExcitedAmplitudes,
    analytic_precession,
    build_spin_coherent,
)

FIG6_OMEGA = math.pi / 4


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def base_config(**overrides):
    lines = {
        "n_atoms": "30",
        "alpha": fmt(math.sqrt(0.001)),
        "beta": fmt(math.sqrt(0.999)),
        "omega": fmt(FIG6_OMEGA),
        "g": fmt(0.1 * FIG6_OMEGA / 30),
        "gamma": "0",
        "alpha_l": "2",
        "alpha_r": "2",
        "t_max": fmt(20.0 / FIG6_OMEGA),
        "dt": "0.02",
        "sample_stride": "50",
        "outcome": "4,4",
    }
    lines.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in lines.items() if v is not None) + "\n"


def read_rows(path):
    rows = [l.rstrip("\n") for l in open(path, encoding="utf-8")]
    header = [l for l in rows if l.startswith("#")]
    data = [l.split(",") for l in rows if not l.startswith("#")]
    return header, data


def test_load_config_round_trip(tmp_path):
    text = """
    [state]
    n_atoms = 12
    theta = 0.4        # radians
    phi = 1.25
    [light]
    alpha_l = 1.5,-0.5
    alpha_r = 2
    emit_q = true
    q_omega_t = 1.0,2.5
    """
    cfg = load_config(write(tmp_path / "c.cfg", text))
    assert cfg.n_atoms == 12
    assert cfg.theta == pytest.approx(0.4)
    assert cfg.alpha_l == complex(1.5, -0.5)
    assert cfg.alpha_r == complex(2.0, 0.0)
    assert cfg.emit_q is True
    assert cfg.q_omega_t == (1.0, 2.5)


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path / "c.cfg", "n_atoms = 3\nwhatever = 1\n"))


def test_load_config_rejects_duplicate_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path / "c.cfg", "n_atoms = 3\nn_atoms = 4\n"))


def test_load_config_requires_n_atoms(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path / "c.cfg", "omega = 1.0\n"))


def test_every_config_field_has_one_parser():
    # a field without a parser could never be set; a parser without a field
    # would reach ExperimentConfig(**values) as a TypeError
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(cli._PARSERS) == fields


def test_write_csv_round_trips_cells(tmp_path):
    floats = np.array(
        [math.pi, -1e-300, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf, -0.0]
    )
    ints = np.arange(len(floats)) * 1000 - 3
    names = [f"r{i}" for i in range(len(floats))]
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, ["a = 1"], {"name": names, "x": floats, "k": ints})
    header, data = read_rows(path)
    assert header == ["# a = 1", "# columns: name,x,k"]
    assert [r[0] for r in data] == names
    assert [r[2] for r in data] == [str(k) for k in ints.tolist()]
    back = np.array([float(r[1]) for r in data])
    assert back.tobytes() == floats.tobytes()  # exact, -0.0 and nan included
    assert [r[1] for r in data] == [fmt(x) for x in floats]


def test_write_csv_streams_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    x = np.linspace(0.0, 1.0, 30)
    write_csv(tmp_path / "t.csv", [], {"i": np.arange(30), "x": x})
    _, data = read_rows(tmp_path / "t.csv")
    assert [int(r[0]) for r in data] == list(range(30))
    assert np.array([float(r[1]) for r in data]).tobytes() == x.tobytes()
    # a short column is refused, not truncated, also past the first block
    with pytest.raises(ValueError):
        write_csv(tmp_path / "u.csv", [], {"i": np.arange(7), "x": x})


def test_config_state_parametrizations():
    cfg = ExperimentConfig(n_atoms=4, theta=0.0, phi=0.0)
    ge = cfg.ge()
    assert ge.beta == pytest.approx(1.0)
    both = ExperimentConfig(n_atoms=4, alpha=0j, beta=1 + 0j, theta=0.1)
    with pytest.raises(ConfigError):
        both.ge()
    neither = ExperimentConfig(n_atoms=4)
    with pytest.raises(ConfigError):
        neither.ge()


def test_pure_run_outputs(tmp_path):
    cfg = write(
        tmp_path / "c.cfg",
        base_config(t="0.005", g="1.0", emit_q="true", n_theta="32", n_phi="32",
                    outcome="most-probable", t_max=None),
    )
    out = tmp_path / "out"
    assert main(["pure", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, data = read_rows(out / "pure_pmf.csv")
    assert any("columns: k,p_exact,p_gaussian" in h for h in header)
    assert any(h.startswith("# artifact = dwsqueeze") for h in header)
    assert len(data) == 31
    p = np.array([float(r[1]) for r in data])
    assert abs(p.sum() - 1.0) < 1e-10
    assert (out / "pure_detection_grid.csv").exists()
    assert (out / "pure_q.csv").exists()


def test_pure_gt0_returns_prior(tmp_path):
    cfg = write(tmp_path / "c.cfg", base_config(t="0", g="0", t_max=None))
    out = tmp_path / "out"
    assert main(["pure", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "pure_pmf.csv")
    p = np.array([float(r[1]) for r in data])
    ge = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
    prior = build_spin_coherent(ge, 30).pmf()
    assert np.max(np.abs(p - prior)) < 1e-12


def test_master_run_timeseries(tmp_path):
    cfg = write(tmp_path / "c.cfg", base_config())
    out = tmp_path / "out"
    assert main(["master", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, data = read_rows(out / "master_timeseries.csv")
    cols = next(h for h in header if "columns:" in h).split("columns: ")[1].split(",")
    assert cols == [
        "t", "omega_t", "jx_mean", "jy_mean", "jz_mean",
        "jx_var_norm", "jy_var_norm", "jz_var_norm", "trace_err", "herm_err",
    ]
    omega_t = np.array([float(r[1]) for r in data])
    assert omega_t[-1] == pytest.approx(20.0, abs=1e-9)
    assert max(float(r[8]) for r in data) < 1e-8


def test_master_g0_matches_analytic_variances(tmp_path):
    cfg = write(tmp_path / "c.cfg", base_config(g="0"))
    out = tmp_path / "out"
    assert main(["master", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "master_timeseries.csv")
    ge = GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999))
    for row in data[:: len(data) // 7]:
        t = float(row[0])
        ref = analytic_precession(ge, 30, FIG6_OMEGA, t)
        assert float(row[2]) == pytest.approx(ref.jx_mean, abs=1e-6)
        assert float(row[5]) == pytest.approx(4 * ref.jx_var / 30, rel=1e-6)


def test_master_q_snapshots(tmp_path):
    cfg = write(
        tmp_path / "c.cfg",
        base_config(q_omega_t="10,20", n_theta="32", n_phi="32"),
    )
    out = tmp_path / "out"
    assert main(["master", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "master_q_00.csv").exists()
    assert (out / "master_q_01.csv").exists()


def test_qfunc_quadrature(tmp_path):
    cfg = write(
        tmp_path / "c.cfg",
        base_config(g=fmt(FIG6_OMEGA / 30), n_theta="64", n_phi="64"),
    )
    out = tmp_path / "out"
    assert main(["qfunc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "qfunc.csv")
    assert len(data) == 64 * 64
    thetas = np.array([float(r[0]) for r in data]).reshape(64, 64)
    q = np.array([float(r[2]) for r in data]).reshape(64, 64)
    w = np.sin(thetas) * (math.pi / 64) * (2 * math.pi / 64)
    assert (q * w).sum() == pytest.approx(1.0, abs=2e-3)


def test_qfunc_rotation_matches_density_path(tmp_path):
    # gamma = 0: the CLI rotates the coherent state; the reference runs
    # density-matrix RK4 at half the step to the same t_max
    t_max = 12.0 / FIG6_OMEGA
    cfg = write(tmp_path / "c.cfg", base_config(t_max=fmt(t_max), n_theta="32", n_phi="32"))
    out = tmp_path / "out"
    assert main(["qfunc", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "qfunc.csv")
    q = np.array([float(r[2]) for r in data]).reshape(32, 32)
    params = ModelParams(30, FIG6_OMEGA, 0.1 * FIG6_OMEGA / 30, 0.0, LightPair(2, 2))
    state = build_spin_coherent(
        GroundExcitedAmplitudes(math.sqrt(0.001), math.sqrt(0.999)), 30
    )
    rho0 = np.outer(state.amplitudes, state.amplitudes.conj())
    last = integrate(params, rho0, TimeGrid(t_max, t_max / (2 * round(t_max / 0.02))))[-1]
    ref = q_grid(conditional_density(params, last, DetectionOutcome(4, 4)), 32, 32)
    assert np.max(np.abs(q - ref.values)) < 1e-8


def test_master_rotation_reaches_1000_atoms(tmp_path, monkeypatch):
    # gamma = 0 never forms a 1001^2 matrix: the samples are state vectors
    # and the readout is O(N) per sample
    seen = []

    def recording(*args, **kwargs):
        seen.extend(integrate(*args, **kwargs))
        return seen

    monkeypatch.setattr(cli, "integrate", recording)
    cfg = write(
        tmp_path / "c.cfg",
        base_config(n_atoms="1000", dt="0.01", sample_stride="20"),
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["master", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 10.0
    assert len(seen) == 129
    assert all(isinstance(s, PureSample) for s in seen)
    assert all(s.state.amplitudes.shape == (1001,) for s in seen)
    _, data = read_rows(out / "master_timeseries.csv")
    assert len(data) == 129
    assert all(math.isfinite(float(x)) for row in data for x in row)


def test_sweep_summary(tmp_path):
    g = 0.1 * FIG6_OMEGA / 30
    cfg = write(
        tmp_path / "c.cfg",
        base_config(
            dt="0.005",
            sample_stride="200",
            sweep_param="gamma",
            sweep_values=f"{fmt(0.1 * g)},{fmt(3 * g)}",
        ),
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "sweep_summary.csv")
    assert len(data) == 2
    # stronger dephasing delays the first sub-unity crossing
    cross_weak = float(data[0][3])
    cross_strong = float(data[1][3])
    assert cross_weak < cross_strong
    # each row summarizes exactly the master run at that gamma
    for row, gamma in zip(data, (0.1 * g, 3 * g)):
        point_cfg = base_config(dt="0.005", sample_stride="200", gamma=fmt(gamma))
        point = write(tmp_path / "p.cfg", point_cfg)
        run_out = tmp_path / f"master_{row[0]}"
        assert main(["master", "--config", point, "--out", str(run_out)]) == EXIT_OK
        _, ts = read_rows(run_out / "master_timeseries.csv")
        i_min = int(np.argmin([float(r[5]) for r in ts]))
        assert row[1] == ts[i_min][5]
        assert row[2] == ts[i_min][1]


def test_validate_default_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(l.startswith("PASS") for l in lines)
    assert (out / "validation_report.csv").exists()


def test_validate_fault_injection_fails(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.cfg",
        base_config(t_max="100", dt="5.0", suites="normalization"),
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    assert any(l.startswith("FAIL") for l in capsys.readouterr().out.splitlines())


def test_validate_empty_suite_selection(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", base_config(suites='""'))
    # an empty suites value: nothing after '='
    cfg2 = write(tmp_path / "c2.cfg", base_config(suites=""))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg2, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "validation_report.csv")
    assert data == []


def test_validate_unknown_suite_name(tmp_path, capsys):
    for suites in ("fock,crosschek", "typo"):
        cfg = write(tmp_path / "c.cfg", base_config(suites=suites))
        code = main(["validate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["pure", "master"])
@pytest.mark.parametrize(
    "config_outcome, flag",
    [
        ("4,4", "4.5,4"),  # not an integer
        ("-1,4", None),  # negative; argparse would read -1,4 as a flag
        ("4,4", "2000000,0"),  # beyond the log-domain count capacity
    ],
    ids=["non_integer", "negative", "over_capacity"],
)
def test_bad_outcome_exit(tmp_path, capsys, command, config_outcome, flag):
    overrides = {"outcome": config_outcome}
    if command == "pure":
        overrides.update(t="0.01", g="1.0", t_max=None)
    cfg = write(tmp_path / "c.cfg", base_config(**overrides))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if flag is not None:
        argv += ["--outcome", flag]
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_outcome_flag_overrides_config(tmp_path):
    cfg = write(tmp_path / "c.cfg", base_config(t="0.01", g="1.0", t_max=None))
    out = tmp_path / "out"
    assert main(
        ["pure", "--config", cfg, "--out", str(out), "--outcome", "3,5"]
    ) == EXIT_OK
    header, _ = read_rows(out / "pure_pmf.csv")
    assert any("outcome = 3,5" in h for h in header)


def test_unreachable_outcome_exit(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", base_config(t="0.01", g="1.0", t_max=None))
    code = main(
        ["pure", "--config", cfg, "--out", str(tmp_path / "o"), "--outcome", "400,400"]
    )
    assert code == EXIT_BAD_INPUT
    assert "unreachable outcome" in capsys.readouterr().err


def test_step_bound_violation_exit(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", base_config(dt="5.0"))
    code = main(["master", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert "step bound" in capsys.readouterr().err


def test_dephasing_flag_and_seedless(tmp_path):
    # the Lindblad generator is the only dephasing form, so there is no
    # flag to choose one; nothing draws random numbers, so there is no
    # --seedless either
    cfg = write(tmp_path / "c.cfg", base_config())
    out = tmp_path / "out"
    for flag in (["--dephasing", "lindblad"], ["--seedless"]):
        with pytest.raises(SystemExit) as exc:
            main(["master", "--config", cfg, "--out", str(out), *flag])
        assert exc.value.code == EXIT_BAD_INPUT
        assert not out.exists()
    # validate conditions on no outcome, so it takes no --outcome
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--out", str(out), "--outcome", "3,5"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("dephasing_form", "lindblad"),
        ("tol_trace", "1e-8"),
        ("tol_herm", "1e-9"),
        ("out_dir", "x"),  # --out is the one output directory
    ],
)
def test_removed_config_keys_refused(tmp_path, capsys, key, value):
    cfg = write(tmp_path / "c.cfg", base_config(**{key: value}))
    code = main(["master", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"unknown key {key!r}" in err[0]
    assert not (tmp_path / "o").exists()


def _nan_rk4_step(gen, rho, ov, dt):
    return np.full_like(rho, np.nan)


def _nan_su2_propagators(params, first, count, dt):
    nan = np.full(count, np.nan, dtype=complex)
    return nan, nan


# a tiny gamma keeps a run on the density-matrix RK4 path, where a nan
# sample breaks Hermiticity first; gamma = 0 rotates the one-atom state,
# where it breaks the trace of the lifted projector
_STEPPERS = {
    "rk4": ("_rk4_step", _nan_rk4_step, "1e-6", "Hermiticity broken"),
    "rotation": ("_su2_propagators", _nan_su2_propagators, "0", "trace drift"),
}


@pytest.mark.parametrize(
    "command, stepper",
    [
        pytest.param(command, stepper, id=command if stepper == "rk4" else f"{command}-{stepper}")
        for stepper in _STEPPERS
        for command in ("master", "qfunc", "sweep")
    ],
)
def test_nan_sample_trips_drift_gate(tmp_path, capsys, monkeypatch, command, stepper):
    # an overflowed trajectory holds nan, whose drift compares false against
    # any tolerance; the per-sample gate of integrate must still reject it,
    # so every command of the master model exits 1 before conditioning
    name, overflowed, gamma, message = _STEPPERS[stepper]
    monkeypatch.setattr(master_eq, name, overflowed)
    cfg = write(
        tmp_path / "c.cfg",
        base_config(gamma=gamma, sweep_param="gamma", sweep_values=gamma),
    )
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert message in errors[0]


def test_overflowed_run_prints_one_error_line(tmp_path, capsys):
    # dt = 0.06 passes the step guard at N = 100 but the RK4 trajectory
    # overflows to nan; stderr carries the drift gate's error and no numpy
    # RuntimeWarning ahead of it.  gamma*N^2*dt = 6e-4 leaves the step
    # guard to tunneling while keeping the run on the RK4 path
    cfg = write(
        tmp_path / "c.cfg",
        base_config(
            n_atoms="100",
            gamma="1e-6",
            alpha=None,
            beta=None,
            theta="0.1",
            phi="0",
            g=fmt(FIG6_OMEGA / 1000),
            t_max="18",
            dt="0.06",
            sample_stride="300",
        ),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["master", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "error: Hermiticity broken at t=18.0: nan"
    ]


def test_pure_empty_well_gaussian_column_nan(tmp_path, capsys):
    # alpha = beta puts every atom in the left well (eta_r = 0): the
    # conditional Gaussian has zero width, so only its column is dropped
    half = fmt(math.sqrt(0.5))
    cfg = write(
        tmp_path / "c.cfg",
        base_config(alpha=half, beta=half, t="0.005", g="1.0", t_max=None),
    )
    out = tmp_path / "out"
    assert main(["pure", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "warning: Gaussian column unavailable: " in capsys.readouterr().err
    _, data = read_rows(out / "pure_pmf.csv")
    assert len(data) == 31
    assert all(row[2] == "nan" for row in data)
    assert float(data[30][1]) == pytest.approx(1.0, abs=1e-12)


def test_byte_identical_reruns(tmp_path):
    runs = {
        "pure": (
            base_config(t="0.005", g="1.0", t_max=None),
            ("pure_pmf.csv", "pure_detection_grid.csv"),
        ),
        "master": (
            base_config(q_omega_t="10", n_theta="16", n_phi="16"),
            ("master_timeseries.csv", "master_q_00.csv"),
        ),
        "qfunc": (base_config(n_theta="16", n_phi="16"), ("qfunc.csv",)),
        "sweep": (
            base_config(sweep_param="gamma", sweep_values="0,0.001"),
            ("sweep_summary.csv",),
        ),
    }
    for command, (text, names) in runs.items():
        cfg = write(tmp_path / f"{command}.cfg", text)
        out1, out2 = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert main([command, "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main([command, "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2
            assert b"\r" not in b1


@pytest.mark.parametrize(
    "case",
    ["missing", "directory", "not_utf8", "out_is_file", "out_under_file", "sweep_out_is_file"],
)
def test_missing_config_file(tmp_path, capsys, monkeypatch, case):
    # unreadable config or unwritable output: exit 2 with one error line
    cfg = write(tmp_path / "c.cfg", base_config(t="0.01", g="1.0", t_max=None))
    out = tmp_path / "out"
    command = "pure"
    if case == "missing":
        cfg = str(tmp_path / "nope.cfg")
    elif case == "directory":
        cfg = str(tmp_path)
    elif case == "not_utf8":
        (tmp_path / "c.cfg").write_bytes(b"n_atoms = 3\ntheta = 0.1\xff\n")
    else:
        out.write_text("a file, not a directory\n", encoding="utf-8")
    if case == "out_under_file":
        out = out / "sub"
    elif case == "sweep_out_is_file":
        # refused before the run: not one integration starts
        command = "sweep"
        cfg = write(tmp_path / "c.cfg", base_config(sweep_param="gamma", sweep_values="0,0.001"))
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_BAD_INPUT
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    if case == "sweep_out_is_file":
        assert calls == []
    if case in ("out_is_file", "out_under_file"):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "out"]
