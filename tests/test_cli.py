"""Config parsing, subcommand runs, CSV format, determinism, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

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
    TimeGrid,
    conditional_density,
    integrate,
)
from dwsqueeze.pure_measure import DetectionOutcome, LightPair
from dwsqueeze.spin_core import (
    AtomState,
    GroundExcitedAmplitudes,
    build_spin_coherent,
)
from dwsqueeze.validation import SUITES
from reference import analytic_precession

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
    # every field's annotation, optional or not, has one (parser, echo)
    # entry, and the keys load_config accepts are exactly the fields
    fields = dataclasses.fields(ExperimentConfig)
    for f in fields:
        entry = cli._TYPES.get(f.type.removesuffix(" | None"))
        assert entry is not None and cli._FIELDS[f.name] is entry, f.name
    assert set(cli._FIELDS) == {f.name for f in fields}


# every key set to a value other than its default; the two initial-state
# forms exclude each other, so each gets its own config
_EVERY_KEY = {
    "n_atoms": "17", "omega": "0.75", "g": "-0.125", "gamma": "1e-3",
    "alpha_l": "1.5,-0.25", "alpha_r": "-2,3.5", "t": "0.3", "t_max": "12.5",
    "dt": "0.0625", "sample_stride": "3", "outcome": "4,7", "n_theta": "9",
    "n_phi": "11", "emit_q": "true", "q_omega_t": "0.5,-2.25",
    "sweep_param": "gamma", "sweep_values": "1e-4,2e-4", "suites": "normalization",
}


@pytest.mark.parametrize("state", [
    {"alpha": "0.6,0.1", "beta": "-0.2,0.7"},
    {"theta": "0.4", "phi": "1.25"},
])
def test_echo_lines_load_back_to_the_config(tmp_path, state):
    text = "".join(f"{k} = {v}\n" for k, v in {**_EVERY_KEY, **state}.items())
    cfg = load_config(write(tmp_path / "c.cfg", text))
    default = ExperimentConfig()
    for key in (*_EVERY_KEY, *state):
        assert getattr(cfg, key) != getattr(default, key), key
    lines = cli.config_echo_lines(cfg, "sweep")
    assert lines[:2] == [f"artifact = dwsqueeze {cli.__version__}", "command = sweep"]
    echo = write(tmp_path / "echo.cfg", "\n".join(lines[2:]) + "\n")
    assert load_config(echo) == cfg
    # the unset initial-state form echoes as an empty value
    unset = {"alpha", "beta", "theta", "phi"}.difference(state)
    assert sorted(l for l in lines if l.endswith(" = ")) == [f"{k} = " for k in sorted(unset)]


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


def test_write_csv_matches_per_row_formatting(tmp_path, monkeypatch):
    # 7-row blocks; the float nodes alternate between cells the numpy encoder
    # writes and cells it hands to Python's % (zeros, nans, infs, an exact
    # tie, a power of ten whose log10 estimate is off), so with the row-wise
    # y column Python cells sit between encoded ones inside a block, and the
    # runs of the x column cross block edges; -0.0 and 0.0, and the two nan
    # bit patterns, are equal or unordered as values but keep their own bytes
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    tie = 1 + 2.0**-17  # 1.00000762939453125, 18 digits ending in 5
    nodes = np.array([math.pi, -0.0, -2.5e-300, np.nan, 1e23, 0.0, tie, -np.nan,
                      5e-324, np.inf, -1e-5, -np.inf])
    counts = np.array([3, 10**16, -7, 0, -(2**63), 9999])
    x, k = (g.ravel() for g in np.meshgrid(nodes, counts, indexing="ij"))
    columns = {
        "x": x,
        "k": k,
        "name": [f"r{i % 4}" for i in range(x.size)],
        "y": np.tile(nodes[::-1], counts.size),
    }
    write_csv(tmp_path / "t.csv", ["a = 1"], columns)
    arrays = [np.asarray(c) for c in columns.values()]
    row = ",".join({"f": "%.16e", "i": "%d"}.get(a.dtype.kind, "%s") for a in arrays) + "\n"
    naive = "# a = 1\n# columns: x,k,name,y\n" + "".join(
        row % r for r in zip(*(a.tolist() for a in arrays))
    )
    assert (tmp_path / "t.csv").read_bytes() == naive.encode()


def test_write_csv_grid_from_axes_matches_flat_columns(tmp_path, monkeypatch):
    # 7-row blocks cut through the 6-cell grid rows; the 5- and 6-cell axes
    # are encoded once and gathered by cell index, the 30-cell plane a block
    # at a time; float axes and values hold every kind of cell the encoder
    # hands to Python's % (0.0, -0.0, both nan bit patterns, +-inf and an
    # exact tie), and the int axis pair, as the detection grid's, holds
    # counts that %d formats too
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    nan, neg_nan = np.array([0x7FF8000000000000, 0xFFF8000000000000], np.uint64).view(float)
    tie = 1 + 2.0**-17
    thetas = np.array([0.0, -0.0, nan, tie, math.pi])
    phis = np.array([np.inf, -np.inf, neg_nan, -2.5e-300, -0.0, tie])
    nodes = [0.0, -0.0, nan, neg_nan, np.inf, -np.inf, tie, math.pi, 1e23, 5e-324, -1e-5]
    values = np.resize(np.array(nodes), (5, 6))
    n_c = np.array([0, -(2**63), 10**16, 9999, -3])
    n_d = np.array([10**16 - 1, 7, 0, -(10**16), 2**63 - 1, 10000])
    axes = {"theta": thetas[:, None], "phi": phis, "n_c": n_c[:, None], "n_d": n_d,
            "q": values}
    flat = {"theta": np.repeat(thetas, 6), "phi": np.tile(phis, 5),
            "n_c": np.repeat(n_c, 6), "n_d": np.tile(n_d, 5), "q": values.ravel()}
    write_csv(tmp_path / "axes.csv", ["a = 1"], axes)
    write_csv(tmp_path / "flat.csv", ["a = 1"], flat)
    row = "%.16e,%.16e,%d,%d,%.16e\n"
    naive = "# a = 1\n# columns: theta,phi,n_c,n_d,q\n" + "".join(
        row % r for r in zip(*(a.tolist() for a in flat.values()))
    )
    assert (tmp_path / "flat.csv").read_bytes() == naive.encode()
    assert (tmp_path / "axes.csv").read_bytes() == naive.encode()


def test_write_csv_broadcast_shapes(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    x = np.linspace(0.0, 1.0, 30)
    # a length-1 column broadcasts: it repeats on every row, past the first block
    write_csv(tmp_path / "t.csv", [], {"a": [2.5], "name": ["r"], "x": x})
    _, data = read_rows(tmp_path / "t.csv")
    assert data == [[fmt(2.5), "r", fmt(v)] for v in x]
    # shapes that do not broadcast are refused before the file is opened
    for columns in (
        {"theta": np.zeros((5, 1)), "phi": np.zeros(6), "q": np.zeros((4, 6))},
        {"i": np.arange(5), "x": np.zeros(6)},
        {"x": np.zeros((5, 6)), "y": np.zeros(5)},
    ):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "u" / "u.csv", [], columns)
        assert not (tmp_path / "u").exists()
    # no rows: the file is its header, whatever the columns' kinds
    write_csv(tmp_path / "e.csv", ["a = 1"], {"s": np.array([], str), "x": [], "k": []})
    assert (tmp_path / "e.csv").read_bytes() == b"# a = 1\n# columns: s,x,k\n"


def test_write_csv_grid_memory_stays_blocked(tmp_path):
    # a 1024 x 512 grid given as two axes and a value plane of zeros, so
    # every value cell falls back to Python's %.  One block's words are
    # W = _BLOCK_ROWS x 21 words x 4 bytes (7 per float cell).  A block
    # holds its three word matrices, their concatenation and its bytes
    # (3 W) and its text (under W), and the two axes are encoded once
    # (at most 2 x 28 x _BLOCK_ROWS bytes, 2/3 W), so the peak stays under
    # 5 W (about 3.4 W measured); one axis materialized at the grid's shape
    # would add 4 MB, 25 W
    cli._tables()  # the encoder's lookups, built once per process
    thetas = np.linspace(0.0, math.pi, 1024)
    phis = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    values = np.zeros((1024, 512))
    path = tmp_path / "g.csv"
    tracemalloc.start()
    try:
        write_csv(path, [], {"theta": thetas[:, None], "phi": phis, "q": values})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * cli._BLOCK_ROWS * 21 * 4
    spots = {0, 511, 512, 2047, 2048, 2049, 300_001, values.size - 1}
    with open(path, "rb") as f:
        assert f.readline() == b"# columns: theta,phi,q\n"
        for r, line in enumerate(f):
            if r in spots:
                i, j = divmod(r, 512)
                assert line == b"%.16e,%.16e,%.16e\n" % (thetas[i], phis[j], 0.0)
    assert r == values.size - 1


def _written_cells(tmp_path, column: np.ndarray) -> list[bytes]:
    write_csv(tmp_path / "c.csv", [], {"c": column})
    return (tmp_path / "c.csv").read_bytes().split(b"\n")[1:-1]


def test_float_cells_are_percent_e_bytes(tmp_path):
    # the numpy encoder against Python's %.16e, cell for cell
    rng = np.random.default_rng(20240601)
    patterns = rng.integers(0, 2**64, size=120_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, size=10_000, dtype=np.uint64)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    # j / 2^17 for odd j in [2^17, 10 2^17) has 18 digits ending in 5: an
    # exact tie at 17 digits, which %.16e rounds half to even; o / 2^t for
    # odd o with o 5^t of 18 digits is one too, at every exponent that has
    # ties (-8 to 15), including -7 and -8, where 10^(16 - E) is no double
    ties = [rng.choice(np.arange(2**17 + 1, 10 * 2**17, 2), size=10_000, replace=False) / 2.0**17]
    for t in range(2, 26):
        odd = rng.integers(-(-(10**17) // 5**t), (10**18 - 1) // 5**t, size=200) | 1
        ties.append(np.ldexp(odd[odd < 2**53].astype(float), -t))
    ties = np.concatenate(ties)
    assert all(("%.17e" % t).split("e")[0].endswith("5") for t in ties)
    edges = np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    signed = np.concatenate([patterns.view(np.float64), subnormal.view(np.float64),
                             neighbours, ties, edges])
    specials = np.array([0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000000, 0xFFF0000000000000], np.uint64).view(np.float64)
    x = np.concatenate([signed, -signed, specials])
    assert _written_cells(tmp_path, x) == [b"%.16e" % v for v in x.tolist()]


def test_int_cells_are_percent_d_bytes(tmp_path):
    rng = np.random.default_rng(20240602)
    edges = [0, -1, 1, 9, 10, 9999, 10000, -9999, -10000, 99999999, 10**8, 10**16 - 1,
             10**16, -(10**16) + 1, -(10**16), 2**63 - 1, -(2**63 - 1), -(2**63)]
    v = np.concatenate([np.array(edges, np.int64),
                        rng.integers(-(2**63), 2**63 - 1, size=20_000),
                        rng.integers(-(10**6), 10**6, size=20_000)])
    assert _written_cells(tmp_path, v) == [b"%d" % k for k in v.tolist()]
    small = np.array([-128, -5, 0, 7, 127], np.int8)
    assert _written_cells(tmp_path, small) == [b"%d" % k for k in small.tolist()]


@pytest.mark.parametrize(
    "gamma, grid",
    [
        ("0", {"q_omega_t": "5,10,15"}),
        ("0.01", {"q_omega_t": "5,10,15"}),
        # omega t exact on the samples: 0.046875 ties 0.03125 and 0.0625
        # and takes the earlier, and -1 and 100 lie off either end
        ("0.01", {"omega": "1", "t_max": "8", "dt": fmt(2.0**-5), "sample_stride": "1",
                  "q_omega_t": "0.046875,-1,100"}),
    ],
    ids=["0", "0.01", "tie-and-out-of-range"],
)
def test_master_q_files_match_one_grid_per_snapshot(tmp_path, gamma, grid):
    text = base_config(
        n_atoms="8", g=fmt(0.1 * FIG6_OMEGA / 8), gamma=gamma,
        n_theta="16", n_phi="16", **grid,
    )
    cfg = load_config(write(tmp_path / "c.cfg", text))
    out = tmp_path / "out"
    assert main(["master", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == EXIT_OK
    params = ModelParams(8, cfg.omega, cfg.g, cfg.gamma, cfg.light())
    state = build_spin_coherent(cfg.ge(), 8)
    samples = integrate(params, state, TimeGrid(cfg.t_max, cfg.dt, cfg.sample_stride))
    outcome = cfg.resolve_outcome()
    echo = cli.config_echo_lines(cfg, "master")
    for idx, target in enumerate(cfg.q_omega_t):
        best = min(samples, key=lambda s: abs(params.omega * s.t - target))
        cond = conditional_density(params, best.state, best.t, outcome)
        expected = tmp_path / f"expected_{idx:02d}.csv"
        cli._write_q_csv(
            expected,
            echo + [f"omega_t_requested = {fmt(target)}",
                    f"omega_t_actual = {fmt(params.omega * best.t)}"],
            q_grid(cond, 16, 16),
        )
        assert (out / f"master_q_{idx:02d}.csv").read_bytes() == expected.read_bytes()
    assert not (out / "master_q_03.csv").exists()
    if cfg.q_omega_t[0] == 0.046875:
        headers = [read_rows(out / f"master_q_{i:02d}.csv")[0] for i in range(3)]
        for header, actual in zip(headers, (0.03125, 0.0, 8.0)):
            assert f"# omega_t_actual = {fmt(actual)}" in header


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
    cond = conditional_density(params, last.state, last.t, DetectionOutcome(4, 4))
    ref = q_grid(cond, 32, 32)
    assert np.max(np.abs(q - ref.values)) < 1e-8


def test_master_rotation_reaches_1000_atoms(tmp_path, monkeypatch):
    # gamma = 0 never forms a 1001^2 matrix: the samples are state vectors
    # and the readout is O(N) per sample
    seen = []

    def recording(params, state, grid, reduce):
        def record(sample):
            seen.append(sample)
            return reduce(sample)

        return integrate(params, state, grid, record)

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
    assert all(isinstance(s.state, AtomState) for s in seen)
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
    _, data = read_rows(out / "validation_report.csv")
    # one name per report, in the CSV and on stdout alike
    names = [row[0] for row in data]
    assert len(set(names)) == len(names)
    assert [l.split()[1] for l in lines] == names


# each suite's rows at base_config, in the suite table's order
SUITE_ROWS = {
    "normalization": [
        f"{check}[N=30]"
        for check in ("completeness", "trace_drift", "hermiticity", "q_normalization")
    ],
    "fock": [
        "fock_expansion_vs_detection_pmf[gt=0]",
        "fock_expansion_vs_detection_pmf[gt=0.3]",
        "fock_expansion_vs_conditioning[N=2;gt=0;light=1:1]",
        "fock_expansion_vs_conditioning[N=2;gt=0.3;light=1:1]",
        "fock_expansion_vs_conditioning[N=2;gt=0.3;light=1:1.2e^0.5i]",
        "fock_expansion_vs_conditioning[N=30;gt=0.1;light=2:1.5e^0.5i]",
    ],
    "stirling": ["stirling_asymptotics"],
}


def test_validate_suite_selection(tmp_path):
    assert list(SUITES) == list(SUITE_ROWS)
    rows = {}
    for suites in (*SUITE_ROWS, "all"):
        cfg = write(tmp_path / "c.cfg", base_config(suites=suites))
        out = tmp_path / suites
        assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, rows[suites] = read_rows(out / "validation_report.csv")
    for suite, names in SUITE_ROWS.items():
        assert [row[0] for row in rows[suite]] == names
    # all: every suite's rows, cell for cell, in table order
    assert rows["all"] == [row for suite in SUITE_ROWS for row in rows[suite]]


def test_validate_fault_injection_fails(tmp_path, capsys, monkeypatch):
    # dt over the step bound: integrate refuses the run before its first
    # step, and every report that reads the trajectory fails
    steps = []
    monkeypatch.setattr(master_eq, "_rk4_step", lambda *args: steps.append(args))
    cfg = write(
        tmp_path / "c.cfg",
        base_config(t_max="100", dt="5.0", suites="normalization"),
    )
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    status = dict(reversed(l.split()[:2]) for l in lines)
    assert status == {
        "completeness[N=30]": "PASS",  # the detection grid takes no step
        "trace_drift[N=30]": "FAIL",
        "hermiticity[N=30]": "FAIL",
        "q_normalization[N=30]": "FAIL",
    }
    # each FAIL line, and no PASS line, ends with the refusal
    for line in lines:
        assert ("step bound" in line) == line.startswith("FAIL")
    assert steps == []


def test_validate_empty_suite_selection(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", base_config(suites='""'))
    # an empty suites value: nothing after '='
    cfg2 = write(tmp_path / "c2.cfg", base_config(suites=""))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg2, "--out", str(out)]) == EXIT_OK
    _, data = read_rows(out / "validation_report.csv")
    assert data == []


def test_validate_unknown_suite_name(tmp_path, capsys):
    # the fock suite checks both conditioning paths, so there is no
    # crosscheck suite: its name is unknown like any other
    for suites in ("fock,crosschek", "typo", "crosscheck"):
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
        ("4,4", "auto"),  # the most probable outcome is spelled most-probable
    ],
    ids=["non_integer", "negative", "over_capacity", "auto"],
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


def test_max_count_outcome_unreachable_fast(tmp_path, capsys):
    # n_c = MAX_COUNT grows the log-factorial table to 10^6 entries
    cfg = write(tmp_path / "c.cfg", base_config(t="0.01", g="1.0", t_max=None))
    start = time.perf_counter()
    code = main(
        ["pure", "--config", cfg, "--out", str(tmp_path / "o"), "--outcome", "1000000,0"]
    )
    elapsed = time.perf_counter() - start
    assert code == EXIT_BAD_INPUT
    assert "unreachable outcome" in capsys.readouterr().err
    assert elapsed < 1.0


def test_cli_import_leaves_scipy_out():
    # the CLI needs no scipy and none of numpy's heavier subpackages, which
    # would add to every CLI start-up (numpy.random alone takes about 20 ms
    # to import); the package root imports nothing at all
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # write_csv's encoder builds its lookups from ints on first use, so
    # importing the CLI loads neither fractions nor decimal and builds none;
    # only validate imports the oracle suites
    heavy = (
        "scipy", "numpy.random", "numpy.fft", "numpy.polynomial", "fractions", "decimal",
        "dwsqueeze.validation",
    )
    for module, absent in (("dwsqueeze.cli", heavy), ("dwsqueeze", ("numpy",))):
        probe = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]", module
    probe = "import dwsqueeze.cli as c; print(c._tables.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0"


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("master", {"n_atoms": "5000"}),
        ("master", {"dt": "-0.01"}),
        ("master", {"gamma": "-1"}),
        ("master", {"alpha": None, "beta": None, "theta": "4"}),
        ("pure", {"t": "-1", "g": "1.0", "t_max": None}),
        ("pure", {"alpha_l": "inf", "t": "0.01", "g": "1.0", "t_max": None}),
        ("master", {"alpha_l": "nan", "outcome": "most-probable"}),
        ("master", {"gamma": "1e-4", "q_omega_t": "10", "n_theta": "8"}),
        ("qfunc", {"n_phi": "8"}),
        ("sweep", {"sweep_param": "gamma", "sweep_values": "0,-1"}),
        ("sweep", {"sweep_param": "g", "sweep_values": "0", "t_max": "0"}),
        # a bad value outranks an earlier point over the step bound
        ("sweep", {"sweep_param": "gamma", "sweep_values": "1,-1"}),
        # a value that is not finite
        ("master", {"t_max": "inf"}),
        ("master", {"dt": "nan"}),
        ("master", {"omega": "nan"}),
        ("master", {"gamma": "nan"}),
        ("master", {"q_omega_t": "nan"}),
        ("pure", {"t": "inf", "g": "1.0", "t_max": None}),
        ("pure", {"t": "0.01", "g": "nan", "t_max": None}),
        ("sweep", {"sweep_param": "omega", "sweep_values": "1,inf"}),
        # a step count whose t_max / dt overflows
        ("master", {"t_max": "1e300", "dt": "1e-10"}),
        ("sweep", {"sweep_param": "gamma", "sweep_values": "0", "t_max": "1e300", "dt": "1e-10"}),
        # finite light whose intensity |alpha_l|^2 + |alpha_r|^2 overflows
        ("pure", {"alpha_l": "1e200", "t": "0.01", "g": "1.0", "t_max": None}),
        ("master", {"alpha_l": "1e200"}),
        ("sweep", {"alpha_l": "1e200", "sweep_param": "g", "sweep_values": "0.01"}),
        ("validate", {"alpha_l": "1e200"}),
        # a most-probable count over DetectionOutcome's capacity of 10^6
        ("pure", {"alpha_l": "1e6", "outcome": "most-probable", "t": "0.01", "t_max": None}),
        ("master", {"alpha_l": "1e6", "outcome": "most-probable"}),
        # a Q grid finer than MAX_GRID = MAX_ATOMS + 1
        ("qfunc", {"n_theta": "4098"}),
        ("master", {"q_omega_t": "10", "n_phi": "4098"}),
        # light whose detection grid would be over MAX_CUTOFF a side: a
        # most-probable count of 500000 asks for 507074, and validate's
        # normalization suite builds the grid of alpha_l = 1e6
        ("pure", {"alpha_l": "1e3", "outcome": "most-probable", "t": "0.01", "t_max": None}),
        ("validate", {"alpha_l": "1e6"}),
    ],
    ids=[
        "n_atoms", "dt", "gamma", "theta", "pure_t", "pure_light", "light_most_probable",
        "n_theta", "qfunc_n_phi", "sweep_point", "sweep_t_max", "sweep_bound_then_bad",
        "t_max_inf", "dt_nan", "omega_nan", "gamma_nan", "q_omega_t_nan", "pure_t_inf",
        "pure_g_nan", "sweep_values_inf", "step_overflow", "sweep_step_overflow",
        "pure_intensity", "master_intensity", "sweep_intensity", "validate_intensity",
        "pure_most_probable_count", "master_most_probable_count", "qfunc_grid_bound",
        "master_grid_bound", "pure_detection_grid_bound", "validate_detection_grid_bound",
    ],
)
def test_out_of_range_config_exit(tmp_path, capsys, monkeypatch, command, overrides):
    # a value a domain object refuses is bad input: exit 2 with one error
    # line, before any integration and before any output
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append(a))
    cfg = write(tmp_path / "c.cfg", base_config(**overrides))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert calls == []
    assert not out.exists()


def test_sweep_bad_value_names_its_point(tmp_path, capsys):
    # a point's value that its model refuses is bad input (exit 2), named
    # by the swept parameter and value, before any run
    cfg = write(tmp_path / "c.cfg", base_config(sweep_param="gamma", sweep_values="0.001,-1"))
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sweep gamma = -1.0: gamma must be nonnegative"]
    assert not out.exists()


def test_step_bound_violation_exit(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", base_config(dt="5.0"))
    code = main(["master", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert "step bound" in capsys.readouterr().err


def test_sweep_step_bound_refused_before_first_run(tmp_path, capsys, monkeypatch):
    # the second point's dt * gamma N^2 = 18 is over the bound; the sweep
    # is refused before the first point runs: no step is taken and no
    # sample is read out
    calls = []
    monkeypatch.setattr(master_eq, "_rk4_step", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "conditional_density", lambda *a: calls.append(a))
    cfg = write(
        tmp_path / "c.cfg", base_config(sweep_param="gamma", sweep_values="1e-5,1")
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "step bound" in err[0]
    assert err[0].startswith("error: sweep gamma = 1.0: step bound")
    assert calls == []
    assert not out.exists()


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
    rho.array[...] = np.nan


def _nan_su2_propagators(params, first, count, dt):
    nan = np.full(count, np.nan, dtype=complex)
    return nan, nan


# a tiny gamma keeps a run on the density-matrix RK4 path, where a nan
# sample fails the trace gate; gamma = 0 rotates the one-atom state, where
# it fails the norm gate before the lift
_STEPPERS = {
    "rk4": ("_rk4_step", _nan_rk4_step, "1e-6", "trace drift"),
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


@pytest.mark.parametrize(
    "values, poison, named",
    [
        # one point overflows
        ("1e-05,2e-05,3e-05", {1: 1}, "2e-05"),
        # two overflow: the earlier failing sample time wins ...
        ("1e-05,2e-05,3e-05", {0: 120, 2: 30}, "3e-05"),
        # ... and at one time, the first point in sweep order
        ("1e-05,2e-05,3e-05", {2: 1, 1: 1}, "2e-05"),
        # a gamma = 0 point is rotated, so stack index 0 is the second point
        ("0,0.0005", {0: 1}, "0.0005"),
    ],
    ids=["one", "earlier_time", "same_time", "with_rotation"],
)
def test_sweep_failure_names_its_point(tmp_path, capsys, monkeypatch, values, poison, named):
    # a nan in one point of the stepped stack fails that point's drift gate;
    # the error names the swept parameter and value, exit 1, no summary
    real = master_eq._rk4_step
    taken = []

    def poisoned(gen, rho, ov, dt):
        real(gen, rho, ov, dt)
        taken.append(None)
        for point, first in poison.items():
            if len(taken) >= first:
                rho.array[:, point] = np.nan

    monkeypatch.setattr(master_eq, "_rk4_step", poisoned)
    cfg = write(tmp_path / "c.cfg", base_config(sweep_param="gamma", sweep_values=values))
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CHECK_FAILED
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: sweep gamma = {named}: trace drift at t=")
    assert not (out / "sweep_summary.csv").exists()


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
        "error: trace drift at t=18.0: nan"
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




@pytest.mark.parametrize(
    "command, overrides, entries",
    [
        ("master", {"q_omega_t": "9"}, 31),
        ("master", {"gamma": "1e-3", "q_omega_t": "9"}, 31 * 31),
        ("sweep", {"sweep_param": "gamma", "sweep_values": "0,1e-3,2e-3"}, 31 * 31),
    ],
    ids=["rotation", "rho", "sweep"],
)
def test_readout_bytes_do_not_depend_on_the_chunk(
    tmp_path, monkeypatch, command, overrides, entries
):
    # the chunk bound at one sample, at 7 samples and at its default: the
    # readout takes chunks of those sizes, and every CSV keeps its bytes
    cfg = write(tmp_path / "c.cfg", base_config(**overrides))
    # every point samples the same grid, one master_timeseries.csv row per sample
    assert main(["master", "--config", cfg, "--out", str(tmp_path / "grid")]) == EXIT_OK
    _, data = read_rows(tmp_path / "grid" / "master_timeseries.csv")
    samples = len(data) * len(overrides.get("sweep_values", "0").split(","))
    real, outputs, sizes = cli.conditional_density, [], []
    for bound in (1, 7 * entries, master_eq._BATCH_ENTRIES):
        monkeypatch.setattr(master_eq, "_BATCH_ENTRIES", bound)
        chunks = []

        def recording(params, state, t, outcome):
            chunks.append(len(state))
            return real(params, state, t, outcome)

        monkeypatch.setattr(cli, "conditional_density", recording)
        out = tmp_path / f"out{bound}"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        # each sample is conditioned exactly once, a Q snapshot's included
        assert sum(chunks) == samples
        sizes.append(chunks)
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(sizes[0]) == {1}
    assert 7 in sizes[1] and max(sizes[1]) <= 7 * entries // 31
    assert max(sizes[2]) > 7


_RK4_STEP = master_eq._rk4_step


def poisoned_steps(monkeypatch, first_steps):
    """Make each stacked point nan from its given RK4 step of the next run on."""
    taken = []

    def step(gen, rho, ov, dt):
        _RK4_STEP(gen, rho, ov, dt)
        taken.append(None)
        for point, first in first_steps.items():
            if len(taken) >= first:
                rho.array[:, point] = np.nan

    monkeypatch.setattr(master_eq, "_rk4_step", step)


@pytest.mark.parametrize("bound", [1, None])
def test_readout_failure_beats_later_integrate_failure(tmp_path, capsys, monkeypatch, bound):
    # with PROB_FLOOR pinned between two samples' P, the outcome becomes
    # unreachable at a sample that the chunk still holds when a later
    # sample fails its drift gate: the earlier readout failure is raised
    import dwsqueeze.pure_measure as pure_measure

    params = ModelParams(5, FIG6_OMEGA, 0.02, 1e-3, LightPair(2.0, 2.0))
    state = build_spin_coherent(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 5)
    grid = TimeGrid(20.0, 0.02, 50)
    outcome = DetectionOutcome(4, 4)
    samples = integrate(params, state, grid)
    p = [
        pure_measure._reachable_factor(
            params.light, pure_measure.InteractionSetting(params.g, s.t), outcome,
            np.diag(s.state).real,
        )[2]
        for s in samples
    ]
    floor = 0.5 * (p[0] + min(p))
    j = next(i for i, v in enumerate(p) if v < floor)
    assert 0 < j < len(samples) - 2
    monkeypatch.setattr(pure_measure, "PROB_FLOOR", floor)
    if bound is not None:
        monkeypatch.setattr(master_eq, "_BATCH_ENTRIES", bound)
    poison = {0: (j + 1) * grid.sample_stride + 1}
    poisoned_steps(monkeypatch, poison)
    with pytest.raises(master_eq.IntegrationError, match="trace drift") as err:
        integrate(params, state, grid)
    assert err.value.t > samples[j].t
    poisoned_steps(monkeypatch, poison)
    with pytest.raises(pure_measure.ImpossibleOutcomeError, match=f"probability {p[j]:.3e}"):
        cli._moments_series(params, state, grid, outcome)
    poisoned_steps(monkeypatch, poison)
    cfg = write(tmp_path / "c.cfg", base_config(
        n_atoms="5", alpha=fmt(math.sqrt(0.3)), beta=fmt(math.sqrt(0.7)), g=fmt(params.g),
        gamma="1e-3", t_max="20", sample_stride="50",
    ))
    assert main(["master", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    assert "unreachable outcome: " in capsys.readouterr().err
    assert not (tmp_path / "o" / "master_timeseries.csv").exists()


def sweep_config(tmp_path, **overrides):
    """A sweep at N = 5 whose readouts run in a fraction of a second."""
    return write(tmp_path / "c.cfg", base_config(
        n_atoms="5", alpha=fmt(math.sqrt(0.3)), beta=fmt(math.sqrt(0.7)), g="0.02",
        gamma="1e-3", t_max="20", sample_stride="50", **overrides,
    ))


def failing_readout(monkeypatch, fail_at, error=master_eq.IntegrationError):
    """Refuse, as error, every sample of a point from its given time on."""
    real = cli.conditional_density

    def conditional_density(params, state, t, outcome):
        first = fail_at.get(params.gamma, math.inf)
        late = [u for u in (t if isinstance(t, list) else [t]) if u >= first]
        if late:
            raise error(f"imaginary residue at {late[0]}")
        return real(params, state, t, outcome)

    monkeypatch.setattr(cli, "conditional_density", conditional_density)


@pytest.mark.parametrize("bound", [1, None])
@pytest.mark.parametrize(
    "fail_at, poison, named, at",
    [
        # two readout failures: the earlier time wins, not the first point
        ({1e-3: 6.0, 2e-3: 3.0}, {}, "0.002", 3.0),
        # at one time, the first point in sweep order
        ({1e-3: 3.0, 2e-3: 3.0}, {}, "0.001", 3.0),
        # a readout failure at the time of a later point's drift failure
        ({1e-3: 3.0}, {1: 101}, "0.001", 3.0),
        # a drift failure before a held-back readout failure
        ({1e-3: 6.0}, {1: 51}, "0.002", 2.0),
    ],
    ids=["earlier_time", "same_time", "readout_before_gate", "gate_first"],
)
def test_sweep_readout_failure_names_its_point(
    tmp_path, capsys, monkeypatch, bound, fail_at, poison, named, at
):
    if bound is not None:
        monkeypatch.setattr(master_eq, "_BATCH_ENTRIES", bound)
    failing_readout(monkeypatch, fail_at)
    params = [ModelParams(5, FIG6_OMEGA, 0.02, gm, LightPair(2.0, 2.0)) for gm in (1e-3, 2e-3)]
    state = build_spin_coherent(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 5)
    grid = TimeGrid(20.0, 0.02, 50)
    poisoned_steps(monkeypatch, poison)
    with pytest.raises(master_eq.IntegrationError) as err:
        cli._moments_series(params, [state] * 2, grid, DetectionOutcome(4, 4))
    assert (err.value.point, err.value.t) == ((0.001, 0.002).index(float(named)), at)
    cfg = sweep_config(tmp_path, sweep_param="gamma", sweep_values="0.001,0.002")
    poisoned_steps(monkeypatch, poison)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: sweep gamma = {named}: ")
    assert (f"at {at}" in errors[0]) != ("trace drift" in errors[0])


@pytest.mark.parametrize("bound", [1, None])
def test_sweep_unreachable_outcome_names_its_point(tmp_path, capsys, monkeypatch, bound):
    # with PROB_FLOOR pinned between the two points' smallest P, one point's
    # readout refuses the outcome: still exit 2, and the point is named
    import dwsqueeze.pure_measure as pure_measure

    state = build_spin_coherent(GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7)), 5)
    grid = TimeGrid(20.0, 0.02, 50)
    outcome = DetectionOutcome(4, 4)
    smallest = {}
    for g in (0.04, 0.02):
        params = ModelParams(5, FIG6_OMEGA, g, 1e-3, LightPair(2.0, 2.0))
        smallest[g] = min(
            pure_measure._reachable_factor(
                params.light, pure_measure.InteractionSetting(g, s.t), outcome,
                np.diag(s.state).real,
            )[2]
            for s in integrate(params, state, grid)
        )
    named = min(smallest, key=smallest.get)
    monkeypatch.setattr(pure_measure, "PROB_FLOOR", 0.5 * sum(smallest.values()))
    if bound is not None:
        monkeypatch.setattr(master_eq, "_BATCH_ENTRIES", bound)
    cfg = sweep_config(tmp_path, sweep_param="g", sweep_values="0.04,0.02")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: unreachable outcome: sweep g = {named}: impossible")
    assert f"probability {smallest[named]:.3e}" in errors[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bound", [1, None])
def test_sweep_value_error_readout_names_its_point(tmp_path, capsys, monkeypatch, bound):
    # a readout refusal that is neither an IntegrationError nor an
    # unreachable outcome exits 1 and names its point too
    if bound is not None:
        monkeypatch.setattr(master_eq, "_BATCH_ENTRIES", bound)
    failing_readout(monkeypatch, {2e-3: 3.0}, ValueError)
    cfg = sweep_config(tmp_path, sweep_param="gamma", sweep_values="0.001,0.002")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == ["error: sweep gamma = 0.002: imaginary residue at 3.0"]
    assert not (tmp_path / "o").exists()
