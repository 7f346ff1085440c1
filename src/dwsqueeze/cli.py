"""Deterministic experiment driver emitting reproducible CSV data.

Subcommands: pure, master, qfunc, sweep, validate.  All numeric output
uses 17-significant-digit scientific notation and every file header
echoes the fully resolved configuration, so identical configs produce
byte-identical files.  Nothing here uses a random number generator.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .husimi import q_grid
from .master_eq import (
    HybridState,
    IntegrationError,
    ModelParams,
    PureSample,
    TimeGrid,
    conditional_density,
    integrate,
)
from .pure_measure import (
    AsymptoticsDomainError,
    DetectionOutcome,
    ImpossibleOutcomeError,
    InteractionSetting,
    LightPair,
    conditional_gaussian,
    conditional_state,
    detection_pmf_grid,
    most_probable_outcome,
)
from .spin_core import (
    BlochAngles,
    GroundExcitedAmplitudes,
    bloch_to_ge,
    build_spin_coherent,
    moments_from_density,
)
from .validation import (
    OracleReport,
    fock_oracle_report,
    me_vs_pure_crosscheck,
    normalization_sweep,
    stirling_regime_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

VALIDATION_SUITES = ("normalization", "fock", "crosscheck", "stirling")


def fmt(x: float) -> str:
    """17 significant digits, scientific; round-trips any double."""
    return f"{float(x):.16e}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{fmt(z.real)},{fmt(z.imag)}"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key = value experiment description; unknown keys are rejected."""

    n_atoms: int = 0
    alpha: complex | None = None
    beta: complex | None = None
    theta: float | None = None
    phi: float | None = None
    omega: float = 0.0
    g: float = 0.0
    gamma: float = 0.0
    alpha_l: complex = 0j
    alpha_r: complex = 0j
    t: float = 0.0
    t_max: float = 0.0
    dt: float = 1e-2
    sample_stride: int = 1
    outcome: str = "most-probable"
    n_theta: int = 64
    n_phi: int = 64
    emit_q: bool = False
    q_omega_t: tuple[float, ...] = ()
    sweep_param: str = ""
    sweep_values: tuple[float, ...] = ()
    suites: str = "all"
    out_dir: str = "out"

    def ge(self) -> GroundExcitedAmplitudes:
        has_ab = self.alpha is not None or self.beta is not None
        has_angles = self.theta is not None or self.phi is not None
        if has_ab and has_angles:
            raise ConfigError("give either (alpha, beta) or (theta, phi), not both")
        if has_ab:
            if self.alpha is None or self.beta is None:
                raise ConfigError("alpha and beta must be given together")
            return GroundExcitedAmplitudes(self.alpha, self.beta)
        if has_angles:
            return bloch_to_ge(
                BlochAngles(self.theta or 0.0, self.phi if self.phi is not None else 0.0)
            )
        raise ConfigError("initial state missing: set alpha/beta or theta/phi")

    def light(self) -> LightPair:
        return LightPair(self.alpha_l, self.alpha_r)

    def resolve_outcome(self) -> DetectionOutcome:
        if self.outcome in ("most-probable", "auto"):
            return most_probable_outcome(self.light())
        try:
            return DetectionOutcome(*_parse_outcome(self.outcome))
        except ValueError as exc:
            raise ConfigError(f"bad outcome {self.outcome!r}: {exc}") from exc


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {"n_atoms", "sample_stride", "n_theta", "n_phi"}
_FLOAT_KEYS = {"theta", "phi", "omega", "g", "gamma", "t", "t_max", "dt"}
_COMPLEX_KEYS = {"alpha", "beta", "alpha_l", "alpha_r"}
_BOOL_KEYS = {"emit_q"}
_FLOAT_TUPLE_KEYS = {"q_omega_t", "sweep_values"}


def _parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"complex value must be 're' or 're,im', got {text!r}")


def _parse_outcome(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"outcome must be 'nc,nd' or 'most-probable', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _COMPLEX_KEYS:
            return _parse_complex(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ConfigError(f"boolean key {key} got {raw!r}")
        if key in _FLOAT_TUPLE_KEYS:
            if not raw.strip():
                return ()
            return tuple(float(p) for p in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented key = value file.

    [section] lines are organizational and ignored; '#' starts a comment;
    keys live in one flat namespace and unknown keys are an error.
    """
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    cfg = ExperimentConfig(**values)
    if cfg.n_atoms < 1:
        raise ConfigError("n_atoms must be set to a positive integer")
    return cfg


def _echo_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return fmt_complex(value)
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, tuple):
        return ",".join(fmt(v) for v in value)
    return str(value)


def config_echo_lines(cfg: ExperimentConfig, command: str) -> list[str]:
    lines = [f"artifact = dwsqueeze {__version__}", f"command = {command}"]
    for name in sorted(_FIELD_TYPES):
        lines.append(f"{name} = {_echo_value(getattr(cfg, name))}")
    return lines


def write_csv(path: Path, header_lines: list[str], columns: list[str], rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(f"# columns: {','.join(columns)}\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _warn_asymptotics(cfg: ExperimentConfig, outcome: DetectionOutcome, gt: float):
    if outcome.n_c < 10 or outcome.n_d < 10:
        print(
            f"warning: photon counts ({outcome.n_c},{outcome.n_d}) below 10; "
            "Gaussian asymptotics unreliable",
            file=sys.stderr,
        )
    if gt * math.sqrt(cfg.n_atoms) > 0.5:
        print(
            f"warning: gt*sqrt(N) = {gt * math.sqrt(cfg.n_atoms):.3f} > 0.5; "
            "Gaussian asymptotics unreliable",
            file=sys.stderr,
        )


def run_pure(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Conditional pmf (exact and Gaussian), detection grid, optional Q grid."""
    state = build_spin_coherent(cfg.ge(), cfg.n_atoms)
    light = cfg.light()
    setting = InteractionSetting(g=cfg.g, t=cfg.t)
    outcome = cfg.resolve_outcome()
    _warn_asymptotics(cfg, outcome, setting.gt)
    echo = config_echo_lines(cfg, "pure")

    cond = conditional_state(state, light, setting, outcome)
    p_exact = cond.pmf()
    try:
        *_, pdf = conditional_gaussian(cfg.ge(), cfg.n_atoms, light, setting, outcome)
        p_gauss = pdf(np.arange(cfg.n_atoms + 1))
    except (AsymptoticsDomainError, ValueError) as exc:
        print(f"warning: Gaussian column unavailable: {exc}", file=sys.stderr)
        p_gauss = np.full(cfg.n_atoms + 1, np.nan)
    write_csv(
        out_dir / "pure_pmf.csv",
        echo + [f"outcome = {outcome.n_c},{outcome.n_d}"],
        ["k", "p_exact", "p_gaussian"],
        ([str(k), fmt(p_exact[k]), fmt(p_gauss[k])] for k in range(cfg.n_atoms + 1)),
    )

    grid = detection_pmf_grid(state, light, setting)
    write_csv(
        out_dir / "pure_detection_grid.csv",
        echo,
        ["n_c", "n_d", "p"],
        (
            [str(nc), str(nd), fmt(grid[nc, nd])]
            for nc in range(grid.shape[0])
            for nd in range(grid.shape[1])
        ),
    )

    if cfg.emit_q:
        _write_q_csv(out_dir / "pure_q.csv", echo, cond, cfg)
    return EXIT_OK


def _write_q_csv(path: Path, echo: list[str], source, cfg: ExperimentConfig):
    qg = q_grid(source, cfg.n_theta, cfg.n_phi)
    write_csv(
        path,
        echo + ["orientation: physics convention, theta = 0 is the +z pole (no flip)"],
        ["theta", "phi", "q"],
        (
            [fmt(qg.thetas[i]), fmt(qg.phis[j]), fmt(qg.values[i, j])]
            for i in range(cfg.n_theta)
            for j in range(cfg.n_phi)
        ),
    )


def _conditional_timeseries(params: ModelParams, samples, outcome: DetectionOutcome):
    """One row of floats per sample, in _TIMESERIES_COLUMNS order."""
    rows = []
    for s in samples:
        cond = conditional_density(params, s, outcome)
        m = moments_from_density(cond)
        norm = 4.0 / params.n_atoms
        rows.append(
            [
                s.t,
                params.omega * s.t,
                m.jx_mean,
                m.jy_mean,
                m.jz_mean,
                norm * m.jx_var,
                norm * m.jy_var,
                norm * m.jz_var,
                s.trace_error(),
                s.herm_error(),
            ]
        )
    return rows


_TIMESERIES_COLUMNS = [
    "t", "omega_t", "jx_mean", "jy_mean", "jz_mean",
    "jx_var_norm", "jy_var_norm", "jz_var_norm", "trace_err", "herm_err",
]


def _evolve(
    cfg: ExperimentConfig,
) -> tuple[ModelParams, list[HybridState] | list[PureSample]]:
    """Integrate the initial coherent state; integrate validates every sample.

    At gamma = 0 the samples are rotated coherent states, else density matrices.
    """
    params = ModelParams(
        n_atoms=cfg.n_atoms, omega=cfg.omega, g=cfg.g, gamma=cfg.gamma, light=cfg.light()
    )
    state = build_spin_coherent(cfg.ge(), cfg.n_atoms)
    samples = integrate(params, state, TimeGrid(cfg.t_max, cfg.dt, cfg.sample_stride))
    return params, samples


def run_master(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Hybrid-equation time series of conditional moments, optional Q snapshots."""
    if cfg.t_max <= 0:
        raise ConfigError("master run requires t_max > 0")
    outcome = cfg.resolve_outcome()
    params, samples = _evolve(cfg)
    echo = config_echo_lines(cfg, "master")
    rows = _conditional_timeseries(params, samples, outcome)
    write_csv(
        out_dir / "master_timeseries.csv",
        echo + [f"outcome = {outcome.n_c},{outcome.n_d}"],
        _TIMESERIES_COLUMNS,
        ([fmt(x) for x in row] for row in rows),
    )

    for idx, target in enumerate(cfg.q_omega_t):
        best = min(samples, key=lambda s: abs(params.omega * s.t - target))
        cond = conditional_density(params, best, outcome)
        _write_q_csv(
            out_dir / f"master_q_{idx:02d}.csv",
            echo + [f"omega_t_requested = {fmt(target)}",
                    f"omega_t_actual = {fmt(params.omega * best.t)}"],
            cond,
            cfg,
        )
    return EXIT_OK


def run_qfunc(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Q grid of the conditional state; master evolution when t_max > 0."""
    outcome = cfg.resolve_outcome()
    echo = config_echo_lines(cfg, "qfunc")
    if cfg.t_max > 0:
        params, samples = _evolve(cfg)
        source = conditional_density(params, samples[-1], outcome)
    else:
        state = build_spin_coherent(cfg.ge(), cfg.n_atoms)
        source = conditional_state(
            state, cfg.light(), InteractionSetting(g=cfg.g, t=cfg.t), outcome
        )
    _write_q_csv(out_dir / "qfunc.csv", echo, source, cfg)
    return EXIT_OK


def _first_crossing(omega_t: np.ndarray, values: np.ndarray) -> float:
    """First downward crossing of 1, or nan when the curve never dips."""
    for i in range(1, len(values)):
        if values[i - 1] >= 1.0 > values[i]:
            return float(omega_t[i])
    return math.nan


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Repeat the master run over one parameter, summarizing squeezing per point."""
    if cfg.sweep_param not in ("g", "gamma", "omega"):
        raise ConfigError("sweep_param must be one of g, gamma, omega")
    if not cfg.sweep_values:
        raise ConfigError("sweep_values must be a nonempty list")
    if cfg.t_max <= 0:
        raise ConfigError("sweep requires t_max > 0")
    # the outcome depends on the light only, never on the swept parameter
    outcome = cfg.resolve_outcome()
    echo = config_echo_lines(cfg, "sweep")
    rows = []
    for value in cfg.sweep_values:
        params, samples = _evolve(replace(cfg, **{cfg.sweep_param: value}))
        ts = _conditional_timeseries(params, samples, outcome)
        omega_t = np.array([r[1] for r in ts])
        jx_var = np.array([r[5] for r in ts])
        i_min = int(np.argmin(jx_var))
        rows.append(
            [
                fmt(value),
                fmt(jx_var[i_min]),
                fmt(omega_t[i_min]),
                fmt(_first_crossing(omega_t, jx_var)),
            ]
        )
    write_csv(
        out_dir / "sweep_summary.csv",
        echo,
        [
            "value",
            "min_jx_var_norm",
            "omega_t_at_min",
            "first_crossing_omega_t",
        ],
        rows,
    )
    return EXIT_OK


def _default_validation_suite(selected: set[str]) -> list[OracleReport]:
    reports: list[OracleReport] = []
    if "normalization" in selected:
        reports.extend(normalization_sweep())
    if "fock" in selected:
        ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
        st = build_spin_coherent(ge, 2)
        light = LightPair(1.0, 1.0)
        for gt in (0.0, 0.3):
            reports.append(
                fock_oracle_report(st, light, InteractionSetting(1.0, gt), 12)
            )
    if "crosscheck" in selected:
        ge = GroundExcitedAmplitudes(math.sqrt(0.3), math.sqrt(0.7))
        params = ModelParams(
            n_atoms=30, omega=0.0, g=1.0, gamma=0.0, light=LightPair(2.0, 2.0)
        )
        reports.append(
            me_vs_pure_crosscheck(
                params, build_spin_coherent(ge, 30), DetectionOutcome(4, 4), t=0.1
            )
        )
    if "stirling" in selected:
        reports.append(
            stirling_regime_check(
                GroundExcitedAmplitudes(0.0, 1.0),
                200,
                LightPair(math.sqrt(20.0), math.sqrt(20.0)),
                InteractionSetting(1.0, 0.005),
            )
        )
    return reports


def run_validate(cfg: ExperimentConfig | None, out_dir: Path) -> int:
    """Oracle suites; exit 0 iff every report passes.

    Without a config the default suites run.  With a config, the
    normalization checks run on the configured parameters instead, which
    doubles as the fault-injection path (for example an unstable dt).
    """
    if cfg is None:
        cfg = ExperimentConfig(n_atoms=2)
        reports = _default_validation_suite(set(VALIDATION_SUITES))
    else:
        selected = (
            set(VALIDATION_SUITES)
            if cfg.suites == "all"
            else {s.strip() for s in cfg.suites.split(",") if s.strip()}
        )
        unknown = selected.difference(VALIDATION_SUITES)
        if unknown:
            raise ConfigError(
                f"unknown suites {sorted(unknown)}; choose from {VALIDATION_SUITES}"
            )
        if "normalization" in selected:
            ge = cfg.ge()
            entry = {
                "n_atoms": cfg.n_atoms,
                "omega": cfg.omega,
                "g": cfg.g,
                "gamma": cfg.gamma,
                "alpha": ge.alpha,
                "beta": ge.beta,
                "alpha_l": cfg.alpha_l,
                "alpha_r": cfg.alpha_r,
                "t_max": cfg.t_max,
                "dt": cfg.dt,
                "sample_stride": cfg.sample_stride,
            }
            reports = normalization_sweep([entry])
            reports.extend(_default_validation_suite(selected - {"normalization"}))
        else:
            reports = _default_validation_suite(selected)

    echo = config_echo_lines(cfg, "validate")
    write_csv(
        out_dir / "validation_report.csv",
        echo,
        ["name", "max_abs_error", "tolerance", "passed"],
        (
            [r.name, fmt(r.max_abs_error), fmt(r.tolerance), str(r.passed).lower()]
            for r in reports
        ),
    )
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} error={r.max_abs_error:.3e} tol={r.tolerance:.0e}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwsqueeze",
        description="Two-mode condensate squeezing-by-detection simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("pure", True),
        ("master", True),
        ("qfunc", True),
        ("sweep", True),
        ("validate", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--outcome",
            default=None,
            help="photon-count pair 'nc,nd' or 'auto' (most probable)",
        )
    return parser


_RUNNERS = {
    "pure": run_pure,
    "master": run_master,
    "qfunc": run_qfunc,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if cfg is not None and args.outcome:
            cfg = replace(cfg, outcome=args.outcome)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir if cfg else "out")
        if args.command == "validate":
            return run_validate(cfg, out_dir)
        if cfg is None:
            raise ConfigError(f"{args.command} requires --config")
        return _RUNNERS[args.command](cfg, out_dir)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ImpossibleOutcomeError as exc:
        print(f"error: unreachable outcome: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
