"""Deterministic experiment driver emitting reproducible CSV data.

Subcommands: pure, master, qfunc, sweep, validate.  One table, _PARSERS,
types every config key, and write_csv writes every output from named
columns, floats in 17-significant-digit scientific notation.  Every file
header echoes the fully resolved configuration, so identical configs
produce byte-identical files.  A config or output path that cannot be
read or written exits 2.  Nothing here uses a random number generator.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
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
    AtomState,
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


def _parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"complex value must be 're' or 're,im', got {text!r}")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false, 1/0 or yes/no")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",")) if text.strip() else ()


def _parse_outcome(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"outcome must be 'nc,nd' or 'most-probable', got {text!r}")
    return int(parts[0]), int(parts[1])


# one parser per ExperimentConfig field; load_config reports a parser's
# ValueError as a ConfigError naming the key and the raw value
_PARSERS = {
    "n_atoms": int, "sample_stride": int, "n_theta": int, "n_phi": int,
    "theta": float, "phi": float, "omega": float, "g": float, "gamma": float,
    "t": float, "t_max": float, "dt": float,
    "alpha": _parse_complex, "beta": _parse_complex,
    "alpha_l": _parse_complex, "alpha_r": _parse_complex,
    "emit_q": _parse_bool,
    "q_omega_t": _parse_floats, "sweep_values": _parse_floats,
    "outcome": str, "sweep_param": str, "suites": str,
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented key = value file.

    [section] lines are organizational and ignored; '#' starts a comment;
    keys live in one flat namespace and unknown keys are an error.
    """
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
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
        return f"{fmt(value.real)},{fmt(value.imag)}"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, tuple):
        return ",".join(fmt(v) for v in value)
    return str(value)


def config_echo_lines(cfg: ExperimentConfig, command: str) -> list[str]:
    lines = [f"artifact = dwsqueeze {__version__}", f"command = {command}"]
    for name in sorted(_PARSERS):
        lines.append(f"{name} = {_echo_value(getattr(cfg, name))}")
    return lines


_CELL_FORMATS = {"f": "%.16e", "i": "%d"}
_BLOCK_ROWS = 1024


def write_csv(path: Path, header_lines: list[str], columns: dict):
    """Header lines, a '# columns:' line, then one row per column index.

    columns maps each name to a sequence, all of one length.  Float columns
    print as %.16e, the bytes of fmt (nan, inf and -0.0 included), integer
    columns as %d and anything else as given.  Rows are formatted a block
    at a time, so the text in memory stays O(block), not O(file).
    """
    arrays = [np.asarray(c) for c in columns.values()]
    row = ",".join(_CELL_FORMATS.get(a.dtype.kind, "%s") for a in arrays) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(f"# columns: {','.join(columns)}\n")
        for start in range(0, max(map(len, arrays)), _BLOCK_ROWS):
            cells = [a[start:start + _BLOCK_ROWS].tolist() for a in arrays]
            f.write("".join(row % r for r in zip(*cells, strict=True)))


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
        {"k": np.arange(cfg.n_atoms + 1), "p_exact": p_exact, "p_gaussian": p_gauss},
    )

    grid = detection_pmf_grid(state, light, setting)
    n_c, n_d = np.indices(grid.shape)
    write_csv(
        out_dir / "pure_detection_grid.csv",
        echo,
        {"n_c": n_c.ravel(), "n_d": n_d.ravel(), "p": grid.ravel()},
    )

    if cfg.emit_q:
        _write_q_csv(out_dir / "pure_q.csv", echo, cond, cfg)
    return EXIT_OK


def _write_q_csv(path: Path, echo: list[str], source, cfg: ExperimentConfig):
    qg = q_grid(source, cfg.n_theta, cfg.n_phi)
    write_csv(
        path,
        echo + ["orientation: physics convention, theta = 0 is the +z pole (no flip)"],
        {
            "theta": np.repeat(qg.thetas, qg.n_phi),
            "phi": np.tile(qg.phis, qg.n_theta),
            "q": qg.values.ravel(),
        },
    )


def _conditional_timeseries(
    params: ModelParams, samples, outcome: DetectionOutcome
) -> dict[str, np.ndarray]:
    """Conditional spin moments and sample drifts, one column entry per sample."""
    moments = [
        moments_from_density(conditional_density(params, s, outcome)) for s in samples
    ]
    t = np.array([s.t for s in samples])
    norm = 4.0 / params.n_atoms
    return {
        "t": t,
        "omega_t": params.omega * t,
        "jx_mean": np.array([m.jx_mean for m in moments]),
        "jy_mean": np.array([m.jy_mean for m in moments]),
        "jz_mean": np.array([m.jz_mean for m in moments]),
        "jx_var_norm": norm * np.array([m.jx_var for m in moments]),
        "jy_var_norm": norm * np.array([m.jy_var for m in moments]),
        "jz_var_norm": norm * np.array([m.jz_var for m in moments]),
        "trace_err": np.array([s.trace_error() for s in samples]),
        "herm_err": np.array([s.herm_error() for s in samples]),
    }


def _model(cfg: ExperimentConfig) -> tuple[ModelParams, AtomState, TimeGrid]:
    """The master model, its initial coherent state and its time grid."""
    params = ModelParams(
        n_atoms=cfg.n_atoms, omega=cfg.omega, g=cfg.g, gamma=cfg.gamma, light=cfg.light()
    )
    state = build_spin_coherent(cfg.ge(), cfg.n_atoms)
    return params, state, TimeGrid(cfg.t_max, cfg.dt, cfg.sample_stride)


def _evolve(
    cfg: ExperimentConfig,
) -> tuple[ModelParams, list[HybridState] | list[PureSample]]:
    """Integrate the initial coherent state; integrate validates every sample.

    At gamma = 0 the samples are rotated coherent states, else density matrices.
    """
    params, state, grid = _model(cfg)
    return params, integrate(params, state, grid)


def run_master(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Hybrid-equation time series of conditional moments, optional Q snapshots."""
    if cfg.t_max <= 0:
        raise ConfigError("master run requires t_max > 0")
    outcome = cfg.resolve_outcome()
    params, samples = _evolve(cfg)
    echo = config_echo_lines(cfg, "master")
    write_csv(
        out_dir / "master_timeseries.csv",
        echo + [f"outcome = {outcome.n_c},{outcome.n_d}"],
        _conditional_timeseries(params, samples, outcome),
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
        omega_t, jx_var = ts["omega_t"], ts["jx_var_norm"]
        i_min = int(np.argmin(jx_var))
        crossing = _first_crossing(omega_t, jx_var)
        rows.append((value, jx_var[i_min], omega_t[i_min], crossing))
    names = ("value", "min_jx_var_norm", "omega_t_at_min", "first_crossing_omega_t")
    write_csv(out_dir / "sweep_summary.csv", echo, dict(zip(names, np.array(rows).T)))
    return EXIT_OK


def _validation_suite(selected: set[str], entries: list | None) -> list[OracleReport]:
    """Selected suites in order; entries None means the default normalization matrix."""
    reports: list[OracleReport] = []
    if "normalization" in selected:
        reports.extend(normalization_sweep(entries))
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
    entries = None
    if cfg is None:
        cfg = ExperimentConfig(n_atoms=2)
        selected = set(VALIDATION_SUITES)
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
            entries = [_model(cfg)]

    reports = _validation_suite(selected, entries)
    echo = config_echo_lines(cfg, "validate")
    write_csv(
        out_dir / "validation_report.csv",
        echo,
        {
            "name": [r.name for r in reports],
            "max_abs_error": [r.max_abs_error for r in reports],
            "tolerance": [r.tolerance for r in reports],
            "passed": [str(r.passed).lower() for r in reports],
        },
    )
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} error={r.max_abs_error:.3e} tol={r.tolerance:.0e}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


_RUNNERS = {
    "pure": run_pure,
    "master": run_master,
    "qfunc": run_qfunc,
    "sweep": run_sweep,
    "validate": run_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwsqueeze",
        description="Two-mode condensate squeezing-by-detection simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "validate")
        p.add_argument("--out", default="out", help="output directory")
        if name != "validate":  # validate conditions on no outcome
            p.add_argument(
                "--outcome",
                default=None,
                help="photon-count pair 'nc,nd' or 'auto' (most probable)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        cfg = load_config(args.config) if args.config else None
        if getattr(args, "outcome", None):
            cfg = replace(cfg, outcome=args.outcome)
        # refused before the run, not by the first write after it
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise NotADirectoryError(f"--out {out}: a file is in the way")
        return _RUNNERS[args.command](cfg, out)
    except (ConfigError, OSError) as exc:
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
