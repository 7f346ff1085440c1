"""Deterministic experiment driver emitting reproducible CSV data.

Subcommands: pure, master, qfunc, sweep, validate.  ExperimentConfig's
fields are the config keys, each declared once: one table, _TYPES,
parses and echoes a key by its field's annotation.  write_csv writes
every output from named columns, floats in 17-significant-digit
scientific notation: the bytes of Python's %.16e, encoded in numpy a
block of rows at a time.  Every file header echoes the fully resolved
configuration, so identical configs produce byte-identical files.  A
config or output path that cannot be read or written, or a config value
that is out of its range or not finite, exits 2 before any work.  master
and sweep buffer each point's gated samples and read them out a chunk at
a time, with one conditional_density and one moments_from_density call
per chunk, so the per-sample numpy call overhead is paid per chunk and
each sample is conditioned once (master's Q snapshots keep their
conditioned states); a row's bits and the error a run raises do not
depend on the chunk.  validate selects suites from validation.SUITES and
only writes their reports; validation is imported by validate alone.
Nothing here uses a random number generator.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, master_eq
from .husimi import QGrid, check_grid, q_grid
from .master_eq import (
    IntegrationError,
    ModelParams,
    TimeGrid,
    conditional_density,
    integrate,
)
from .pure_measure import (
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

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def fmt(x: float) -> str:
    """17 significant digits, scientific; round-trips any double."""
    return f"{float(x):.16e}"


class ConfigError(ValueError):
    pass


@contextmanager
def _config_values():
    """Report a domain object's refusal of a config value as bad input (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
        with _config_values():
            return LightPair(self.alpha_l, self.alpha_r)

    def resolve_outcome(self) -> DetectionOutcome:
        if self.outcome == "most-probable":
            with _config_values():  # a count over DetectionOutcome's capacity
                return most_probable_outcome(self.light())
        try:
            return DetectionOutcome(*_parse_outcome(self.outcome))
        except ValueError as exc:
            raise ConfigError(f"bad outcome {self.outcome!r}: {exc}") from exc


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return complex(_parse_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_parse_float(parts[0]), _parse_float(parts[1]))
    raise ConfigError(f"complex value must be 're' or 're,im', got {text!r}")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false, 1/0 or yes/no")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",")) if text.strip() else ()


def _parse_outcome(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"outcome must be 'nc,nd' or 'most-probable', got {text!r}")
    return int(parts[0]), int(parts[1])


# (parser, echo) per field annotation; load_config reports a parser's
# ValueError as a ConfigError naming the key and the raw value
_TYPES = {
    "int": (int, str),
    "float": (_parse_float, fmt),
    "complex": (_parse_complex, lambda z: f"{fmt(z.real)},{fmt(z.imag)}"),
    "bool": (_parse_bool, lambda b: str(b).lower()),
    "tuple[float, ...]": (_parse_floats, lambda v: ",".join(map(fmt, v))),
    "str": (str, str),
}
# config key -> its _TYPES entry; an optional field takes that of its type
_FIELDS = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in fields(ExperimentConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a line-oriented key = value file.

    [section] lines are organizational and ignored; '#' starts a comment;
    keys live in one flat namespace, ExperimentConfig's fields, and
    unknown keys are an error.  Each value is parsed by the _TYPES entry
    of its field's annotation; an empty value leaves an optional field
    (one that defaults to None) unset, so config_echo_lines' key = value
    lines load back to the config they echo.
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
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        # an empty value, the echo of an unset optional field, leaves it unset
        unset = not raw and getattr(ExperimentConfig, key) is None
        try:
            values[key] = None if unset else _FIELDS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    cfg = ExperimentConfig(**values)
    if cfg.n_atoms < 1:
        raise ConfigError("n_atoms must be set to a positive integer")
    return cfg


def config_echo_lines(cfg: ExperimentConfig, command: str) -> list[str]:
    """The artifact and command lines, then every key = value in key order.

    A value is echoed by the _TYPES entry of its field's annotation, so a
    float field prints as fmt even when it holds an int, and load_config
    reads the echo back to an equal config; an unset optional field
    echoes an empty value.
    """
    lines = [f"artifact = dwsqueeze {__version__}", f"command = {command}"]
    for name, (_, echo) in sorted(_FIELDS.items()):
        value = getattr(cfg, name)
        lines.append(f"{name} = {'' if value is None else echo(value)}")
    return lines


_BLOCK_ROWS = 2048
_K0 = -294  # 10^k for k >= _K0: 16 - E over every double's decimal exponent E, and spare
_E0 = -330  # the least exponent in the exponent lookup


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The cell encoder's lookups, built on first use from integer arithmetic.

    groups[i] is i < 10^4 as four ASCII digits in one '<u4' word, then
    groups[10^4 + i] the same without leading zeros (i = 0 keeps one) and
    groups[2 10^4 + i] four NULs.  exponent[E - _E0] is 'e%+03d' % E in two
    words.  For k = _K0 + j, 10^k = (hi + lo) 2^shift[j] to a relative
    2^-105, where power[j] is (hi, hh, hl, lo), hi in [0.5, 1) and hh + hl
    hi in Dekker's halves.
    """
    d = np.arange(10000, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], np.int16)
    digit = (48 + d // places % 10).astype(np.uint8)
    pad = digit * (d >= places * (places > 1))
    groups = np.concatenate((digit, pad, 0 * pad)).view("<u4").ravel()
    texts = (b"e%+03d" % E for E in range(_E0, 320))
    exponent = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u4").reshape(-1, 2)
    power, shift = [], []
    for k in range(_K0, 343):
        p = 10 ** abs(k)
        n = p.bit_length()  # 10^k ~ m 2^b with m of 110 or 111 bits
        m, b = ((p << 110) >> n, n - 110) if k >= 0 else ((1 << n + 110) // p, -n - 110)
        hi, ex = math.frexp(float(m))  # m rounded to 53 bits
        power.append((hi, math.ldexp(m - int(math.ldexp(hi, ex)), -ex)))
        shift.append(ex + b)
    hi, lo = np.array(power).T
    return groups, exponent, np.stack((hi, *_halves(hi), lo), 1), np.array(shift, np.int32)


def _halves(a):
    """a as high + low, each of 26 bits (Veltkamp), for Dekker's exact product."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _floor_frac(m, e, E, power, shift):
    """floor(y) and y - floor(y) of y = m 2^e 10^(16 - E), m in [0.5, 1).

    y is the unevaluated sum yh + yl of Dekker's exact product m hi and a
    rounded m lo, within 2^-102 of y relative and so within 2^-45 at
    y < 1e17, where yh is an integer.  Below 2^53, floor(y) is only known
    to lie under 10^16.
    """
    j = 16 - _K0 - E
    hi, hh, hl, lo = power.take(j, 0).T
    p = m * hi
    mh, ml = _halves(m)
    s = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * lo
    yh = p + s
    scale = e + shift.take(j)
    yl = np.ldexp(s - (yh - p), scale)
    floor = np.floor(yl)
    return np.ldexp(yh, scale).astype(np.int64) + floor.astype(np.int64), yl - floor


def _groups(u):
    """u < 10^16 as four groups of four digits, most significant first."""
    high = u // 10**8
    low = u - high * 10**8
    a = high // 10**4
    b = low // 10**4
    return a, high - a * 10**4, b, low - b * 10**4


def _fallback(out, undecided, cells, form):
    """Write each undecided cell as Python's form % cell, NUL padded."""
    for i in np.flatnonzero(undecided):
        out[i] = np.frombuffer((form % cells[i]).encode().ljust(4 * out.shape[1], b"\0"), "<u4")


def _float_words(x: np.ndarray) -> np.ndarray:
    """%.16e of each cell in 7 '<u4' words a row, NUL padded.

    A cell is the 17 digits D of y = |x| 10^(16 - E) rounded, E from log10.
    Cells it cannot decide fall back to Python: 0, nan, inf, a y within
    1e-6 of a half, and a y outside [1e16, 1e17 - 1/2), which only a few
    ulp next to a power of ten reach.
    """
    groups, exponent, *power = _tables()
    x = x.astype(np.float64, copy=False)
    ax = np.abs(x)
    ok = (ax > 0) & (ax < np.inf)  # not 0, nan or inf
    ax[~ok] = 1.0
    m, e = np.frexp(ax)
    E = np.floor(np.log10(ax)).astype(int)
    floor, frac = _floor_frac(m, e, E, *power)
    D = floor + (frac > 0.5)
    ok &= (floor >= 10**16) & (D < 10**17) & (np.abs(frac - 0.5) > 1e-6)
    lead = D // 10**16
    out = np.empty((len(x), 7), "<u4")
    out[:, 0] = (lead << 8) + (x < 0) * 45 + (46 << 16 | 48 << 8)  # '-d.'
    for col, g in enumerate(_groups(D - lead * 10**16), 1):
        out[:, col] = groups.take(g)
    out[:, 5], out[:, 6] = exponent.take(E - _E0, 0).T
    _fallback(out, ~ok, x, "%.16e")
    return out


def _int_words(v: np.ndarray) -> np.ndarray:
    """%d of each cell in 6 '<u4' words a row, NUL padded; |v| >= 10^16 falls back."""
    groups = _tables()[0]
    v = v.astype(np.int64, copy=False)
    ok = (v > -(10**16)) & (v < 10**16)
    u = np.abs(np.where(ok, v, 0))
    # per group: 0 all digits, 1 no leading zeros, 2 none, as u starts later
    kind = [2 - (u >= 10**(s - 4)) - (u >= 10**s) for s in (16, 12, 8)] + [1 - (u >= 10**4)]
    out = np.zeros((len(v), 6), "<u4")
    out[:, 0] = (v < 0) * 45
    for col, (g, k) in enumerate(zip(_groups(u), kind), 1):
        out[:, col] = groups.take(g + 10000 * k)
    _fallback(out, ~ok, v, "%d")
    return out


_WORDS = {"f": _float_words, "i": _int_words}


def _text_words(a: np.ndarray) -> np.ndarray:
    """%s of each cell in UTF-8, as '<u4' words a row that end in a NUL."""
    cells = [("%s" % v).encode() for v in a.tolist()]
    width = 4 * (max(map(len, cells)) // 4 + 1)
    return np.array(cells, f"S{width}").view("<u4").reshape(len(cells), -1)


def _block_text(block: list[np.ndarray]) -> bytes:
    """One block of rows as CSV text.

    Each cell's words, its ',' or '\\n' in the top byte of its last word,
    go into one (rows, words) matrix, whose NUL pad bytes one pass drops.
    """
    parts = [_WORDS.get(a.dtype.kind, _text_words)(a) for a in block]
    for words, sep in zip(parts, [44] * (len(parts) - 1) + [10]):
        words[:, -1] |= sep << 24
    return np.concatenate(parts, 1).tobytes().translate(None, b"\0")


def write_csv(path: Path, header_lines: list[str], columns: dict):
    """Header lines, a '# columns:' line, then one row per column index.

    columns maps each name to a sequence, all of one length.  Float columns
    print as %.16e, the bytes of fmt (nan, inf and -0.0 included), integer
    columns as %d and anything else as %s, which must hold no NUL.  Rows
    are encoded a block at a time in numpy, so memory stays O(block), not
    O(file).  A float cell is the 17 digits of a double-double within 2^-45
    of y = |x| 10^(16 - E).  Zero, nan and inf, a y within 1e-6 of a
    rounding tie and the rare y that log10's E puts outside [1e16, 1e17)
    are Python's own %, so every byte is as %.16e, ties half to even.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    if len({len(a) for a in arrays}) != 1:
        raise ValueError(f"columns of unequal lengths {[len(a) for a in arrays]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        lines = [*header_lines, f"columns: {','.join(columns)}"]
        f.write("".join(f"# {line}\n" for line in lines).encode())
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            f.write(_block_text([a[start:start + _BLOCK_ROWS] for a in arrays]))


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


def _pure_model(cfg: ExperimentConfig) -> tuple[AtomState, InteractionSetting]:
    """The pure model's initial coherent state and its interaction setting."""
    with _config_values():
        return build_spin_coherent(cfg.ge(), cfg.n_atoms), InteractionSetting(cfg.g, cfg.t)


def _check_q_grid(cfg: ExperimentConfig):
    """Refuse a requested Q grid that q_grid would refuse, before any work."""
    with _config_values():
        check_grid(cfg.n_theta, cfg.n_phi)


def run_pure(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Conditional pmf (exact and Gaussian), detection grid, optional Q grid."""
    state, setting = _pure_model(cfg)
    if cfg.emit_q:
        _check_q_grid(cfg)
    light = cfg.light()
    outcome = cfg.resolve_outcome()
    _warn_asymptotics(cfg, outcome, setting.gt)
    echo = config_echo_lines(cfg, "pure")

    cond = conditional_state(state, light, setting, outcome)
    p_exact = cond.pmf()
    try:
        *_, pdf = conditional_gaussian(cfg.ge(), cfg.n_atoms, light, setting, outcome)
        p_gauss = pdf(np.arange(cfg.n_atoms + 1))
    except ValueError as exc:  # AsymptoticsDomainError included
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
        _write_q_csv(out_dir / "pure_q.csv", echo, q_grid(cond, cfg.n_theta, cfg.n_phi))
    return EXIT_OK


def _write_q_csv(path: Path, echo: list[str], qg: QGrid):
    write_csv(
        path,
        echo + ["orientation: physics convention, theta = 0 is the +z pole (no flip)"],
        {
            "theta": np.repeat(qg.thetas, qg.n_phi),
            "phi": np.tile(qg.phis, qg.n_theta),
            "q": qg.values.ravel(),
        },
    )


# what a readout raises to refuse a sample
_REFUSALS = (ValueError, AssertionError, IntegrationError)


def _moments_series(points, states, grid, outcome, watch=lambda t, cond: None) -> list:
    """(t, conditional moments, trace_err, herm_err) per sample, in time order.

    One integrate call runs the points, given as to integrate: one point
    gives its list of rows, a list of points a list of them.  Each
    point's samples are buffered and read out a chunk at a time, by one
    conditional_density and one moments_from_density call, once the
    buffer holds master_eq._BATCH_ENTRIES state entries and when the run
    ends, so each sample is conditioned once.  watch is called as
    watch(t, conditioned state) for each sample of a chunk, in time
    order, once that chunk has read out cleanly; by default it does
    nothing.  A row's bits do not depend on the chunk.  The error raised
    is that of a sample-by-sample readout: when a chunk fails, every
    buffered sample is read out again alone in (time, point) order, and
    the first failure is raised, whatever its type, tagged with its t and
    point as integrate tags its own; an integrate failure is raised only
    once the buffered samples, all made before it, have read out cleanly.
    """
    single = isinstance(points, ModelParams)
    batch = [points] if single else list(points)
    pending = [[] for _ in batch]
    rows = [[] for _ in batch]

    def read_out(i, samples):
        conds = conditional_density(batch[i], [s.state for s in samples],
                                    [s.t for s in samples], outcome)
        moments = moments_from_density(conds)
        return conds, [(s.t, m, s.trace_err, s.herm_err) for s, m in zip(samples, moments)]

    def flush(which):
        try:
            for i in which:
                if pending[i]:
                    conds, read = read_out(i, pending[i])
                    rows[i] += read
                    for s, cond in zip(pending[i], conds):
                        watch(s.t, cond)
                    pending[i] = []
        except _REFUSALS:
            held = [(s.t, i, s) for i, buf in enumerate(pending) for s in buf]
            for t, i, s in sorted(held, key=lambda h: h[:2]):
                try:
                    read_out(i, [s])
                except _REFUSALS as exc:
                    exc.t, exc.point = t, i
                    raise
            raise

    def add(i, s):
        pending[i].append(s)
        entries = s.state.amplitudes.size if isinstance(s.state, AtomState) else s.state.size
        if len(pending[i]) * entries >= master_eq._BATCH_ENTRIES:
            flush([i])

    reduces = [functools.partial(add, i) for i in range(len(batch))]
    try:
        integrate(points, states, grid, reduces[0] if single else reduces)
    finally:
        flush(range(len(batch)))
    return rows[0] if single else rows


def _timeseries_columns(params: ModelParams, rows) -> dict[str, np.ndarray]:
    """The columns of one point's _moments_series rows, one column entry per sample."""
    t, moments, trace_err, herm_err = zip(*rows)
    t = np.array(t)
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
        "trace_err": np.array(trace_err),
        "herm_err": np.array(herm_err),
    }


def _model(cfg: ExperimentConfig) -> tuple[ModelParams, AtomState, TimeGrid]:
    """The master model, its initial coherent state and its time grid."""
    with _config_values():
        params = ModelParams(
            n_atoms=cfg.n_atoms, omega=cfg.omega, g=cfg.g, gamma=cfg.gamma, light=cfg.light()
        )
        state = build_spin_coherent(cfg.ge(), cfg.n_atoms)
        return params, state, TimeGrid(cfg.t_max, cfg.dt, cfg.sample_stride)


def run_master(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Hybrid-equation time series of conditional moments, optional Q snapshots.

    The samples are read out a chunk at a time (_moments_series), and
    each q_omega_t target keeps the conditioned state of the nearest
    sample so far, the first of a tie, so the run holds rows, a bounded
    chunk and one state per target, not a trajectory, and conditions
    each sample once, the snapshots included.
    """
    outcome = cfg.resolve_outcome()
    params, state, grid = _model(cfg)
    if cfg.q_omega_t:
        _check_q_grid(cfg)
    # per target: (|omega t - target|, t, conditioned state) of its nearest sample
    nearest = [(math.inf, None, None)] * len(cfg.q_omega_t)

    def watch(t, cond):
        for idx, (target, (best, _, _)) in enumerate(zip(cfg.q_omega_t, nearest)):
            distance = abs(params.omega * t - target)
            if distance < best:
                nearest[idx] = distance, t, cond

    rows = _moments_series(params, state, grid, outcome, watch)
    echo = config_echo_lines(cfg, "master")
    write_csv(
        out_dir / "master_timeseries.csv",
        echo + [f"outcome = {outcome.n_c},{outcome.n_d}"],
        _timeseries_columns(params, rows),
    )

    if not cfg.q_omega_t:
        return EXIT_OK
    grids = q_grid([cond for _, _, cond in nearest], cfg.n_theta, cfg.n_phi)
    for idx, (target, (_, t, _), qg) in enumerate(zip(cfg.q_omega_t, nearest, grids)):
        _write_q_csv(
            out_dir / f"master_q_{idx:02d}.csv",
            echo + [f"omega_t_requested = {fmt(target)}",
                    f"omega_t_actual = {fmt(params.omega * t)}"],
            qg,
        )
    return EXIT_OK


def run_qfunc(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Q grid of the conditional state; master evolution when t_max > 0."""
    _check_q_grid(cfg)
    outcome = cfg.resolve_outcome()
    echo = config_echo_lines(cfg, "qfunc")
    if cfg.t_max > 0:
        params, state, grid = _model(cfg)
        # every sample is gated as it is made, and only the last one is held
        kept = [None]

        def keep_last(sample):
            kept[0] = sample

        integrate(params, state, grid, keep_last)
        last = kept[0]
        source = conditional_density(params, last.state, last.t, outcome)
    else:
        state, setting = _pure_model(cfg)
        source = conditional_state(state, cfg.light(), setting, outcome)
    _write_q_csv(out_dir / "qfunc.csv", echo, q_grid(source, cfg.n_theta, cfg.n_phi))
    return EXIT_OK


def _first_crossing(omega_t: np.ndarray, values: np.ndarray) -> float:
    """First downward crossing of 1, or nan when the curve never dips."""
    for i in range(1, len(values)):
        if values[i - 1] >= 1.0 > values[i]:
            return float(omega_t[i])
    return math.nan


def run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Repeat the master run over one parameter, summarizing squeezing per point.

    All points run in one batched integrate call: its gamma > 0 points
    step together as one rho stack, and each point's samples are read out
    a chunk at a time (_moments_series), so no trajectory is held.  A
    refused point's error is prefixed by the swept parameter and value and
    keeps its exit code: 2 for an unreachable outcome, 1 for anything
    else, the step bound included, where the first point over the bound
    is named.  When several samples fail, the one reported is at the
    earliest failing sample time and, at that time, the first in sweep
    order.
    """
    if cfg.sweep_param not in ("g", "gamma", "omega"):
        raise ConfigError("sweep_param must be one of g, gamma, omega")
    if not cfg.sweep_values:
        raise ConfigError("sweep_values must be a nonempty list")
    # the outcome depends on the light only, never on the swept parameter
    outcome = cfg.resolve_outcome()
    # every point's model, so a bad value (exit 2) is refused before any run;
    # the batched integrate checks every point's step bound before its first
    # step, so a point over the bound (exit 1) is refused before any run too
    models = [_model(replace(cfg, **{cfg.sweep_param: v})) for v in cfg.sweep_values]
    echo = config_echo_lines(cfg, "sweep")
    points, states, grids = zip(*models)
    try:
        series = _moments_series(points, states, grids[0], outcome)
    except (ValueError, IntegrationError) as exc:
        if getattr(exc, "point", None) is None:
            raise
        # prefixed in place, so the refusal keeps its type and exit code
        exc.args = (f"sweep {cfg.sweep_param} = {cfg.sweep_values[exc.point]}: {exc}",)
        raise
    rows = []
    for value, params, point_rows in zip(cfg.sweep_values, points, series):
        ts = _timeseries_columns(params, point_rows)
        omega_t, jx_var = ts["omega_t"], ts["jx_var_norm"]
        i_min = int(np.argmin(jx_var))
        crossing = _first_crossing(omega_t, jx_var)
        rows.append((value, jx_var[i_min], omega_t[i_min], crossing))
    names = ("value", "min_jx_var_norm", "omega_t_at_min", "first_crossing_omega_t")
    write_csv(out_dir / "sweep_summary.csv", echo, dict(zip(names, np.array(rows).T)))
    return EXIT_OK


def run_validate(cfg: ExperimentConfig | None, out_dir: Path) -> int:
    """Oracle suites; exit 0 iff every report passes.

    Without a config the default suites run.  With a config, the
    normalization checks run on the configured model instead, built
    before any suite runs; this doubles as the fault-injection path (for
    example an unstable dt).  A FAIL line ends with its report's error
    text, when it has one.
    """
    from .validation import SUITES, normalization_sweep  # only validate loads the suites

    names = cfg.suites if cfg else "all"
    selected = (
        set(SUITES) if names == "all" else {s.strip() for s in names.split(",") if s.strip()}
    )
    unknown = selected.difference(SUITES)
    if unknown:
        raise ConfigError(f"unknown suites {sorted(unknown)}; choose from {tuple(SUITES)}")
    suites = {name: suite for name, suite in SUITES.items() if name in selected}
    if cfg and "normalization" in suites:
        entry = _model(cfg)  # refused (exit 2) before any suite runs
        suites["normalization"] = lambda: normalization_sweep([entry])
    reports = [r for suite in suites.values() for r in suite()]
    echo = config_echo_lines(cfg or ExperimentConfig(n_atoms=2), "validate")
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
        reason = "" if r.passed or "error" not in r.context else f" reason={r.context['error']}"
        print(f"{status} {r.name} error={r.max_abs_error:.3e} tol={r.tolerance:.0e}{reason}")
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
                help="photon-count pair 'nc,nd' or 'most-probable'",
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
