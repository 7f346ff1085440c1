"""Correctness gate: compare a run's CSVs with the recorded reference.

Each workload's CSVs are reduced to named observables (lists of floats).
The reference stores, per seed variant, the seed commit's observables and
one tolerance per observable:

    tol = ORDER_FACTOR * E + rounding_floor(job) * max|ref|

E is the dt-halving estimate max|x(dt) - x(dt/2)| (zero where no
integrator is involved).  RK4 is fourth order, so ORDER_FACTOR = 2**4
admits any integrator at least as accurate as the seed's RK4 would be at
twice the step, and nothing less accurate.  Two observables differ:

- sample times (argmin, first crossing) are quantized to the sample grid,
  so their tolerance is at least one sample spacing;
- a Q grid's midpoint integral is also allowed the grid's quadrature error
  |S_ref - 1| (the exact integral of Q is 1).

Stored trace and Hermiticity drifts are checked against the bounds the
program itself enforces, not against reference values.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from workloads import Job

ORDER_FACTOR = 2.0**4
UNIT_ROUNDOFF = sys.float_info.epsilon / 2.0

TIMESERIES_VALUES = (
    "jx_mean", "jy_mean", "jz_mean", "jx_var_norm", "jy_var_norm", "jz_var_norm",
)


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Column names and numeric rows of a dwsqueeze CSV."""
    columns: list[str] = []
    rows: list[list[float]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif not line.startswith("#"):
            rows.append([float(x) for x in line.split(",")])
    if not columns:
        raise ValueError(f"{path}: no '# columns:' line")
    return columns, rows


def _column(columns, rows, name) -> list[float]:
    i = columns.index(name)
    return [r[i] for r in rows]


def _every(values: list[float], step: int) -> list[float]:
    """Every step-th value plus the last one."""
    picked = values[::step]
    if (len(values) - 1) % step:
        picked.append(values[-1])
    return picked


def _q_observables(path: Path, tag: str, stride: int) -> dict[str, list[float]]:
    columns, rows = read_csv(path)
    thetas = _column(columns, rows, "theta")
    phis = _column(columns, rows, "phi")
    q = _column(columns, rows, "q")
    n_phi = len(set(phis))
    n_theta = len(q) // n_phi
    if n_theta * n_phi != len(q):
        raise ValueError(f"{path}: {len(q)} values do not fill a grid")
    d_theta, d_phi = math.pi / n_theta, 2.0 * math.pi / n_phi
    norm = 0.0
    direction = [0.0, 0.0, 0.0]
    for th, ph, v in zip(thetas, phis, q):
        w = v * math.sin(th) * d_theta * d_phi
        norm += w
        direction[0] += w * math.sin(th) * math.cos(ph)
        direction[1] += w * math.sin(th) * math.sin(ph)
        direction[2] += w * math.cos(th)
    nodes = [(i + 0.5) * d_theta for i in range(n_theta)]
    node_err = max(abs(th - nodes[k // n_phi]) for k, th in enumerate(thetas))
    picked = [
        q[i * n_phi + j]
        for i in range(stride // 2, n_theta, stride)
        for j in range(stride // 2, n_phi, stride)
    ]
    return {
        f"{tag}.values": picked,
        f"{tag}.norm": [norm],
        f"{tag}.direction": direction,
        f"{tag}.max": [max(q)],
        f"{tag}.theta_node_err": [node_err],
    }


def _pmf_moments(ks: list[float], p: list[float]) -> list[float]:
    total = math.fsum(p)
    mean = math.fsum(k * x for k, x in zip(ks, p)) / total
    var = math.fsum((k - mean) ** 2 * x for k, x in zip(ks, p)) / total
    return [total, mean, var]


def observables(job: Job, out: Path) -> dict[str, list[float]]:
    """Named observables of one invocation's CSVs."""
    obs: dict[str, list[float]] = {}
    if job.command == "master":
        columns, rows = read_csv(out / "master_timeseries.csv")
        for name in TIMESERIES_VALUES:
            obs[f"ts.{name}"] = _every(_column(columns, rows, name), 8)
        obs["ts.omega_t"] = _every(_column(columns, rows, "omega_t"), 8)
        obs["ts.trace_err_max"] = [max(_column(columns, rows, "trace_err"))]
        obs["ts.herm_err_max"] = [max(_column(columns, rows, "herm_err"))]
        for idx in range(len(job.config["q_omega_t"])):
            obs.update(_q_observables(out / f"master_q_{idx:02d}.csv", f"q{idx}", 16))
    elif job.command == "sweep":
        columns, rows = read_csv(out / "sweep_summary.csv")
        for name in columns:
            obs[f"sweep.{name}"] = _column(columns, rows, name)
    elif job.command == "pure":
        columns, rows = read_csv(out / "pure_pmf.csv")
        ks = _column(columns, rows, "k")
        for name in ("p_exact", "p_gaussian"):
            p = _column(columns, rows, name)
            obs[f"pmf.{name}"] = _every(p, 40)
            obs[f"pmf.{name}.moments"] = _pmf_moments(ks, p)
        columns, rows = read_csv(out / "pure_detection_grid.csv")
        p = _column(columns, rows, "p")
        side = int(round(math.sqrt(len(p))))
        obs["grid.values"] = [
            p[i * side + j] for i in range(0, side, 20) for j in range(0, side, 20)
        ]
        obs["grid.n_c.moments"] = _pmf_moments(_column(columns, rows, "n_c"), p)
        obs["grid.n_d.moments"] = _pmf_moments(_column(columns, rows, "n_d"), p)
        obs.update(_q_observables(out / "pure_q.csv", "q", 8))
    else:
        raise ValueError(f"no observables for command {job.command!r}")
    return obs


def rounding_floor(job: Job) -> float:
    """Relative rounding bound of the program's outputs.

    Every output is a length-(N+1) sum of log-domain terms whose logs are
    at most about (N+1) ln(N+1) in size; the standard bound for such a sum
    is 2(N+1)(ln(N+1)+1) u, and the integrator repeats it once per step.
    """
    n1 = job.config["n_atoms"] + 1
    return (job.n_steps() + 1) * 2.0 * n1 * (math.log(n1) + 1.0) * UNIT_ROUNDOFF


def _sample_spacing(job: Job) -> float:
    """Omega-t between two samples of the time series."""
    c = job.config
    return c["omega"] * c["sample_stride"] * c["t_max"] / job.n_steps()


def tolerances(
    job: Job, ref: dict[str, list[float]], halved: dict[str, list[float]] | None
) -> dict[str, float]:
    """Per-observable tolerance from the dt-halving estimate and rounding."""
    floor = rounding_floor(job)
    tol = {}
    for name, values in ref.items():
        scale = max((abs(v) for v in values if not math.isnan(v)), default=0.0)
        est = 0.0
        if halved is not None:
            if len(halved[name]) != len(values):
                raise ValueError(f"{name}: dt-halved run has another shape")
            est = max(
                (abs(a - b) for a, b in zip(values, halved[name])
                 if not (math.isnan(a) and math.isnan(b))),
                default=0.0,
            )
        tol[name] = ORDER_FACTOR * est + floor * scale
        if name in ("sweep.omega_t_at_min", "sweep.first_crossing_omega_t"):
            tol[name] = max(tol[name], _sample_spacing(job))
        if name.endswith(".norm"):
            tol[name] += abs(values[0] - 1.0)
    return tol


def fixed_bound(job: Job, name: str) -> float | None:
    """Limit for an observable checked against a fixed bound, not the reference."""
    if name == "ts.trace_err_max":
        return job.config.get("tol_trace", 1e-8)  # the CLI's default
    if name == "ts.herm_err_max":
        return job.config.get("tol_herm", 1e-9)
    if name.endswith(".theta_node_err"):
        return 4.0 * math.pi * UNIT_ROUNDOFF  # nodes (i + 1/2) pi / n to a few ulps
    return None


def check(job: Job, out: Path, reference: dict) -> list[str]:
    """Problems found in one invocation's outputs; empty when correct."""
    try:
        got = observables(job, out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    for name, values in got.items():
        bound = fixed_bound(job, name)
        if bound is not None and not values[0] <= bound:
            problems.append(f"{name} = {values[0]!r} above {bound!r}")
    for name, entry in reference["observables"].items():
        values = got.get(name)
        if values is None or len(values) != len(entry["ref"]):
            problems.append(f"{name}: missing or of another length")
            continue
        for i, (a, b) in enumerate(zip(values, entry["ref"])):
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= entry["tol"]:
                problems.append(f"{name}[{i}] = {a!r}, reference {b!r} +- {entry['tol']:.3e}")
                break
    return problems
