"""Write the gate set of this tree: the CSVs a behaviour-preserving change must keep.

    python3 scripts/gate_set.py [--threads N] OUT_DIR
    python3 scripts/gate_set.py --compare A B

Each run gets its own directory OUT_DIR/<name>/ holding the config it read
(run.cfg), the CSVs it wrote (out/) and its exit code, stdout and stderr
(result.txt).  The runs are:

- the three benchmark workloads at seeds 0 and 7, each also run as qfunc;
- master and qfunc at gamma = 0.001 on the fig6_master seed-0 config,
  and master there at omega = 1 and dt = 2^-5, sampled every step, so
  omega t is exact on the samples and the Q targets -1, 0.046875 (a tie
  between two samples) and 100 cover both ends and the tie rule;
- pure on the pure_wide seed-0 config with both arms dark (every
  Poisson mean is 0), and at N = 200;
- qfunc at N = 200 and gamma = 1e-4 on the fig6_master seed-0 config,
  over 200 steps on a 64 x 64 grid: the density-matrix Q at N = 200;
- sweeps on the dephasing_sweep seed-0 config over g and over omega,
  each at that config's first gamma, and over gamma with a 0 point
  first, so one batch mixes the rotation with the stepped points;
- a sweep on the dephasing_sweep seed-0 config whose second gamma is
  over the step bound, so the sweep exits 1 before any run and writes no
  CSV;
- pure at N = 20 with the initial state given as alpha/beta, complex light
  amplitudes with imaginary parts and an explicit outcome, so every kind
  of config value is echoed;
- pure on the pure_wide seed-0 config with alpha_l = 1e200, finite light
  whose intensity overflows, refused as bad input;
- qfunc on the fig6_master seed-0 config with n_theta one over the grid
  bound MAX_ATOMS + 1 = 4097 and n_phi = 16, refused before any work;
- the default validate;
- validate's normalization suite on the fig6_master seed-0 config with
  dt = 5.0, over the step bound, so its FAIL lines show.

The configs come from perfbench/workloads.py, which is only read.  The
program runs from this tree's src/ in a fresh interpreter per run.  To
check that a change keeps every byte, write the gate set of the parent
and of the change and compare them with `diff -r`.

--threads N sets the OpenBLAS, OpenMP and MKL thread counts of every run
(by default a run inherits them), since the CSV bytes can depend on the
BLAS thread count.  --compare A B compares two gate sets file by file:
for each CSV present in both it prints the number of data cells that
differ and the largest absolute difference relative to the largest
magnitude in that cell's column of A, and how many of those cells read
exactly 0 in B, with their largest magnitude in A (so a cut of cells to
0 can be checked against its bound); any other file is reported as
identical or differing.  It exits 0 when every file is byte-identical
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# read perfbench/workloads.py without leaving its bytecode under perfbench/
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, Job, generate  # noqa: E402

SEEDS = (0, 7)


def _jobs() -> dict[str, Job | None]:
    """Run name -> job; None is the config-less default validate."""
    jobs: dict[str, Job | None] = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            job = generate(workload, seed)
            jobs[f"{workload}-seed{seed}"] = job
            jobs[f"{workload}-seed{seed}-qfunc"] = Job("qfunc", job.config)
    dephased = {**generate("fig6_master", 0).config, "gamma": 0.001}
    jobs["fig6_master-seed0-gamma0.001"] = Job("master", dephased)
    jobs["fig6_master-seed0-gamma0.001-qfunc"] = Job("qfunc", dephased)
    jobs["fig6_master-seed0-gamma0.001-targets"] = Job("master", {
        **dephased, "omega": 1.0, "t_max": 8.0, "dt": 0.03125, "sample_stride": 1,
        "q_omega_t": (-1.0, 0.046875, 100.0),
    })
    dark = {**generate("pure_wide", 0).config, "alpha_l": 0.0, "alpha_r": 0.0, "outcome": "0,0"}
    jobs["pure_wide-seed0-dark"] = Job("pure", dark)
    jobs["pure_wide-seed0-n200"] = Job("pure", {**generate("pure_wide", 0).config, "n_atoms": 200})
    jobs["fig6_master-seed0-n200-gamma-qfunc"] = Job("qfunc", {
        **generate("fig6_master", 0).config, "n_atoms": 200, "gamma": 1e-4,
        "t_max": 2.0, "dt": 0.01, "n_theta": 64, "n_phi": 64,
    })
    sweep = generate("dephasing_sweep", 0).config
    at_gamma = {**sweep, "gamma": sweep["sweep_values"][0]}
    g, omega = sweep["g"], sweep["omega"]
    jobs["dephasing_sweep-seed0-g"] = Job(
        "sweep", {**at_gamma, "sweep_param": "g", "sweep_values": (0.5 * g, g, 1.5 * g)}
    )
    jobs["dephasing_sweep-seed0-omega"] = Job(
        "sweep",
        {**at_gamma, "sweep_param": "omega", "sweep_values": (0.5 * omega, omega, 1.2 * omega)},
    )
    jobs["dephasing_sweep-seed0-gamma0"] = Job(
        "sweep", {**sweep, "sweep_values": (0.0, *sweep["sweep_values"])}
    )
    jobs["dephasing_sweep-seed0-over-bound"] = Job(
        "sweep", {**sweep, "sweep_values": (sweep["sweep_values"][0], 0.02)}
    )
    jobs["pure-alpha-beta-complex-light"] = Job("pure", {
        "n_atoms": 20, "alpha": "0.6", "beta": "0,0.8", "g": 0.1, "t": 0.05,
        "alpha_l": "1.5,0.5", "alpha_r": "2,-1", "outcome": "3,5",
    })
    jobs["pure_wide-seed0-overflowing-light"] = Job(
        "pure", {**generate("pure_wide", 0).config, "alpha_l": 1e200}
    )
    jobs["fig6_master-seed0-qfunc-over-grid-bound"] = Job(
        "qfunc", {**generate("fig6_master", 0).config, "n_theta": 4098, "n_phi": 16}
    )
    jobs["validate"] = None
    unstable = {**generate("fig6_master", 0).config, "dt": 5.0, "suites": "normalization"}
    jobs["validate-fault"] = Job("validate", unstable)
    return jobs


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write(out: Path, threads: int | None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if threads is not None:
        env.update({name: str(threads) for name in THREAD_VARIABLES})
    for name, job in _jobs().items():
        work = out / name
        if job is None:
            work.mkdir(parents=True, exist_ok=True)
            args = ["validate", "--out", str(work / "out")]
        else:
            args = job.argv(work)
        done = subprocess.run(
            [sys.executable, "-m", "dwsqueeze.cli", *args],
            env=env, capture_output=True, text=True,
        )
        (work / "result.txt").write_text(
            f"exit = {done.returncode}\n# stdout\n{done.stdout}# stderr\n{done.stderr}",
            encoding="utf-8",
        )
        print(f"{name}: exit {done.returncode}")
    return 0


def _csv_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """Header lines, column names and the data cells of a CSV, column by column."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    columns_line = next((h for h in header if h.startswith("# columns: ")), "# columns: ")
    names = columns_line[len("# columns: "):].split(",")
    return header, names, [list(column) for column in zip(*rows)]


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def compare_csv(a: Path, b: Path) -> str:
    """How many data cells of b differ from a, and by how much at most."""
    header_a, names, columns_a = _csv_table(a)
    header_b, _, columns_b = _csv_table(b)
    if header_a != header_b or [len(c) for c in columns_a] != [len(c) for c in columns_b]:
        return "headers or table shapes differ"
    cells = differ = zeroed = 0
    worst, worst_column, zeroed_max = 0.0, "", 0.0
    for name, column_a, column_b in zip(names, columns_a, columns_b):
        cells += len(column_a)
        pairs = [(x, y) for x, y in zip(column_a, column_b) if x != y]
        if not pairs:
            continue
        differ += len(pairs)
        scale = max((abs(v) for v in map(_number, column_a) if math.isfinite(v)), default=0.0)
        for x, y in pairs:
            if _number(y) == 0.0:
                zeroed += 1
                zeroed_max = max(zeroed_max, abs(_number(x)))
            diff = abs(_number(x) - _number(y))
            # a non-numeric or non-finite cell, or an all-zero column, counts as inf
            rel = diff / scale if math.isfinite(diff) and scale > 0.0 else math.inf
            if rel >= worst:
                worst, worst_column = rel, name
    if not differ:
        return "identical"
    became_zero = f", {zeroed} became 0 (largest former |value| {zeroed_max:.3g})"
    return (
        f"{differ} of {cells} cells differ, "
        f"largest |diff| / column max {worst:.3g} ({worst_column})"
        + (became_zero if zeroed else "")
    )


def compare(a: Path, b: Path) -> int:
    files = sorted(
        {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        | {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    )
    same = True
    for rel in files:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {a if pa.is_file() else b}")
            same = False
            continue
        if pa.read_bytes() == pb.read_bytes():
            status = "identical"
        else:
            same = False
            status = compare_csv(pa, pb) if rel.suffix == ".csv" else "differs"
        print(f"{rel}: {status}")
    return 0 if same else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 scripts/gate_set.py")
    parser.add_argument("--threads", type=int, help="BLAS/OpenMP threads of every run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("out", nargs="?", type=Path, metavar="OUT_DIR")
    args = parser.parse_args(argv)
    if args.compare:
        if args.out is not None or args.threads is not None:
            parser.error("--compare takes no OUT_DIR and no --threads")
        missing = [str(d) for d in args.compare if not d.is_dir()]
        if missing:
            parser.error(f"not a gate set directory: {', '.join(missing)}")
        return compare(*args.compare)
    if args.out is None:
        parser.error("OUT_DIR is required")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    return write(args.out, args.threads)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
