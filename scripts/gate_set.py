"""Write the gate set of this tree: the CSVs a behaviour-preserving change must keep.

    python3 scripts/gate_set.py OUT_DIR

Each run gets its own directory OUT_DIR/<name>/ holding the config it read
(run.cfg), the CSVs it wrote (out/) and its exit code, stdout and stderr
(result.txt).  The runs are:

- the three benchmark workloads at seeds 0 and 7, each also run as qfunc;
- master and qfunc at gamma = 0.001 on the fig6_master seed-0 config,
  and master there at omega = 1 and dt = 2^-5, sampled every step, so
  omega t is exact on the samples and the Q targets -1, 0.046875 (a tie
  between two samples) and 100 cover both ends and the tie rule;
- pure on the pure_wide seed-0 config with both arms dark (every
  Poisson mean is 0);
- sweeps on the dephasing_sweep seed-0 config over g and over omega,
  each at that config's first gamma, and over gamma with a 0 point
  first, so one batch mixes the rotation with the stepped points;
- the default validate;
- validate's normalization suite on the fig6_master seed-0 config with
  dt = 5.0, over the step bound, so its FAIL lines show.

The configs come from perfbench/workloads.py, which is only read.  The
program runs from this tree's src/ in a fresh interpreter per run.  To
check that a change keeps every byte, write the gate set of the parent
and of the change and compare them with `diff -r`.
"""

from __future__ import annotations

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
    jobs["validate"] = None
    unstable = {**generate("fig6_master", 0).config, "dt": 5.0, "suites": "normalization"}
    jobs["validate-fault"] = Job("validate", unstable)
    return jobs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/gate_set.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
