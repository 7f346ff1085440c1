"""Seeded workload generator.

A seed picks one of POOL variants per workload; the variant fixes the
physical values of the run (Bloch angle near the pole, outcome pair,
Q snapshot times, dephasing rates, pure-model gt).  Sizes never depend on
the seed: N, step count, sample stride, grid size and count cutoff are the
same on every seed, so each invocation does the same amount of work.  The
pool is finite because every variant needs a reference recorded from the
program (see record_reference.py).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

POOL = 32

OMEGA = math.pi / 4
G_FIG6 = 0.1 * OMEGA / 30

# TimeGrid's guard: dt * max(omega, g*N, gamma*N^2) <= STEP_BOUND
STEP_BOUND = 0.05


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand plus the text of its config file."""

    command: str
    config: dict

    def config_text(self) -> str:
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in self.config.items())

    def argv(self, work: Path) -> list[str]:
        """Write the config under work and return the CLI arguments reading it."""
        work.mkdir(parents=True, exist_ok=True)
        path = work / "run.cfg"
        path.write_text(self.config_text(), encoding="utf-8")
        return [self.command, "--config", str(path), "--out", str(work / "out")]

    def config_sha256(self) -> str:
        return hashlib.sha256(f"{self.command}\n{self.config_text()}".encode()).hexdigest()

    def n_steps(self) -> int:
        """RK4 steps per integrate call, rounded as master_eq.integrate does."""
        c = self.config
        return max(1, int(round(c["t_max"] / c["dt"]))) if "dt" in c else 0

    def halved_step(self) -> "Job":
        """Same run at half the effective step, sampled at the same times."""
        c = dict(self.config)
        c["dt"] = c["t_max"] / (2 * self.n_steps())
        c["sample_stride"] = 2 * c["sample_stride"]
        return Job(self.command, c)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def variant(seed: int) -> int:
    return seed % POOL


def _near_pole(rng: random.Random) -> dict:
    return {"theta": rng.uniform(0.04, 0.09), "phi": rng.uniform(0.0, 2.0 * math.pi)}


def _outcome(rng: random.Random, mean: int, spread: int) -> str:
    """A pair near the balanced most-probable outcome (mean, mean)."""
    return f"{mean + rng.randint(-spread, spread)},{mean + rng.randint(-spread, spread)}"


def fig6_master(rng: random.Random) -> Job:
    return Job(
        "master",
        {
            "n_atoms": 30,
            **_near_pole(rng),
            "omega": OMEGA,
            "g": G_FIG6,
            "gamma": 0.0,
            "alpha_l": 2.0,
            "alpha_r": 2.0,
            "outcome": _outcome(rng, 4, 1),
            "t_max": 60.0 / OMEGA,
            "dt": 0.02,
            "sample_stride": 20,
            "n_theta": 128,
            "n_phi": 128,
            "q_omega_t": (
                rng.uniform(5.0, 20.0),
                rng.uniform(20.0, 40.0),
                rng.uniform(40.0, 60.0),
            ),
        },
    )


def dephasing_sweep(rng: random.Random) -> Job:
    gammas = (
        rng.uniform(0.1, 1.0) * G_FIG6,
        rng.uniform(1.0, 2.0) * G_FIG6,
        rng.uniform(2.0, 3.0) * G_FIG6,
    )
    return Job(
        "sweep",
        {
            "n_atoms": 30,
            **_near_pole(rng),
            "omega": OMEGA,
            "g": G_FIG6,
            "alpha_l": 2.0,
            "alpha_r": 2.0,
            "outcome": _outcome(rng, 4, 1),
            "t_max": 20.0 / OMEGA,
            "dt": 0.005,
            "sample_stride": 20,
            "sweep_param": "gamma",
            "sweep_values": gammas,
        },
    )


def pure_wide(rng: random.Random) -> Job:
    return Job(
        "pure",
        {
            "n_atoms": 2000,
            **_near_pole(rng),
            "g": 1.0,
            "t": rng.uniform(4e-4, 6e-4),
            "alpha_l": 10.0,
            "alpha_r": 10.0,
            "outcome": _outcome(rng, 100, 5),
            "emit_q": True,
            "n_theta": 64,
            "n_phi": 64,
        },
    )


WORKLOADS = {
    "fig6_master": fig6_master,
    "dephasing_sweep": dephasing_sweep,
    "pure_wide": pure_wide,
}


def step_scale(job: Job) -> float:
    """The integrator's step-bound figure, worst case over a sweep."""
    c = job.config
    if "dt" not in c:
        return 0.0
    gammas = c["sweep_values"] if c.get("sweep_param") == "gamma" else (c.get("gamma", 0.0),)
    n = c["n_atoms"]
    dt = c["t_max"] / job.n_steps()
    return dt * max(abs(c["omega"]), abs(c["g"]) * n, max(gammas) * n**2)


def generate(workload: str, seed: int) -> Job:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}/{variant(seed)}")
    job = WORKLOADS[workload](rng)
    if step_scale(job) > STEP_BOUND:
        raise ValueError(f"{workload} seed {seed} exceeds the integrator step bound")
    return job
