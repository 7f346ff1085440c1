"""dwsqueeze benchmark: one workload, closed loop, checked outputs, metrics.

    python3 perfbench/run.py --workload fig6_master --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  The
run measures set-up (a fresh interpreter importing dwsqueeze.cli, several
times), then starts a worker process that calls dwsqueeze.cli.main on the
seed's generated config, one invocation after another, for --seconds.
Every invocation passes the correctness gate or counts as failed.  The
last line of standard output is the result as JSON: end-to-end metrics
with --trace 0, per-layer metrics from the traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
# every run must end within this many seconds, including set-up
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; ".s" metrics are self seconds per invocation
PER_LAYER = {
    "master_eq.integrate.s": "s",
    "master_eq.integrate.calls": "count",
    "master_eq.rk4_steps": "count",
    "master_eq.step_us": "us",
    "master_eq.samples": "count",
    "master_eq.conditional_density.s": "s",
    "master_eq.conditional_density.calls": "count",
    "spin_core.moments_from_density.s": "s",
    "spin_core.moments_from_density.calls": "count",
    "spin_core.build_spin_coherent.s": "s",
    "husimi.q_grid.s": "s",
    "husimi.q_grid.calls": "count",
    "husimi.q_points": "count",
    "husimi.q_grid.us_per_point": "us",
    "husimi.overlap_bytes": "bytes",
    "pure_measure.detection_pmf_grid.s": "s",
    "pure_measure.detection_pmf_grid.calls": "count",
    "pure_measure.grid_cells": "count",
    "pure_measure.conditional_state.s": "s",
    "pure_measure.conditional_gaussian.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.calls": "count",
    "cli.csv_bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.exceptions": "count",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dwsqueeze.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_reference(workload: str, seed: int, job: workloads.Job) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["pool"] != workloads.POOL:
        raise BenchError(f"{path} covers {data['pool']} variants, generator has {workloads.POOL}")
    entry = data["variants"][str(workloads.variant(seed))]
    if entry["config_sha256"] != job.config_sha256():
        raise BenchError(f"{path} was recorded for other inputs than seed {seed} generates")
    return entry


def measure_setup(src: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env.pinned_env(src),
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"import dwsqueeze.cli failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_worker(spec: dict, work: Path, src: Path, timeout: float) -> dict:
    job_file, result_file, log_file = work / "job.json", work / "result.json", work / "worker.log"
    job_file.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_file, "w", encoding="utf-8") as log:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_file), str(result_file)],
                env=env.pinned_env(src), stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        tail = log_file.read_text(encoding="utf-8")[-3000:]
        raise BenchError(f"worker exited with {done.returncode}:\n{tail}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def gate_invocations(job: workloads.Job, reference: dict, invocations: list[dict]) -> list[list[str]]:
    """Problems per invocation: nonzero exit, wrong outputs, or bytes unlike the first run."""
    first = invocations[0]["hashes"]
    checked: dict[str, list[str]] = {}
    problems = []
    for inv in invocations:
        found = []
        if inv["rc"] != 0:
            found.append(f"exit code {inv['rc']} {inv['error']}".strip())
        if inv["hashes"] != first:
            found.append("CSV bytes differ from the first invocation")
        key = json.dumps(inv["hashes"], sort_keys=True)
        if key not in checked:
            checked[key] = gate.check(job, Path(inv["dir"]) / "out", reference)
        found += checked[key]
        problems.append(found)
    return problems


def layer_metrics(invocations: list[dict]) -> dict[str, float]:
    """Per-layer figures per traced invocation, and the tracing overhead."""
    traced = [inv for inv in invocations if inv["traced"]]
    # invocation 0 is the warm-up: it pays first-call costs the traced ones do not
    untraced = [inv["wall_s"] for inv in invocations[1:] if not inv["traced"]]

    def mean(name: str, key: str) -> float:
        return statistics.fmean(inv["spans"].get(name, {}).get(key, 0) for inv in traced)

    def count(name: str, key: str) -> float:
        return statistics.fmean(
            inv["spans"].get(name, {}).get("counts", {}).get(key, 0) for inv in traced
        )

    m: dict[str, float] = {}
    for layer in spans.LAYER_CALLS:
        m[f"{layer}.s"] = mean(layer, "self_s")
        m[f"{layer}.calls"] = mean(layer, "calls")
    m["cli.self_s"] = mean(spans.ROOT_SPAN, "self_s")
    m["trace.wall_s"] = mean(spans.ROOT_SPAN, "total_s")
    layer_sum = sum(m[f"{layer}.s"] for layer in spans.LAYER_CALLS) + m["cli.self_s"]
    if abs(layer_sum - m["trace.wall_s"]) > 1e-9 * max(1.0, m["trace.wall_s"]):
        raise BenchError(f"self times sum to {layer_sum}, traced wall is {m['trace.wall_s']}")
    m["trace.untraced_wall_s"] = statistics.fmean(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.exceptions"] = sum(
        e["exceptions"] for inv in traced for e in inv["spans"].values()
    ) / len(traced)
    m["master_eq.rk4_steps"] = count("master_eq.integrate", "rk4_steps")
    m["master_eq.samples"] = count("master_eq.integrate", "samples")
    steps = m["master_eq.rk4_steps"]
    m["master_eq.step_us"] = 1e6 * m["master_eq.integrate.s"] / steps if steps else 0.0
    m["husimi.q_points"] = count("husimi.q_grid", "q_points")
    points = m["husimi.q_points"]
    m["husimi.q_grid.us_per_point"] = 1e6 * m["husimi.q_grid.s"] / points if points else 0.0
    calls = m["husimi.q_grid.calls"]
    m["husimi.overlap_bytes"] = count("husimi.q_grid", "overlap_bytes") / calls if calls else 0.0
    m["pure_measure.grid_cells"] = count("pure_measure.detection_pmf_grid", "grid_cells")
    m["cli.csv_bytes"] = count("cli.write_csv", "csv_bytes")
    return {name: m[name] for name in PER_LAYER}


def bench(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    started = time.perf_counter()
    src = root / "src"
    if not (src / "dwsqueeze" / "cli.py").is_file():
        raise BenchError(f"no program at {src / 'dwsqueeze'}; run from the repository root")
    job = workloads.generate(workload, seed)
    reference = load_reference(workload, seed, job)
    work = HERE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = measure_setup(src)
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "work": str(work), "deadline_s": budget - 15.0}
    result = run_worker(spec, work, src, timeout=budget)
    invocations = result["invocations"]
    problems = gate_invocations(job, reference, invocations)
    failed = sum(1 for p in problems if p)

    walls = [inv["wall_s"] for inv in invocations if not inv["traced"]]
    if trace:
        metrics = {name: (v, PER_LAYER[name]) for name, v in layer_metrics(invocations).items()}
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "variant": workloads.variant(seed),
        "trace": trace,
        "config": job.config_text(),
        "environment": env.record(root, src, result["versions"]),
        "untraced_walls_s": walls,
        "setup_times_s": setup_times,
        "problems": [p for p in problems if p],
        "attempted": len(invocations),
        "failed": failed,
        "ops_failed_frac": failed / len(invocations),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        report = bench(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for problem in report["problems"][:5]:
        print(f"FAILED invocation: {problem}")
    print(f"{args.workload} seed {args.seed}: {report['attempted']} invocations, "
          f"ops_failed_frac {report['ops_failed_frac']:.3f}, "
          f"wall_s over {len(report['untraced_walls_s'])} untraced invocations")
    for metric, entry in report["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
