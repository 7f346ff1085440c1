"""Closed-loop worker: runs one workload through dwsqueeze.cli.main in a fresh process.

    python3 perfbench/worker.py JOB.json RESULT.json

run.py starts it with the BLAS threads pinned and ./src on PYTHONPATH.

Invocations run one after another, each started when the previous one
returned, as long as the next one (taken to last as long as the last one)
ends within the job's seconds; at least two run, so every run has a rerun
to compare bytes against.  With tracing on, invocations
alternate untraced and traced, starting with an untraced warm-up, and at
least three run, so the tracing overhead has an untraced invocation to be
compared with.  The process's peak RSS is reported with the result.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads


def library_versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version}


def hash_outputs(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def invoke(cli, argv: list[str], tracer) -> tuple[object, str]:
    """Exit code of one cli.main call, or None and the traceback if it raised."""
    try:
        with tracer.span(spans.ROOT_SPAN) if tracer else nullcontext():
            return cli.main(argv), ""
    except SystemExit as exc:
        return exc.code, ""
    except Exception:  # a crash is a failed invocation; the loop goes on
        return None, traceback.format_exc()


def run(job_spec: dict) -> dict:
    from dwsqueeze import cli

    job = workloads.generate(job_spec["workload"], job_spec["seed"])
    work = Path(job_spec["work"])
    seconds, deadline = job_spec["seconds"], job_spec["deadline_s"]
    expected = spans.expected_spans(job.command, job.config)
    # a traced run needs an untraced invocation after the warm-up one
    min_runs = 3 if job_spec["trace"] else 2
    invocations = []
    start = time.perf_counter()
    while True:
        i = len(invocations)
        traced = job_spec["trace"] and i % 2 == 1
        tracer = spans.Tracer() if traced else None
        inv_dir = work / f"inv{i:03d}"
        argv = job.argv(inv_dir)
        with spans.patched(tracer, cli) if traced else nullcontext():
            t0 = time.perf_counter()
            rc, error = invoke(cli, argv, tracer)
            wall = time.perf_counter() - t0
        record = {"dir": str(inv_dir), "rc": rc, "error": error, "traced": traced,
                  "wall_s": wall, "hashes": hash_outputs(inv_dir / "out")}
        if traced:
            summary = spans.summarize(tracer.spans)
            spans.check_coverage(summary, expected)
            record["wall_s"] = summary[spans.ROOT_SPAN]["total_s"]
            record["spans"] = summary
        invocations.append(record)
        # stop before an invocation that would end after the measuring window
        if len(invocations) >= min_runs and time.perf_counter() - start + wall > min(seconds, deadline):
            break
    return {
        "invocations": invocations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": library_versions(),
    }


def main() -> int:
    job_path, result_path = map(Path, sys.argv[1:3])
    job_spec = json.loads(job_path.read_text(encoding="utf-8"))
    result = run(job_spec)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
