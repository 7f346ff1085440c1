"""Record the correctness reference of one workload from the current program.

Run from the repository root, on the commit whose outputs define
correctness:

    python3 perfbench/record_reference.py --workload fig6_master

For every seed variant it runs the workload's config and, when the run
integrates, the same config at half the step; gate.tolerances turns the
difference into per-observable tolerances.  Writes
perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import env
import gate
import workloads

HERE = Path(__file__).resolve().parent


def _run(job: workloads.Job, work: Path) -> dict[str, list[float]]:
    from dwsqueeze import cli

    shutil.rmtree(work, ignore_errors=True)
    rc = cli.main(job.argv(work))
    if rc != 0:
        raise SystemExit(f"reference run failed with exit code {rc}: {job.config}")
    return gate.observables(job, work / "out")


def record_variant(workload: str, v: int, work: Path) -> dict:
    job = workloads.generate(workload, v)
    ref = {k: x for k, x in _run(job, work / "dt").items() if gate.fixed_bound(job, k) is None}
    halved = _run(job.halved_step(), work / "dt_half") if job.n_steps() else None
    tol = gate.tolerances(job, ref, halved)
    return {
        "config_sha256": job.config_sha256(),
        "observables": {k: {"ref": ref[k], "tol": tol[k]} for k in ref},
    }


def dump_reference(workload: str, variants: dict) -> str:
    """JSON with one line per variant, so a re-recorded variant shows as one changed line."""
    lines = [json.dumps(str(v)) + ":" + json.dumps(entry, separators=(",", ":"))
             for v, entry in variants.items()]
    head = json.dumps({"workload": workload, "pool": workloads.POOL})[:-1]
    return head + ', "variants": {\n' + ",\n".join(lines) + "\n}}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    env.pin_current_process()  # before dwsqueeze imports numpy
    sys.path.insert(0, str(HERE.parent / "src"))
    work = HERE / "work" / f"record_{args.workload}"
    variants = {}
    for v in range(workloads.POOL):
        variants[str(v)] = record_variant(args.workload, v, work)
        print(f"{args.workload} variant {v} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    out = HERE / "reference" / f"{args.workload}.json"
    out.write_text(dump_reference(args.workload, variants), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
