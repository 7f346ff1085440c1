"""End-to-end checks of the harness on the real program (slow: ~40 s)."""

import copy
import json
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_reference_passes_and_corrupted_reference_fails(monkeypatch):
    good = run.bench("pure_wide", 1, 1, False, ROOT)
    assert good["failed"] == 0 and good["attempted"] >= 2

    real = run.load_reference

    def corrupted(workload, seed, job):
        entry = copy.deepcopy(real(workload, seed, job))
        obs = entry["observables"]["pmf.p_exact"]
        obs["ref"][len(obs["ref"]) // 2] += 10 * obs["tol"] + 1e-12
        return entry

    monkeypatch.setattr(run, "load_reference", corrupted)
    bad = run.bench("pure_wide", 1, 1, False, ROOT)
    assert bad["ops_failed_frac"] > 0
    assert bad["failed"] == bad["attempted"]


def test_count_metrics_repeat_exactly_between_traced_runs():
    first = run.bench("pure_wide", 2, 1, True, ROOT)["metrics"]
    second = run.bench("pure_wide", 2, 1, True, ROOT)["metrics"]
    counts = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    assert first["pure_measure.detection_pmf_grid.calls"]["value"] == 1
    assert first["master_eq.rk4_steps"]["value"] == 0
