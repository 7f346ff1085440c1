"""Spans around the layer calls the CLI makes, recorded from the benchmark.

dwsqueeze.cli imports each layer function by name, so tracing replaces
those module-level bindings with wrappers for the duration of one
invocation and restores them afterwards; nothing under src/ changes.
Each span records its start, end, parent, whether it raised, and counts
of the work done, computed from the call's arguments and result.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT_SPAN = "cli.main"


class CoverageError(RuntimeError):
    """A layer dropped out of the trace: its binding is gone or it was never called."""


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    raised: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, self.clock(), parent)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        except BaseException:
            s.raised = True
            raise
        finally:
            s.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.counts.update(count(result, *args, **kwargs))
                return result

        return traced


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, exceptions, summed counts.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, dict] = {}
    for s, inner in zip(spans, child_time):
        e = out.setdefault(
            s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "exceptions": 0, "counts": {}}
        )
        e["calls"] += 1
        e["total_s"] += s.duration
        e["self_s"] += s.duration - inner
        e["exceptions"] += int(s.raised)
        for key, value in s.counts.items():
            e["counts"][key] = e["counts"].get(key, 0) + value
    return out


def _integrate_counts(samples, params, rho0, grid, *args, **kwargs):
    return {"rk4_steps": max(1, int(round(grid.t_max / grid.dt))), "samples": len(samples)}


def _q_grid_counts(result, source, n_theta, n_phi):
    n_atoms = getattr(source, "n_atoms", None)
    if n_atoms is None:
        n_atoms = len(source) - 1
    points = n_theta * n_phi
    return {"q_points": points, "overlap_bytes": points * (n_atoms + 1) * 16}


def _grid_counts(grid, state, *args, **kwargs):
    return {"grid_cells": (state.n_atoms + 1) * grid.shape[0] * grid.shape[1]}


def _csv_counts(result, path, *args, **kwargs):
    return {"csv_bytes": os.path.getsize(path)}


# span name -> (name bound in dwsqueeze.cli, count function)
LAYER_CALLS = {
    "master_eq.integrate": ("integrate", _integrate_counts),
    "master_eq.conditional_density": ("conditional_density", None),
    "spin_core.moments_from_density": ("moments_from_density", None),
    "spin_core.build_spin_coherent": ("build_spin_coherent", None),
    "husimi.q_grid": ("q_grid", _q_grid_counts),
    "pure_measure.detection_pmf_grid": ("detection_pmf_grid", _grid_counts),
    "pure_measure.conditional_state": ("conditional_state", None),
    "pure_measure.conditional_gaussian": ("conditional_gaussian", None),
    "cli.write_csv": ("write_csv", _csv_counts),
}


@contextmanager
def patched(tracer: Tracer, module):
    """Swap the module's layer bindings for traced wrappers, then restore them."""
    missing = [attr for attr, _ in LAYER_CALLS.values() if not callable(getattr(module, attr, None))]
    if missing:
        raise CoverageError(f"{module.__name__} no longer binds {missing}")
    saved = {attr: getattr(module, attr) for attr, _ in LAYER_CALLS.values()}
    try:
        for name, (attr, count) in LAYER_CALLS.items():
            setattr(module, attr, tracer.wrap(name, saved[attr], count))
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def expected_spans(command: str, config: dict) -> set[str]:
    """Spans an invocation of this command and config must record."""
    spans = {ROOT_SPAN, "spin_core.build_spin_coherent", "cli.write_csv"}
    if command in ("master", "sweep"):
        spans |= {
            "master_eq.integrate",
            "master_eq.conditional_density",
            "spin_core.moments_from_density",
        }
        if config.get("q_omega_t"):
            spans.add("husimi.q_grid")
    elif command == "pure":
        spans |= {
            "pure_measure.conditional_state",
            "pure_measure.conditional_gaussian",
            "pure_measure.detection_pmf_grid",
        }
        if config.get("emit_q"):
            spans.add("husimi.q_grid")
    return spans


def check_coverage(summary: dict[str, dict], expected: set[str]):
    silent = sorted(name for name in expected if summary.get(name, {}).get("calls", 0) == 0)
    if silent:
        raise CoverageError(f"expected spans recorded no calls: {silent}")
