"""Thread pinning and the environment record attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

# BLAS/OpenMP threads for every process the benchmark starts.  One thread
# keeps a run from competing with itself on a small machine; it never
# exceeds nproc.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc keeps freed memory instead of returning each large array to the
# kernel, so repeated invocations do not pay page faults and zeroing again.
# That kernel time varied by 0.2-0.5 s per pure_wide invocation and was the
# largest part of the run-to-run spread; the first invocation still pays it.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(2**32), "MALLOC_TRIM_THRESHOLD_": str(2**32)}


def pinned_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports the program from src."""
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env.update(MALLOC_VARS)
    env["PYTHONPATH"] = str(src)
    return env


def pin_current_process():
    """Pin this interpreter; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread count must be pinned before numpy is imported")
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tree_sha256(src: Path) -> str:
    """Content hash of the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record(root: Path, src: Path, versions: dict) -> dict:
    """Thread count, nproc, library versions and program identity."""
    return {
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(src),
    }
