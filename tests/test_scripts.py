"""The repository's tooling scripts, run as their users run them."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

ROWS = (
    "1.0000000000000000e+00,2.0000000000000000e+00",
    "-3.0000000000000000e+00,4.0000000000000000e+00",
)


def run_script(name, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True,
    )


def gate_set(root, rows=ROWS):
    """A one-run gate set: a CSV with two columns and the run's result file."""
    out = root / "run" / "out"
    out.mkdir(parents=True)
    (out / "t.csv").write_text("# n_atoms = 3\n# columns: x,y\n" + "\n".join(rows) + "\n")
    (root / "run" / "result.txt").write_text("exit = 0\n")
    return root


def compare(a, b):
    done = run_script("gate_set.py", "--compare", str(a), str(b))
    return done.returncode, done.stdout.splitlines()


def test_gate_set_compare_identical(tmp_path):
    a = gate_set(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert compare(a, b) == (0, ["run/out/t.csv: identical", "run/result.txt: identical"])


@pytest.mark.parametrize(
    "cell, report",
    [
        # y's column maximum is 4, so 4 -> 4.5 is a relative 0.125
        ("4.5000000000000000e+00", "1 of 4 cells differ, largest |diff| / column max 0.125 (y)"),
        # a cell set to 0 is also counted as zeroed, with its former value
        ("0.0000000000000000e+00",
         "1 of 4 cells differ, largest |diff| / column max 1 (y), "
         "1 became 0 (largest former |value| 4)"),
    ],
    ids=["changed", "zeroed"],
)
def test_gate_set_compare_reports_one_cell(tmp_path, cell, report):
    a = gate_set(tmp_path / "a")
    b = gate_set(tmp_path / "b", (ROWS[0], f"-3.0000000000000000e+00,{cell}"))
    assert compare(a, b) == (1, [f"run/out/t.csv: {report}", "run/result.txt: identical"])


def test_gate_set_compare_reports_a_missing_file(tmp_path):
    a = gate_set(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    (b / "run" / "result.txt").unlink()
    code, lines = compare(a, b)
    assert code == 1
    assert lines == ["run/out/t.csv: identical", f"run/result.txt: only in {a}"]


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_src_lines_against_a_revision(tmp_path):
    # the delta is read from the revision with no checkout: a file changed
    # since it, one added and one removed, and the totals
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (src / "gone.py").write_text("y = 2\nz = 3\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    (src / "a.py").write_text('"""Doc."""\n\nx = 1\n# note\nw = [\n    4,\n]\n')
    (src / "gone.py").unlink()
    (src / "new.py").write_text("v = 5\n")
    done = run_script("src_lines.py", "--against", "HEAD", str(src))
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:] for line in done.stdout.splitlines()[1:]}
    assert rows == {
        "a.py": ["7", "4", "+4", "+3"],
        "gone.py": ["0", "0", "-2", "-2"],
        "new.py": ["1", "1", "+1", "+1"],
        "total": ["8", "5", "+3", "+2"],
    }
    # the working tree's files are left as they are
    assert sorted(p.name for p in src.iterdir()) == ["a.py", "new.py"]
    assert run_script("src_lines.py", "--against", "no-such-rev", str(src)).returncode != 0


# reads the gate set's fine-grid run as the CLI would and prints its Q source's
# support window and N
WINDOW_PROBE = """
import sys, tempfile
from pathlib import Path
import gate_set
from dwsqueeze import cli, husimi
from dwsqueeze.pure_measure import conditional_state
job = gate_set._jobs()["pure_wide-seed0-n200-fine-q"]
with tempfile.TemporaryDirectory() as work:
    cfg = cli.load_config(job.argv(Path(work))[2])
state, setting = cli._pure_model(cfg)
cond = conditional_state(state, cfg.light(), setting, cfg.resolve_outcome())
window = husimi._support_window([cond], cfg.n_atoms)
print(window.start, window.stop, cfg.n_atoms, cfg.n_theta, cfg.n_phi)
"""


def test_gate_set_fine_grid_run_has_a_partial_window():
    # the run that checks the requested grid's own point cut after the
    # resampling needs a partial window and a grid finer than the band
    src = SCRIPTS.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(SCRIPTS), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", WINDOW_PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    start, stop, n_atoms, n_theta, n_phi = map(int, done.stdout.split())
    assert 0 < stop - start < n_atoms + 1
    assert n_theta > n_atoms + 1 and n_phi > 2 * n_atoms + 2
