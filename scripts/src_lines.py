"""Count the lines of src/dwsqueeze: physical lines and code lines, per file.

    python3 scripts/src_lines.py [--against REV] [SRC_DIR]

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body);
blank lines do not count.  A multi-line string that is not a docstring
counts on every line it spans.  SRC_DIR defaults to this tree's
src/dwsqueeze.

--against REV adds each file's physical and code-line change from the git
revision REV, and the totals' change: the files of SRC_DIR at REV are
read with `git show REV:path`, with no checkout.  A file only in REV
counts as 0 lines now, and a file not in REV as 0 lines there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def _git(src: Path, *args: str) -> str:
    done = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def _counts_at(src: Path, rev: str) -> dict[str, tuple[int, int]]:
    """File name -> (physical, code) of the *.py files of src at git revision rev."""
    # run in src, ls-tree lists that directory and REV:./name reads from it
    names = _git(src, "ls-tree", "--name-only", rev).splitlines()
    return {
        name: count(_git(src, "show", f"{rev}:./{name}"))
        for name in names if name.endswith(".py")
    }


def _total(counts: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(p for p, _ in counts.values()), sum(c for _, c in counts.values())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 scripts/src_lines.py")
    parser.add_argument("--against", metavar="REV", help="also print the change from git REV")
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "dwsqueeze",
                        metavar="SRC_DIR")
    args = parser.parse_args(argv)
    now = {p.name: count(p.read_text(encoding="utf-8")) for p in args.src.glob("*.py")}
    then = {} if args.against is None else _counts_at(args.src, args.against)
    rows = [(name, now.get(name, (0, 0)), then.get(name, (0, 0)))
            for name in sorted(now.keys() | then.keys())]
    rows.append(("total", _total(now), _total(then)))
    header = f"{'file':<20} {'physical':>8} {'code':>6}"
    print(header if args.against is None
          else f"{header} {'d physical':>10} {'d code':>6}   (against {args.against})")
    for name, (physical, code), (old_physical, old_code) in rows:
        line = f"{name:<20} {physical:>8} {code:>6}"
        if args.against is not None:
            line += f" {physical - old_physical:>+10} {code - old_code:>+6}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
