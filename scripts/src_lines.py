"""Count the lines of src/dwsqueeze: physical lines and code lines, per file.

    python3 scripts/src_lines.py [SRC_DIR]

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body);
blank lines do not count.  A multi-line string that is not a docstring
counts on every line it spans.  SRC_DIR defaults to this tree's
src/dwsqueeze.
"""

from __future__ import annotations

import ast
import io
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


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 scripts/src_lines.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else ROOT / "src" / "dwsqueeze"
    total_physical = total_code = 0
    print(f"{'file':<20} {'physical':>8} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        physical, code = count(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
