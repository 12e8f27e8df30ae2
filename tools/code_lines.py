"""Code lines of each module of ``src/gexpect`` and their total.

    python3 tools/code_lines.py [DIR]

A code line holds at least one token that is not a comment: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function) are not counted.  A line that ends a docstring
and holds code after it is counted.  The same rule reads the same number
on every commit, so size claims compare across changes.  ``DIR`` defaults
to the package directory of this checkout.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_tokens(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) starts of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = _docstring_tokens(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.add(tok.start[0])
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "gexpect"), help="package directory")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
