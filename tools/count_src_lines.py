"""Count the lines of Python modules two ways: as `wc -l` does, and without
docstrings, comments and blank lines.

A line is code when it holds a token other than a comment or a docstring;
a string that spans lines counts on each line it spans, unless it is a
docstring (the first statement of a module, class or function). Only the
standard library is used.

    python tools/count_src_lines.py [PATH ...]

Each PATH is a module or a directory searched for `*.py`; the default is
`src`, next to this script's directory. Prints one row per module, then the
total.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring in `tree` starts."""
    return {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None}


def count(path: Path) -> tuple[int, int]:
    """(`wc -l` lines, code lines) of the module at `path`."""
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_starts(ast.parse(text, str(path)))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def modules(paths: list[Path]) -> list[Path]:
    return sorted(p for path in paths for p in (path.rglob("*.py") if path.is_dir() else [path]))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src"]
    rows = [(os.path.relpath(p), *count(p)) for p in modules(paths)]
    width = max([len("total")] + [len(name) for name, _, _ in rows])
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
