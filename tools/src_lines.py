"""Raw and code line counts of every module of src/rgdcheck, and their totals.

Code lines leave out blank lines, lines holding only a comment, and the lines
of docstrings (the string that opens a module, class or function body).

Run it from anywhere:  python3 tools/src_lines.py [package directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rgdcheck"
# tokens that make no line a code line
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module and its classes
    and functions."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def counts(package: Path) -> dict[str, tuple[int, int]]:
    """module file name -> (raw lines, code lines)."""
    out = {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        out[path.name] = (len(source.splitlines()), code_lines(source))
    return out


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    table = counts(package)
    width = max(map(len, table), default=5)
    print(f"{'module':<{width}}  {'raw':>5}  {'code':>5}")
    for name, (raw, code) in table.items():
        print(f"{name:<{width}}  {raw:>5}  {code:>5}")
    raw = sum(r for r, _ in table.values())
    code = sum(c for _, c in table.values())
    print(f"{'total':<{width}}  {raw:>5}  {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
