"""Line counts of the greenwalk package, per module and in total.

    python3 tools/src_lines.py [--json] [PACKAGE_DIR]

For every ``*.py`` file under PACKAGE_DIR (default ``src/greenwalk`` next to
this script) it prints the physical line count and the code-only count: the
lines that hold a token of code.  Comments, blank lines and docstrings (the
string that opens a module, class or function body) are not code; any other
string is, on every line it spans.  ``--json`` prints one JSON object
instead: ``{"modules": {name: {"lines": n, "code": n}}, "total": {...}}``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "greenwalk"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) at which each docstring of the module begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> dict:
    """{"lines": physical lines, "code": lines holding a token of code} of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": len(source.splitlines()), "code": len(code)}


def count_package(package: Path) -> dict:
    modules = {str(p.relative_to(package)): count(p.read_text()) for p in sorted(package.rglob("*.py"))}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code")}
    return {"modules": modules, "total": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    counts = count_package(args.package)
    if args.json:
        print(json.dumps(counts, sort_keys=True))
        return 0
    print(f"{'module':<20} {'lines':>7} {'code':>7}")
    for name, c in [*counts["modules"].items(), ("total", counts["total"])]:
        print(f"{name:<20} {c['lines']:>7,} {c['code']:>7,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
