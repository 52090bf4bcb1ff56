"""Line counts of the greenwalk package, per module and in total.

    python3 tools/src_lines.py [--json] [--against DIR] [PACKAGE_DIR]

For every ``*.py`` file under PACKAGE_DIR (default ``src/greenwalk`` next to
this script) it prints the physical line count and the code-only count: the
lines that hold a token of code.  Comments, blank lines and docstrings (the
string that opens a module, class or function body) are not code; any other
string is, on every line it spans.  ``--json`` prints one JSON object
instead: ``{"modules": {name: {"lines": n, "code": n}}, "total": {...}}``.

``--against DIR`` compares with another checkout (its ``src/greenwalk``) or
package directory: each module's lines and code lines there, in PACKAGE_DIR,
and the difference, a module missing on one side counting 0 there.  With
``--json`` each count is then ``{"against": n, "this": n, "diff": n}``.
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


def compare(against: Path, package: Path) -> dict:
    """count_package of both, each count as {"against", "this", "diff"}."""
    base, this = count_package(against), count_package(package)
    zero = {"lines": 0, "code": 0}

    def pair(a: dict, b: dict) -> dict:
        return {key: {"against": a[key], "this": b[key], "diff": b[key] - a[key]} for key in ("lines", "code")}

    names = sorted({*base["modules"], *this["modules"]})
    return {"modules": {name: pair(base["modules"].get(name, zero), this["modules"].get(name, zero))
                        for name in names},
            "total": pair(base["total"], this["total"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--against", type=Path, help="another checkout or package directory to compare with")
    args = parser.parse_args(argv)
    if args.against is None:
        counts = count_package(args.package)
        header, cell = f"{'lines':>7} {'code':>7}", lambda c: f"{c:>7,}"
    else:
        checkout_package = args.against / "src" / "greenwalk"
        counts = compare(checkout_package if checkout_package.is_dir() else args.against, args.package)
        header = " ".join(f"{f'{key} against':>14} {'this':>7} {'diff':>7}" for key in ("lines", "code"))
        cell = lambda c: f"{c['against']:>14,} {c['this']:>7,} {c['diff']:>+7,}"
    if args.json:
        print(json.dumps(counts, sort_keys=True))
        return 0
    print(f"{'module':<20} {header}")
    for name, c in [*counts["modules"].items(), ("total", counts["total"])]:
        print(f"{name:<20} {cell(c['lines'])} {cell(c['code'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
