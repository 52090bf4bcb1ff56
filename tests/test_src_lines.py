"""tools/src_lines.py on a temporary package with every kind of line it tells apart."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a multi-line string
that is not a docstring
counts as code"""
    return x, text


class C:
    """Class docstring."""

    y = (1,
         2)
'''


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True).stdout


def test_counts_physical_and_code_lines(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "__init__.py").write_text("")
    counts = json.loads(_run("--json", str(pkg)))
    # code: import, def, the three lines of text, return, class, and the two of y
    assert counts["modules"]["mod.py"] == {"lines": 21, "code": 9}
    assert counts["modules"]["__init__.py"] == {"lines": 0, "code": 0}
    assert counts["total"] == {"lines": 21, "code": 9}
    table = _run(str(pkg)).splitlines()
    assert table[0].split() == ["module", "lines", "code"]
    assert table[-1].split() == ["total", "21", "9"]
