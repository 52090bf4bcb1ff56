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


def test_against_prints_both_packages_and_the_difference(tmp_path):
    # the other side is a checkout, found at its src/greenwalk; old.py is gone and new.py added
    before, after = tmp_path / "parent" / "src" / "greenwalk", tmp_path / "change"
    for pkg in (before, after):
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(MODULE)
    (before / "old.py").write_text("x = 1\n\ny = 2\n")
    (after / "new.py").write_text("# a comment\nz = 3\n")
    counts = json.loads(_run("--json", "--against", str(tmp_path / "parent"), str(after)))
    assert counts["modules"]["mod.py"]["code"] == {"against": 9, "this": 9, "diff": 0}
    assert counts["modules"]["old.py"] == {"lines": {"against": 3, "this": 0, "diff": -3},
                                           "code": {"against": 2, "this": 0, "diff": -2}}
    assert counts["modules"]["new.py"]["code"] == {"against": 0, "this": 1, "diff": 1}
    assert counts["total"] == {"lines": {"against": 24, "this": 23, "diff": -1},
                               "code": {"against": 11, "this": 10, "diff": -1}}
    table = _run("--against", str(before), str(after)).splitlines()
    assert table[0].split() == ["module", "lines", "against", "this", "diff", "code", "against", "this", "diff"]
    assert table[-1].split() == ["total", "24", "23", "-1", "11", "10", "-1"]
