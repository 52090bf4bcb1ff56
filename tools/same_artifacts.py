"""Byte-for-byte comparison of the CLI artifacts of two checkouts.

    python3 tools/same_artifacts.py PARENT_DIR CHANGE_DIR

Runs every ``greenwalk run`` experiment at its default config once in each
checkout, as ``python3 -m greenwalk.cli run CONFIG --out DIR`` with
``PYTHONPATH=<checkout>/src``, the two checkouts at once.  The stochastic experiments get ``mc`` n = 200
and seed 11, and the experiments that take a subordinator run once more with
the gamma family.  renorm-curve runs once more with the stable family at
``alpha`` 0.7, whose W_T comes from the Talbot inversion rather than the
1/2-stable closed form, and potential once more off centre, at (20, 0, 0).
green-series and validate-kernel run once more on the 64^3 box of half width
15.3, whose coordinates -L + i h do not mirror bit for bit, so that the grid
transforms take the rfftn half layout where the default box takes the orthant
DCT-I, and the sampled density carries the roundoff of its coordinates.
rho runs once more at ``alpha`` 0.7 and renorm-histogram at ``alpha`` 0.9, so
that the Kanter rule runs: its rho_t and, where the histogram's Laplace table
fails its gate, its clipped mean E[S(tau) ^ T].
The five experiments that run with the Cauchy kernel run
once more with it, green-fourier at ``lam`` 0.5 since the 1-D Green measure
diverges.  Each of the 13 experiments that take tolerances or horizons runs
once more (``<name>-set``) with every one of them set off its default, so an
override that is lost on its way to the run shows.  Each run writes its artifact and its manifest into a
directory of its own; the artifacts are compared byte for byte, the manifests
after the output directory is replaced by one placeholder.  The script prints
every file that differs or exists on one side only, and exits 1 on such a
file or on a failed run.  For a differing CSV with the same header and row
count on both sides it also prints, per numeric column, the largest relative
difference |a - b| / max(|a|, |b|) over the rows, so that a move in the last
digits reads apart from a real change.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SIDES = ("parent", "change")
MC = {"n": 200, "seed": 11}
GAMMA = {"family": "gamma"}
STABLE = {"family": "stable"}
CAUCHY = {"family": "cauchy"}
# (run id, experiment, config sections besides schema_version, experiment and output)
RUNS = [
    ("validate-kernel", "validate-kernel", {}),
    ("fit-expansion", "fit-expansion", {}),
    ("green-series", "green-series", {}),
    ("green-fourier", "green-fourier", {}),
    ("green-compare", "green-compare", {}),
    ("potential", "potential", {}),
    ("mc-potential", "mc-potential", {"mc": MC}),
    ("random-green", "random-green", {"mc": MC}),
    ("renorm-curve", "renorm-curve", {"subordinator": STABLE}),
    ("renorm-curve-stable07", "renorm-curve", {"subordinator": {"family": "stable", "params": {"alpha": 0.7}}}),
    ("potential-off-centre", "potential", {"point": [20.0, 0.0, 0.0]}),
    ("green-series-unmirrored", "green-series", {"grid": {"N": 64, "L": 15.3}}),
    ("validate-kernel-unmirrored", "validate-kernel", {"grid": {"N": 64, "L": 15.3}}),
    ("rho-stable07", "rho", {"subordinator": {"family": "stable", "params": {"alpha": 0.7}}}),
    ("renorm-histogram-stable09", "renorm-histogram",
     {"subordinator": {"family": "stable", "params": {"alpha": 0.9}}, "mc": MC}),
    *((f"{name}{suffix}", name, {"subordinator": sub, **({"mc": MC} if name == "renorm-histogram" else {})})
      for name in ("subordinator-check", "rho", "gfd", "subordinate-solve", "fke-residual", "renorm-histogram")
      for suffix, sub in (("", STABLE), ("-gamma", GAMMA))),
    ("validate-kernel-cauchy", "validate-kernel", {"kernel": CAUCHY}),
    ("fit-expansion-cauchy", "fit-expansion", {"kernel": CAUCHY}),
    ("green-fourier-cauchy", "green-fourier", {"kernel": CAUCHY, "tolerances": {"lam": 0.5}}),
    ("mc-potential-cauchy", "mc-potential", {"kernel": CAUCHY, "mc": MC}),
    ("random-green-cauchy", "random-green", {"kernel": CAUCHY, "mc": MC}),
    ("fit-expansion-set", "fit-expansion", {"tolerances": {"k_min": 2e-3, "k_max": 2e-2}}),
    *((f"{name}-set", name, {"tolerances": {"lam": 0.5, "radius": 2.0}})
      for name in ("green-series", "green-fourier", "green-compare")),
    *((f"{name}-set", name, {"mc": MC, "horizons": {"T": 50.0}}) for name in ("mc-potential", "random-green")),
    ("subordinator-check-set", "subordinator-check", {"subordinator": STABLE, "tolerances": {"s0": 2.0}}),
    ("rho-set", "rho", {"subordinator": STABLE, "tolerances": {"tau_max": 5.0, "n_tau": 11},
                        "horizons": {"T_grid": [0.5, 2.0]}}),
    ("gfd-set", "gfd", {"subordinator": STABLE, "tolerances": {"power": 0.5}, "horizons": {"T": 1.0, "dt": 0.01}}),
    ("subordinate-solve-set", "subordinate-solve", {"subordinator": STABLE, "horizons": {"T_grid": [0.25, 3.0]}}),
    ("renorm-curve-set", "renorm-curve", {"subordinator": STABLE, "horizons": {"T_grid": [256.0, 4096.0]}}),
    ("renorm-histogram-set", "renorm-histogram", {"subordinator": STABLE, "mc": MC, "horizons": {"T": 100.0}}),
    ("fke-residual-set", "fke-residual", {"subordinator": STABLE, "tolerances": {"levels": 3, "t_min": 0.2},
                                          "horizons": {"T": 1.0, "dt": 0.02}}),
]
PLACEHOLDER = "<out>"


def run_once(checkout: Path, run_id: str, experiment: str, sections: dict, work: Path) -> str | None:
    """Run one experiment in checkout, writing into work / run_id; the failure's last line, or None."""
    out = work / run_id
    out.mkdir(parents=True)
    cfg = work / f"{run_id}.json"
    cfg.write_text(json.dumps({"schema_version": 1, "experiment": experiment, "output": run_id, **sections}))
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "greenwalk.cli", "run", str(cfg), "--out", str(out)],
                          cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    lines = (proc.stdout + proc.stderr).strip().splitlines() or ["(no output)"]
    return f"exit {proc.returncode}: {lines[-1]}"


def read_normalised(path: Path, out: Path) -> bytes:
    """The file's bytes; a manifest's output directory is replaced by the placeholder."""
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        data = data.replace(str(out).encode(), PLACEHOLDER.encode())
    return data


def _relative_gap(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numbers as written: 0 where they are equal (or both NaN), inf where
    they differ and one is not finite; ValueError where one is not a number."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf


def column_gaps(a: Path, b: Path) -> dict | None:
    """{column: largest relative gap over the rows} for every column whose cells are all numbers on
    both sides, or None unless both CSVs have the same header and the same number of rows."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.read_text().splitlines())) or [[]] for p in (a, b))
    if head_a != head_b or len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a + rows_b):
        return None
    gaps = {}
    for j, name in enumerate(head_a):
        try:
            gaps[name] = max((_relative_gap(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        except ValueError:  # a cell that is not a number
            continue
    return gaps


def compare(work: dict, run_id: str) -> tuple[list, int]:
    """(names of the run's files that differ or exist on one side only, number of files compared)."""
    outs = {side: work[side] / run_id for side in SIDES}
    names = sorted({p.name for out in outs.values() for p in out.iterdir()})
    differ = [name for name in names
              if not all((outs[side] / name).is_file() for side in SIDES)
              or len({read_normalised(outs[side] / name, outs[side]) for side in SIDES}) > 1]
    return differ, len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    failed, differ, n_files = [], [], 0
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp, ThreadPoolExecutor(len(SIDES)) as pool:
        work = {side: Path(tmp) / side for side in SIDES}
        for run_id, experiment, sections in RUNS:
            errors = pool.map(lambda side: run_once(dirs[side], run_id, experiment, sections, work[side]), SIDES)
            bad = {side: err for side, err in zip(SIDES, errors) if err}
            if bad:
                failed.append(run_id)
                for side, err in bad.items():
                    print(f"{run_id}: {side} run failed ({err})")
                continue
            names, n = compare(work, run_id)
            n_files += n
            differ.extend(f"{run_id}/{name}" for name in names)
            print(f"{run_id}: {n} files, {'differ: ' + ', '.join(names) if names else 'identical'}")
            for name in names:
                paths = [work[side] / run_id / name for side in SIDES]
                gaps = column_gaps(*paths) if name.endswith(".csv") and all(p.is_file() for p in paths) else None
                if gaps:
                    print(f"  {name}: largest relative difference "
                          + ", ".join(f"{col} {gap:.2g}" for col, gap in gaps.items()))
    print(f"\n{len(RUNS)} runs, {len(failed)} failed; {n_files} files compared, {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
