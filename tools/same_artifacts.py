"""Byte-for-byte comparison of the CLI artifacts of two checkouts.

    python3 tools/same_artifacts.py PARENT_DIR CHANGE_DIR

Runs every ``greenwalk run`` experiment at its default config once in each
checkout, as ``python3 -m greenwalk.cli run CONFIG --out DIR`` with
``PYTHONPATH=<checkout>/src``, the two checkouts at once.  The stochastic experiments get ``mc`` n = 200
and seed 11, and the experiments that take a subordinator run once more with
the gamma family.  Each run writes its artifact and its manifest into a
directory of its own; the artifacts are compared byte for byte, the manifests
after the output directory is replaced by one placeholder.  The script prints
every file that differs or exists on one side only, and exits 1 on such a
file or on a failed run.
"""

from __future__ import annotations

import argparse
import json
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
    *((f"{name}{suffix}", name, {"subordinator": sub, **({"mc": MC} if name == "renorm-histogram" else {})})
      for name in ("subordinator-check", "rho", "gfd", "subordinate-solve", "fke-residual", "renorm-histogram")
      for suffix, sub in (("", STABLE), ("-gamma", GAMMA))),
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
    print(f"\n{len(RUNS)} runs, {len(failed)} failed; {n_files} files compared, {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
