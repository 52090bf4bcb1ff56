"""Paired benchmark runs of two checkouts, in alternating order.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload timechange --pairs 5 --seed 31 --seconds 12
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload grid,timechange,paths,generic-family

Pair i (from 1) runs ``python3 perfbench/run.py --workload W --seed S+i-1
--seconds X`` once in each checkout for every listed workload W, in the
order given: the parent first on odd pairs, the change first on even ones,
so a drift of the machine's speed falls on both sides alike.  Only the last
line of each run's standard output is read, as JSON.  For every end-to-end
metric (the ``end_to_end`` list of the change's BENCHMARK.json, or every
reported metric if it has none) the script prints one table per workload:
each side's median and quartiles, the relative change of the medians, a
verdict, and in how many pairs the change was better.  The verdict is
"gain shown" when the change was better in at least 9 of 10 pairs and its
median beats the parent's by more than the parent's q3 - q1; "worse beyond
bound" when its median is worse than the parent's by more than the metric's
BENCHMARK.json ``bound``, a fraction of the parent's median; "within bound"
otherwise, or "no bound" for a metric without one.  It exits 1 when a run
fails (non-zero exit or no JSON last line) or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in checkout; RuntimeError when the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise RuntimeError(f"{checkout}: run with seed {seed} failed (exit {proc.returncode}): {tail}")
    return result


def directions(change: Path, reported: dict) -> dict:
    """Metric name -> ("lower" or "higher" is better, bound or None), for the end-to-end metrics."""
    bench = change / "BENCHMARK.json"
    if bench.is_file():
        listed = json.loads(bench.read_text()).get("end_to_end", [])
        if listed:
            return {m["name"]: (m.get("better", "lower"), m.get("bound")) for m in listed}
    return dict.fromkeys(reported, ("lower", None))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(p_med: float, p_q1: float, p_q3: float, c_med: float, sign: float, wins: int, pairs: int,
            bound) -> str:
    """The metric's verdict; sign is 1 where lower is better and -1 where higher is."""
    if 10 * wins >= 9 * pairs and sign * (p_med - c_med) > p_q3 - p_q1:
        return "gain shown"
    if bound is None:
        return "no bound"
    return "worse beyond bound" if sign * (c_med - p_med) > bound * abs(p_med) else "within bound"


def summarize(runs: dict, better: dict) -> list:
    """One row per metric: (name, parent median, q1, q3, change median, q1, q3, relative change, verdict, wins)."""
    rows = []
    for name, (way, bound) in better.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side] if name in r.get("metrics", {})]
                for side in SIDES}
        if not all(vals.values()) or len(vals["parent"]) != len(vals["change"]):
            continue
        sign = 1.0 if way == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        med = {side: statistics.median(v) for side, v in vals.items()}
        rel = med["change"] / med["parent"] - 1.0 if med["parent"] else float("nan")
        p_q = quartiles(vals["parent"])
        rows.append((name, med["parent"], *p_q, med["change"], *quartiles(vals["change"]), rel,
                     verdict(med["parent"], *p_q, med["change"], sign, wins, len(vals["parent"]), bound), wins))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i - 1")
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w for w in args.workload.split(",") if w]
    if not workloads:
        parser.error("--workload names no workload")

    dirs = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    incorrect = []
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        for workload in workloads:
            for side in SIDES if i % 2 else SIDES[::-1]:
                try:
                    result = run_once(dirs[side], workload, seed, args.seconds)
                except RuntimeError as exc:
                    print(f"bench_pairs: {exc}", file=sys.stderr)
                    return 1
                if result.get("correct") is not True:
                    incorrect.append(f"{workload} {side} (seed {seed})")
                runs[workload][side].append(result)
                print(f"pair {i} seed {seed} {workload} {side}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()))

    for workload in workloads:
        print(f"\n{workload}: {args.pairs} pair(s), seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"run_seconds {args.seconds:g}; median [q1-q3]")
        print(f"{'metric':<18}{'parent':>34}{'change':>34}{'rel':>10}  {'verdict':<20}better in")
        better = directions(args.change, runs[workload]["change"][0].get("metrics", {}))
        for name, pm, p1, p3, cm, c1, c3, rel, verdict_, wins in summarize(runs[workload], better):
            print(f"{name:<18}{f'{pm:.6g} [{p1:.6g}-{p3:.6g}]':>34}{f'{cm:.6g} [{c1:.6g}-{c3:.6g}]':>34}"
                  f"{rel:>+10.2%}  {verdict_:<20}{wins}/{args.pairs}")
    if incorrect:
        print(f"bench_pairs: runs reported \"correct\": false: {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
