"""tools/bench_pairs.py against two stub checkouts whose perfbench/run.py prints fixed results."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

STUB = '''
import argparse, json, os, sys
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
args = parser.parse_args()
cfg = json.load(open("stub.json"))
with open(os.environ["STUB_LOG"], "a") as fh:
    fh.write(f"{cfg['side']} {args.workload} {args.seed} {args.seconds:g}\\n")
print("a report line the tool must not read")
print(json.dumps({"correct": True, "not": "the last line"}))
if cfg.get("crash"):
    sys.exit(3)
print(json.dumps({
    "correct": cfg["correct"],
    "metrics": {
        "wall_ref": {"value": cfg["wall_ref"] + 0.01 * args.seed, "unit": "ref"},
        "op_success_rate": {"value": cfg["success"], "unit": "ratio"},
    },
}))
'''


def _checkout(root: Path, side: str, wall_ref: float, success: float = 1.0, correct: bool = True,
              crash: bool = False, bounds: dict = None) -> Path:
    d = root / side
    (d / "perfbench").mkdir(parents=True)
    (d / "perfbench" / "run.py").write_text(STUB)
    (d / "stub.json").write_text(json.dumps(
        {"side": side, "wall_ref": wall_ref, "success": success, "correct": correct, "crash": crash}))
    listed = [{"name": "wall_ref", "better": "lower"}, {"name": "op_success_rate", "better": "higher"}]
    for metric in listed:
        if bounds and metric["name"] in bounds:
            metric["bound"] = bounds[metric["name"]]
    (d / "BENCHMARK.json").write_text(json.dumps({"end_to_end": listed}))
    return d


def _run(tmp_path, parent, change, pairs=3, workload="timechange"):
    log = tmp_path / "calls.log"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", workload,
         "--pairs", str(pairs), "--seed", "31", "--seconds", "0.5"],
        capture_output=True, text=True, env={"STUB_LOG": str(log), "PATH": "/usr/bin:/bin"},
    )
    calls = log.read_text().splitlines() if log.exists() else []
    return proc, calls


def test_pairs_alternate_and_summarize(tmp_path):
    parent = _checkout(tmp_path, "parent", 1.0, success=1.0)
    change = _checkout(tmp_path, "change", 0.5, success=0.9)
    proc, calls = _run(tmp_path, parent, change, pairs=3)
    assert proc.returncode == 0, proc.stderr
    # parent first on odd pairs, change first on even ones; seed + i - 1 per pair
    assert calls == [
        "parent timechange 31 0.5", "change timechange 31 0.5",
        "change timechange 32 0.5", "parent timechange 32 0.5",
        "parent timechange 33 0.5", "change timechange 33 0.5",
    ]
    rows = {line.split()[0]: line for line in proc.stdout.splitlines() if line.startswith(("wall_ref", "op_"))}
    # medians 1.32 and 0.82 with quartiles over seeds 31-33; wall_ref is lower in all 3 pairs
    assert "1.32 [1.315-1.325]" in rows["wall_ref"] and "0.82 [0.815-0.825]" in rows["wall_ref"]
    assert "-37.88%" in rows["wall_ref"] and rows["wall_ref"].endswith("3/3")
    # higher is better for the success rate, which fell
    assert "-10.00%" in rows["op_success_rate"] and rows["op_success_rate"].endswith("0/3")


def test_listed_workloads_run_in_each_pair_and_get_one_table_each(tmp_path):
    parent = _checkout(tmp_path, "parent", 1.0)
    change = _checkout(tmp_path, "change", 0.5)
    proc, calls = _run(tmp_path, parent, change, pairs=2, workload="grid,paths")
    assert proc.returncode == 0, proc.stderr
    # each pair runs every workload in the order listed, each in that pair's side order
    assert calls == [
        "parent grid 31 0.5", "change grid 31 0.5", "parent paths 31 0.5", "change paths 31 0.5",
        "change grid 32 0.5", "parent grid 32 0.5", "change paths 32 0.5", "parent paths 32 0.5",
    ]
    titles = [line.split(":")[0] for line in proc.stdout.splitlines() if "pair(s)" in line]
    assert titles == ["grid", "paths"]
    rows = [line for line in proc.stdout.splitlines() if line.startswith("wall_ref")]
    assert len(rows) == 2 and all(r.endswith("2/2") for r in rows)


BOUNDS = {"wall_ref": 0.25, "op_success_rate": 0.05}


def _verdicts(proc):
    """Metric name -> its row's verdict, the text between the relative change and the wins."""
    rows = [line for line in proc.stdout.splitlines() if line.startswith(("wall_ref", "op_"))]
    return {row.split()[0]: row.split("%", 1)[1].rsplit(None, 1)[0].strip() for row in rows}


def test_verdict_shows_a_gain_beyond_the_parents_spread(tmp_path):
    # the change wins 10/10 pairs, and its median gap 0.5 exceeds the parent's q3 - q1 = 0.045
    parent = _checkout(tmp_path, "parent", 1.0, bounds=BOUNDS)
    change = _checkout(tmp_path, "change", 0.5, bounds=BOUNDS)
    proc, _ = _run(tmp_path, parent, change, pairs=10)
    assert proc.returncode == 0, proc.stderr
    assert _verdicts(proc) == {"wall_ref": "gain shown", "op_success_rate": "within bound"}


def test_verdict_needs_ten_pairs_for_a_gain(tmp_path):
    # 4/4 pairs won by far more than the parent's spread are still too few to show a gain
    parent = _checkout(tmp_path, "parent", 1.0, bounds=BOUNDS)
    change = _checkout(tmp_path, "change", 0.5, bounds=BOUNDS)
    proc, _ = _run(tmp_path, parent, change, pairs=4)
    row = next(line for line in proc.stdout.splitlines() if line.startswith("wall_ref"))
    assert row.endswith("4/4") and _verdicts(proc)["wall_ref"] == "within bound"


def test_verdict_needs_the_gap_to_exceed_the_parents_spread(tmp_path):
    # 10/10 pairs won, but the gap 0.005 lies inside the parent's q3 - q1 = 0.045
    parent = _checkout(tmp_path, "parent", 1.0, bounds=BOUNDS)
    change = _checkout(tmp_path, "change", 0.995, bounds=BOUNDS)
    proc, _ = _run(tmp_path, parent, change, pairs=10)
    row = next(line for line in proc.stdout.splitlines() if line.startswith("wall_ref"))
    assert row.endswith("10/10") and _verdicts(proc)["wall_ref"] == "within bound"


def test_verdict_flags_a_metric_worse_beyond_its_bound(tmp_path):
    # wall_ref 1.82 against 1.32 is 38% worse (bound 25%); the success rate
    # 0.9 against 1 is 10% worse (bound 5%)
    parent = _checkout(tmp_path, "parent", 1.0, bounds=BOUNDS)
    change = _checkout(tmp_path, "change", 1.5, success=0.9, bounds=BOUNDS)
    proc, _ = _run(tmp_path, parent, change, pairs=3)
    assert proc.returncode == 0, proc.stderr
    assert _verdicts(proc) == {"wall_ref": "worse beyond bound", "op_success_rate": "worse beyond bound"}
    # inside the bound: 1.52 against 1.32 is 15% worse
    parent = _checkout(tmp_path / "b", "parent", 1.0, bounds=BOUNDS)
    change = _checkout(tmp_path / "b", "change", 1.2, bounds=BOUNDS)
    assert _verdicts(_run(tmp_path, parent, change, pairs=3)[0])["wall_ref"] == "within bound"


def test_verdict_without_a_bound(tmp_path):
    parent = _checkout(tmp_path, "parent", 1.0)
    change = _checkout(tmp_path, "change", 1.5)
    assert _verdicts(_run(tmp_path, parent, change, pairs=2)[0])["wall_ref"] == "no bound"


def test_incorrect_run_fails(tmp_path):
    parent = _checkout(tmp_path, "parent", 1.0)
    change = _checkout(tmp_path, "change", 0.5, correct=False)
    proc, calls = _run(tmp_path, parent, change, pairs=2)
    assert proc.returncode == 1
    assert len(calls) == 4  # every pair still runs and is summarized
    assert '"correct": false' in proc.stderr and "change (seed 31)" in proc.stderr


@pytest.mark.parametrize("side", ["parent", "change"])
def test_failed_run_stops_with_an_error(tmp_path, side):
    parent = _checkout(tmp_path, "parent", 1.0, crash=side == "parent")
    change = _checkout(tmp_path, "change", 0.5, crash=side == "change")
    proc, calls = _run(tmp_path, parent, change)
    assert proc.returncode == 1
    assert "failed (exit 3)" in proc.stderr and str(tmp_path / side) in proc.stderr
    assert calls[-1].startswith(side)
