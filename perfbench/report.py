"""Human-readable report: accuracy next to time, per op and per layer.

Printed before the JSON result line of ``run.py``.  Lists every op with its
time and check, each layer's time beside the accuracy its ops bought, all
end-to-end metrics of ``metrics.json`` by name and unit, and the ROADMAP's
seed stage timings beside the ones just measured.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import KNOWN_DEFECTS, LAYERS

CATALOGUE = json.loads((Path(__file__).resolve().parent / "metrics.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
GATED_METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_report(workload, ops, checks, op_times, passes, e2e, named, layer, unexpected) -> None:
    failed = [op for op in ops if not checks[op.name].ok]
    print(f"perfbench workload {workload.name}: {WHY[workload.name]}")
    print(f"{len(ops)} ops per pass, {len(passes)} timed pass(es), closed loop, one call at a time")
    print()
    print(f"{'op':32s} {'layer':12s} {'time_s':>9s}  status  check")
    for op in ops:
        c = checks[op.name]
        status = "ok" if c.ok else (f"FAIL({op.known_defect})" if op.known_defect else "FAIL")
        print(f"{op.name:32s} {op.layer:12s} {op_times[op.name]:9.4f}  {status:7s} {c.detail}")
    print()

    print("accuracy next to time, per layer:")
    for name in LAYERS:
        mine = [op for op in ops if op.layer == name]
        if not mine:
            continue
        t = sum(op_times[op.name] for op in mine)
        acc = ", ".join(f"{k}={_fmt(v)}" for op in mine for k, v in checks[op.name].metrics.items())
        n_bad = sum(not checks[op.name].ok for op in mine)
        print(f"  {name:12s} {t:9.4f} s  {len(mine)} ops, {n_bad} failed  {acc}")
    print()

    values = dict(e2e, error_rate=len(failed) / len(ops), **named)
    print("end-to-end metrics:")
    for m in CATALOGUE["end_to_end"]:
        if workload.name in m["workloads"]:
            print(f"  {m['name']:22s} {_fmt(values.get(m['name'])):>14s} {m['unit']:6s} ({m['better']} is better)")
        else:
            print(f"  {m['name']:22s} {'n/a':>14s} {m['unit']:6s} (carried by {', '.join(m['workloads'])})")
    print()

    if layer is not None:
        print("per-layer metrics (traced pass):")
        for k, v in layer.items():
            print(f"  {k:36s} {_fmt(v)}")
        print()

    rows = [r for r in CATALOGUE["roadmap_baseline"] if r["workload"] == workload.name]
    if rows:
        print("seed baseline: ROADMAP stage table (2-core box) against this run:")
        for r in rows:
            now = op_times[r["op"]] / r.get("per", 1)
            print(f"  {r['stage']:45s} ROADMAP {r['seconds']:.3g} s, now {now:.3g} s (x{now / r['seconds']:.2f})")
        print()

    if failed:
        for op in failed:
            why = KNOWN_DEFECTS.get(op.known_defect, "not a documented seed defect")
            print(f"failed op {op.name}: {why}")
    if unexpected:
        print(f"UNEXPECTED failures (result marked incorrect): {', '.join(unexpected)}")
