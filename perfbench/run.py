"""Benchmark of greenwalk: time next to oracle accuracy, spans per module.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Runs from the root of a source checkout and imports greenwalk from its
``src`` directory.  Load is a closed loop: one process, one call at a time.
A pass is the workload's fixed script of calls (see ``workloads.py``).
Passes repeat until ``--seconds`` have elapsed, and at least twice.  Every
op's output is checked against the offline oracles in ``oracle_values.json``.
With ``--trace 1`` a further pass runs on instrumented inputs and the
per-layer metrics are reported instead of the end-to-end ones.  A report goes to standard output;
its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 2
FRESH_DOUBLES = 8 * 1024 * 1024
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _prepare_environment() -> None:
    """Cap BLAS/OpenMP threads at the usable cores and put src on the path.

    Must run before numpy is imported.  Exits non-zero when the checkout has
    no greenwalk sources, so an installed copy is never measured instead.
    """
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    os.environ.pop("GREENWALK_SEED", None)  # inputs come from --seed only
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    if not (SRC / "greenwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no greenwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _measure_setup() -> float:
    """Median wall time of a fresh interpreter importing greenwalk and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _same(a, b) -> bool:
    """Bit-for-bit equality of two op outputs (nan equals nan)."""
    import numpy as np

    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (np.ndarray, float, np.floating)) or isinstance(b, (np.ndarray, float, np.floating)):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    return a == b


class SpeedProbe:
    """Times a fixed mix of the work greenwalk does: FFTs, small RNG calls, a
    special function and fresh large arrays, whose page faults take up to half
    of the renormalized curve's time.

    The CPU of a shared machine runs up to 25% faster or slower for seconds
    to minutes at a time, and page faults get dearer or cheaper apart from
    it; both move every op time alike.  The probe runs
    before the first op of a pass and after every op, and each op's time is
    divided by the mean of the two probe times around it; the sum over a
    pass, ``wall_ref``, is the pass time in probe units, in which most of
    that drift cancels.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        self._np, self._special = np, special
        self._field = np.random.default_rng(0).random((64, 64, 64))
        self._xs = np.linspace(0.0, 5.0, 50000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self._np.fft.fftn(self._field)
        rng = self._np.random.default_rng(1)
        for _ in range(800):
            rng.exponential(size=16).cumsum()
        for _ in range(2):
            self._special.erfcx(self._xs)
        for _ in range(2):
            # 64 MiB is above glibc's largest mmap threshold, so every array
            # is fresh memory, faulted in page by page as in the program
            self._np.ones(FRESH_DOUBLES).sum()
        return time.perf_counter() - t0


class PassResult:
    def __init__(self):
        self.outs: dict = {}
        self.errors: dict = {}
        self.times: dict = {}
        self.seconds = 0.0
        self.ref_units = 0.0


def run_pass(ops, ctx, tracer=None, probe=None) -> PassResult:
    """Call every op once, in order; an op that raises is recorded, not re-raised.

    ``seconds`` sums the op times, which exclude the probe runs.
    """
    res = PassResult()
    before = probe() if probe else None
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res.outs[op.name] = op.call(ctx)
            else:
                with tracer.span(op.layer, op.name):
                    res.outs[op.name] = op.call(ctx)
        except Exception as exc:  # a raising op is a failed op; keep measuring the rest
            res.outs[op.name] = None
            res.errors[op.name] = f"{type(exc).__name__}: {exc}"
        res.times[op.name] = time.perf_counter() - t0
        if probe:
            after = probe()
            res.ref_units += res.times[op.name] / (0.5 * (before + after))
            before = after
    res.seconds = sum(res.times.values())
    return res


def same_outputs(a: PassResult, b: PassResult) -> list:
    """Names of ops whose outputs or errors differ between two passes."""
    return [name for name in a.outs
            if a.errors.get(name) != b.errors.get(name) or not _same(a.outs[name], b.outs[name])]


def check_pass(ops, res: PassResult, oracle: dict) -> dict:
    import workloads

    checks = {}
    for op in ops:
        if op.name in res.errors:
            checks[op.name] = workloads.Check(False, res.errors[op.name])
            continue
        try:
            checks[op.name] = op.check(res.outs[op.name], oracle)
        except Exception as exc:  # a malformed output fails its check
            checks[op.name] = workloads.Check(False, f"check raised {type(exc).__name__}: {exc}")
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _prepare_environment()
    import workloads

    inputs = workloads.make_inputs()
    if args.setup_probe:
        return 0
    if args.workload == "all":
        rcs = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT).returncode
               for name in workloads.WORKLOADS]
        return max(rcs)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    import oracles
    import report
    import tracing

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops()
    oracle = oracles.load()
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = _measure_setup()
        ctx = workloads.Ctx(args.seed, workdir, **inputs)
        probe = SpeedProbe()
        passes = []
        t_start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(ops, ctx, probe=probe))
        mismatched = set()
        for p in passes[1:]:
            mismatched.update(same_outputs(passes[0], p))

        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tctx = workloads.Ctx(args.seed, workdir, **tracing.traced_inputs(inputs, tracer))
            tracer.reset()  # drop the spans of building the inputs
            traced = run_pass(ops, ctx=tctx, tracer=tracer)
            mismatched.update(same_outputs(passes[0], traced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    first = passes[0]
    checks = check_pass(ops, first, oracle)
    for name in mismatched:
        checks[name].ok = False
        checks[name].detail += " [output differs between passes]"
    failed = {op.name for op in ops if not checks[op.name].ok}
    unexpected = sorted(op.name for op in ops if op.name in failed and op.known_defect is None)
    op_times = {op.name: statistics.median(p.times[op.name] for p in passes) for op in ops}
    wall_s = statistics.median(p.seconds for p in passes)
    named = workload.metrics(first.outs, checks, op_times)

    e2e = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(p.ref_units for p in passes),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_success_rate": 1.0 - len(failed) / len(ops),
    }
    if traced is not None:
        layer = tracing.per_layer_metrics(tracer, ops, traced.outs, failed)
        layer["trace.overhead_s"] = traced.seconds - wall_s
        metrics = {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in layer.items()}
    else:
        layer = None
        metrics = {k: {"value": e2e[k], "unit": report.E2E_UNITS[k]} for k in report.GATED_METRICS}

    report.print_report(workload, ops, checks, op_times, passes, e2e, named, layer, unexpected)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
