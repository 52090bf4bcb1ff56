"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/check_bench.py

They pin the oracle values and the seed's accuracy gaps, check that every
documented-defect probe rejects a defective output and accepts a correct
one, and show that the traced pass changes no output and that the layers'
self times add up to the traced pass time.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

ORC = oracles.load()


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return W.Ctx(7, tmp_path_factory.mktemp("work"), **W.make_inputs())


def _ops(name):
    return {op.name: op for op in W.WORKLOADS[name].ops()}


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_stored_oracles_match_a_fresh_computation():
    fresh = {
        "g0": oracles.g0_origin(),
        "g_half": oracles.g_lambda_origin(0.5),
        "trunc_potential_T200": oracles.truncated_potential(200.0),
        "E_a_X1": oracles.expected_a_of_X(1.0),
        "subsol_half": [oracles.v_radial(oracles.laplace_D_half, t, 1) for t in oracles.SUBSOL_TS],
        "v_half_d3_t1": oracles.v_radial(oracles.laplace_D_half, 1.0, 3),
        "curve": oracles.curve_values(),
        "ED_gamma_t1": oracles.mean_D_gamma(1.0),
        "N_gamma_T100": oracles.gamma_N(100.0),
    }
    for key, val in fresh.items():
        np.testing.assert_allclose(ORC[key], val, rtol=1e-12, err_msg=key)
    assert ORC["rho_gamma"][1][37] == pytest.approx(oracles.rho_gamma(1.0, oracles.RHO_TAUS[37]), rel=1e-12)
    assert ORC["rho_stable07_t1"][5] == pytest.approx(oracles.rho_stable(0.7, 1.0, oracles.RHO_TAUS[5]), rel=1e-12)


def test_oracles_against_independent_forms():
    assert ORC["g0"] == pytest.approx((4 * np.pi) ** -1.5 * special.zeta(1.5), rel=1e-14)
    assert ORC["g0_profile"][0] == pytest.approx(ORC["g0"], rel=1e-12)
    # W_T(r) closed form against direct quadrature of int_0^T erfcx(r sqrt s) ds
    for r, T in [(0.3, 50.0), (1e-3, 2.0**21)]:
        direct = integrate.quad(lambda s: special.erfcx(r * math.sqrt(s)), 0.0, T, limit=400)[0]
        x = r * math.sqrt(T)
        closed = (special.erfcx(x) + 2 * x / math.sqrt(math.pi) - 1) / r**2
        assert closed == pytest.approx(direct, rel=1e-7)
    # gamma rho_t is a probability density in tau with rho_t(0) = k(t) = E1(t)
    taus = np.array(oracles.RHO_TAUS)
    for t, row in zip(oracles.GAMMA_RHO_TS, ORC["rho_gamma"]):
        assert row[0] == pytest.approx(special.exp1(t), rel=1e-12)
        assert integrate.simpson(row, x=taus) == pytest.approx(1.0, abs=2e-3)
    # the 1/2-stable inverse subordinator has E D(1) = 2/sqrt(pi); the gamma one exceeds 1
    assert 1.0 < ORC["ED_gamma_t1"] < 2.0
    assert sum(ORC["semigroup_weights"]) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# seed gaps (upper bounds: the seed's gap, so a later fix still passes)
# ---------------------------------------------------------------------------


def _run_checks(workload, names, ctx):
    ops = _ops(workload)
    res = run.run_pass([ops[n] for n in names], ctx)
    return {n: ops[n].check(res.outs[n], ORC) for n in names}


def test_seed_gaps_grid(ctx):
    c = _run_checks("grid", ["green_series_lam0", "potential", "evolve_semigroup"], ctx)
    assert c["green_series_lam0"].metrics["g0_err"] <= 3.6e-3
    assert c["potential"].metrics["v_err"] <= 1.6e-3
    assert c["evolve_semigroup"].metrics["semigroup_err"] <= 3e-8


def test_seed_gaps_timechange(ctx):
    c = _run_checks("timechange", ["renormalized_potential_curve", "subordinated_solution_d1", "fke_residual_d1"], ctx)
    assert c["renormalized_potential_curve"].metrics["curve_err"] <= 3.6e-4
    assert c["subordinated_solution_d1"].metrics["subsol_err"] <= 1e-12
    assert c["fke_residual_d1"].metrics["fke_order"] >= math.log2(1.8)


def test_seed_gaps_generic(ctx):
    c = _run_checks("generic-family", ["rho_gamma"], ctx)
    assert c["rho_gamma"].metrics["rho_err"] <= 1.1e-8


# ---------------------------------------------------------------------------
# documented seed defects: each probe's check tells a defect from a fix
# ---------------------------------------------------------------------------


def test_defect_probes_separate_defect_from_fix():
    grid, gen = _ops("grid"), _ops("generic-family")
    probe = grid["validate_readme_config"]
    assert probe.known_defect == "a"
    assert not probe.check({"rc": 1}, ORC).ok and probe.check({"rc": 0}, ORC).ok

    probe = gen["stable07_laplace"]
    assert probe.known_defect == "b"
    assert not probe.check({"mean": 0.42, "stderr": 6.5e-4}, ORC).ok
    assert probe.check({"mean": math.exp(-1.0), "stderr": 6.5e-4}, ORC).ok
    probe = gen["sample_inverse_many_stable07"]
    assert not probe.check({"mean": 1.173, "stderr": 7.5e-3, "ds": 1e-3}, ORC).ok
    assert probe.check({"mean": 1.0 / math.gamma(1.7), "stderr": 7.5e-3, "ds": 1e-3}, ORC).ok

    probe = gen["rho_stable07"]
    exact = np.array([ORC["rho_stable07_t1"]])
    broken = exact.copy()
    broken[0, 44:] = np.nan
    assert probe.known_defect == "c"
    assert not probe.check({"rho": broken, "failures": 57}, ORC).ok
    assert probe.check({"rho": exact, "failures": 0}, ORC).ok

    ts = W.GFD_DT * np.arange(1, int(round(W.GFD_T / W.GFD_DT)))
    probe = gen["gfd_apply_gamma"]
    assert probe.known_defect == "d"
    assert not probe.check({"gfd": np.full(ts.size, np.nan)}, ORC).ok
    assert probe.check({"gfd": ts * special.exp1(ts) + 1.0 - np.exp(-ts)}, ORC).ok
    assert not gen["fke_residual_gamma_d1"].check({"residual": float("nan")}, ORC).ok


# ---------------------------------------------------------------------------
# tracing changes nothing and accounts for the pass time
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["paths", "generic-family"])
def test_traced_pass_is_bit_identical(name, ctx):
    ops = W.WORKLOADS[name].ops()
    plain = run.run_pass(ops, ctx)
    tracer = tracing.Tracer()
    tctx = W.Ctx(ctx.seed, ctx.workdir, **tracing.traced_inputs(W.make_inputs(), tracer))
    tracer.reset()
    traced = run.run_pass(ops, tctx, tracer)
    assert run.same_outputs(plain, traced) == []

    layer = tracing.per_layer_metrics(tracer, ops, traced.outs, set())
    overhead = traced.seconds - plain.seconds
    self_sum = sum(layer[f"{lay}.self_s"] for lay in W.LAYERS)
    assert abs(traced.seconds - self_sum) <= max(abs(overhead), 1e-3)
    assert layer["kernels.jump_draws"] > 0 and layer["subordinate.increments_drawn"] > 0
    assert 0.0 < layer["subordinate.increment_useful_ratio"] < 1.0


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
