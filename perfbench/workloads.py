"""The four benchmark workloads: fixed scripts of calls into greenwalk.

A workload is a list of ``Op``.  ``Op.call`` runs inside the timed pass and
returns a small dict of numbers or arrays; ``Op.check`` runs after the pass
and compares that dict with the offline oracle values (``oracle_values.json``).
An op that raises, or whose check fails, is a failed op.  ``Op.known_defect``
names the documented seed defect an op probes; see ``KNOWN_DEFECTS``.

Every op calls a public function of one greenwalk module, whose name is the
op's layer.  Stochastic ops get their seed from the workload seed, so one
seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
from scipy.special import exp1

from greenwalk import cli
from greenwalk.errors import InversionInstabilityError
from greenwalk.green import (
    cl_from_kernel,
    evolve_semigroup,
    green_regular_fourier,
    green_regular_series,
    potential,
)
from greenwalk.grids import GridSpec
from greenwalk.kernels import make_gaussian_kernel, spectral_density, validate_kernel
from greenwalk.renorm import (
    fke_residual,
    mc_time_changed_expectation,
    renormalized_green_histogram,
    renormalized_potential_curve,
    subordinated_solution,
)
from greenwalk.simulate import (
    BinSpec,
    average_random_green_measure,
    mc_expectation,
    mc_truncated_potential,
)
from greenwalk.subordinate import (
    gfd_apply,
    kernel_cell_masses,
    make_gamma_subordinator,
    make_stable_subordinator,
    rho_density,
    sample_inverse_many,
    time_averaged_ratio,
)

LAYERS = ("kernels", "green", "simulate", "subordinate", "renorm", "cli")

KNOWN_DEFECTS = {
    "a": 'the README green-compare config is rejected: "lam": 0.0 fails the positive-tolerance check',
    "b": "the Kanter sampler behind stable alpha != 1/2 increments has the wrong law",
    "c": "the Talbot 24/48 gate raises for alpha = 0.7 at most tau of the rho table",
    "d": "the gamma k_primitive(0) is 0 * E1(0) = nan, so gfd_apply and fke_residual return nan",
}

# z-score allowed between a Monte Carlo mean and its oracle; a correct
# estimator exceeds it with probability below 1e-6 per check
MC_Z = 5.0

GRID3 = GridSpec(3, 64, 16.0)
GRID1 = GridSpec(1, 1024, 40.0)
ORIGIN3 = (0.0, 0.0, 0.0)
FOURIER_XS = tuple(0.5 * i for i in range(7))
CURVE_TS = tuple(2.0**j for j in range(9, 22, 2))
SUBSOL_TS = (0.5, 1.0, 2.0)
FKE_DTS = (0.02, 0.01)
TIME_AVG_TS = (1e2, 1e3, 1e4)
RHO_TAUS = np.linspace(0.0, 10.0, 101)
GAMMA_RHO_TS = (0.5, 1.0, 2.0)
GAMMA_SUBSOL_TS = (1.0, 4.0)
GFD_DT, GFD_T = 4e-3, 1.2

README_CONFIG = {
    "schema_version": 1,
    "experiment": "green-compare",
    "kernel": {"family": "gaussian", "dim": 3},
    "tolerances": {"lam": 0.0, "radius": 3.0},
    "output": "gauss3",
}


@dataclass
class Ctx:
    """Inputs of one pass: kernels, subordinators and a work directory.

    A traced pass gets instrumented copies of the kernels and subordinators.
    """

    seed: int
    workdir: Path
    k3: Any
    k1: Any
    half: Any
    gamma: Any
    st07: Any
    f3: Any = field(init=False)
    f1: Any = field(init=False)

    def __post_init__(self):
        self.f3 = cl_from_kernel(self.k3)
        self.f1 = cl_from_kernel(self.k1)

    def op_seed(self, name: str) -> int:
        """Seed of one stochastic op, derived from the workload seed."""
        key = [ord(c) for c in name]
        return int(np.random.SeedSequence([self.seed, *key]).generate_state(1)[0])


def make_inputs():
    """Public greenwalk objects every workload draws on (the set-up step)."""
    return {
        "k3": make_gaussian_kernel(3),
        "k1": make_gaussian_kernel(1),
        "half": make_stable_subordinator(0.5),
        "gamma": make_gamma_subordinator(1.0, 1.0),
        "st07": make_stable_subordinator(0.7),
    }


@dataclass
class Check:
    ok: bool
    detail: str
    metrics: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    layer: str
    call: Callable[[Ctx], dict]
    check: Callable[[dict, dict], Check]
    known_defect: Optional[str] = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _rel(a, b) -> float:
    return abs(float(a) / float(b) - 1.0)


def _est(e) -> dict:
    return {"mean": e.mean, "stderr": e.stderr, "n": e.n_samples}


def _z_check(out: dict, target: float, label: str, slack: float = 0.0) -> Check:
    gap = abs(out["mean"] - target) - slack
    z = max(gap, 0.0) / out["stderr"]
    return Check(
        z <= MC_Z,
        f"{label} {out['mean']:.6g} +/- {out['stderr']:.2g} vs oracle {target:.6g} (z={z:.2f})",
        {"z": z},
    )


def _time_to_1pct(call_s: float, mean: float, stderr: float) -> float:
    """Time the call would need for a standard error of 1% of the mean."""
    return call_s * (stderr / (0.01 * abs(mean))) ** 2


def _cli(ctx: Ctx, cfg: dict, name: str, command: str = "run") -> dict:
    """Run the greenwalk CLI in-process on a config written to the work dir."""
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    outdir = ctx.workdir / name
    argv = [command, str(path)] + (["--out", str(outdir)] if command == "run" else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = {"rc": rc, "artifact_bytes": 0, "rows": []}
    if rc == 0 and command == "run":
        printed = json.loads(buf.getvalue().strip().splitlines()[-1])
        # the manifest is left out: it records the output paths, so its size
        # depends on where the checkout lives
        files = [Path(p) for p in printed["artifacts"]]
        out["artifact_bytes"] = sum(p.stat().st_size for p in files)
        with open(files[0], newline="") as fh:
            out["rows"] = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    return out


def _rc_check(out: dict) -> Optional[Check]:
    if out["rc"] != 0:
        return Check(False, f"cli exit code {out['rc']}")
    return None


def _bin_z(hist_mean, stderr, idx, target) -> float:
    return abs(float(hist_mean[idx]) - target) / float(stderr[idx])


# ---------------------------------------------------------------------------
# grid: Gaussian d = 3 on the 64^3, L = 16 box
# ---------------------------------------------------------------------------


def _grid_ops() -> list[Op]:
    def validate_readme(ctx):
        return _cli(ctx, README_CONFIG, "readme_green_compare", command="validate")

    def check_validate_readme(out, orc):
        return Check(out["rc"] == 0, f"README config validate exit code {out['rc']}")

    def validate(ctx):
        rep = validate_kernel(ctx.k3, GRID3)
        return {"passed": rep.passed, "mass": rep.mass, "symmetry_error": rep.symmetry_error}

    def check_validate(out, orc):
        ok = out["passed"] and abs(out["mass"] - 1.0) < 1e-9
        return Check(ok, f"passed={out['passed']} mass={out['mass']:.15f}")

    def spectral(ctx):
        return {"a_hat": spectral_density(ctx.k3, GRID3)}

    def check_spectral(out, orc):
        err = float(np.max(np.abs(out["a_hat"] - np.exp(-GRID3.wavenumber_radius_squared()))))
        return Check(err < 1e-12, f"max |a_hat - e^-k^2| {err:.2e}", {"spectral_err": err})

    def series0(ctx):
        res = green_regular_series(ctx.k3, GRID3, 0.0)
        vals = [res.regular_part.value_at([x, 0.0, 0.0]) for x in FOURIER_XS]
        return {"profile": np.array(vals), "n_terms": res.n_terms}

    def check_series0(out, orc):
        g0_err = _rel(out["profile"][0], orc["g0"])
        ok = g0_err < 1e-2
        return Check(ok, f"G0(0) rel err {g0_err:.2e} (n_terms {out['n_terms']})",
                     {"g0_err": g0_err, "series_terms": out["n_terms"]})

    def series05(ctx):
        res = green_regular_series(ctx.k3, GRID3, 0.5)
        return {"g_origin": res.regular_part.value_at(ORIGIN3), "n_terms": res.n_terms}

    def check_series05(out, orc):
        err = _rel(out["g_origin"], orc["g_half"])
        return Check(err < 1e-6, f"G_0.5(0) rel err {err:.2e}", {"g_half_err": err})

    def fourier(ctx):
        return {"profile": np.array([green_regular_fourier(ctx.k3, [x, 0.0, 0.0], 0.0)
                                     for x in FOURIER_XS])}

    def check_fourier(out, orc):
        err = float(np.max(np.abs(out["profile"] / np.array(orc["g0_profile"]) - 1.0)))
        return Check(err < 1e-6, f"Fourier G0 profile max rel err {err:.2e}", {"fourier_err": err})

    def pot(ctx):
        return {"v": potential(ctx.k3, ctx.f3, ORIGIN3, GRID3)}

    def check_pot(out, orc):
        v_err = _rel(out["v"], orc["g0"])
        return Check(v_err < 1e-2, f"V(0,a) rel err {v_err:.2e}", {"v_err": v_err})

    def semigroup(ctx):
        return {"u": evolve_semigroup(ctx.k3, ctx.f3.samples_on(GRID3), 1.0).values}

    def check_semigroup(out, orc):
        w = np.array(orc["semigroup_weights"])
        r2 = GRID3.radius_squared()
        exact = np.zeros(GRID3.shape)
        for n, wn in enumerate(w):
            m = n + 1
            exact += wn * (4.0 * np.pi * m) ** -1.5 * np.exp(-r2 / (4.0 * m))
        err = float(np.max(np.abs(out["u"] - exact)) / np.max(exact))
        return Check(err < 1e-6, f"u(1,.) max err / max u {err:.2e}", {"semigroup_err": err})

    def green_compare(ctx):
        cfg = {k: v for k, v in README_CONFIG.items() if k != "tolerances"}
        cfg["tolerances"] = {"radius": 3.0}
        return _cli(ctx, cfg, "green_compare")

    def check_green_compare(out, orc):
        bad = _rc_check(out)
        if bad:
            return bad
        rows = np.array(out["rows"])
        origin = rows[np.argmin(np.abs(rows[:, 0]))]
        gap = float(np.max(rows[:, 3]))
        g0_err = _rel(origin[1], orc["g0"])
        ok = gap < 1e-2 and g0_err < 1e-2
        return Check(ok, f"{len(rows)} rows, max rel_diff {gap:.2e}, G0(0) rel err {g0_err:.2e}")

    return [
        Op("validate_readme_config", "cli", validate_readme, check_validate_readme, "a"),
        Op("validate_kernel", "kernels", validate, check_validate),
        Op("spectral_density", "kernels", spectral, check_spectral),
        Op("green_series_lam0", "green", series0, check_series0),
        Op("green_series_lam05", "green", series05, check_series05),
        Op("green_fourier_profile", "green", fourier, check_fourier),
        Op("potential", "green", pot, check_pot),
        Op("evolve_semigroup", "green", semigroup, check_semigroup),
        Op("cli_green_compare", "cli", green_compare, check_green_compare),
    ]


def _grid_metrics(outs: dict, checks: dict, times: dict) -> dict:
    s0 = outs.get("green_series_lam0")
    fo = outs.get("green_fourier_profile")
    gap = None
    if s0 is not None and fo is not None:
        gap = float(np.max(np.abs(s0["profile"] / fo["profile"] - 1.0)))
    return {
        "g0_err": checks["green_series_lam0"].metrics.get("g0_err"),
        "v_err": checks["potential"].metrics.get("v_err"),
        "fourier_gap": gap,
        "semigroup_err": checks["evolve_semigroup"].metrics.get("semigroup_err"),
    }


# ---------------------------------------------------------------------------
# timechange: 1/2-stable time change, deterministic
# ---------------------------------------------------------------------------


def _timechange_ops() -> list[Op]:
    def curve(ctx):
        c = renormalized_potential_curve(ctx.k3, ctx.half, ctx.f3, ORIGIN3, np.array(CURVE_TS), GRID3)
        return {"values": c.values, "target": c.target, "rel_gaps": c.rel_gaps}

    def check_curve(out, orc):
        err = float(np.max(np.abs(out["values"] / np.array(orc["curve"]) - 1.0)))
        monotone = bool(np.all(np.diff(out["rel_gaps"]) < 0))
        ok = err < 1e-3 and monotone
        return Check(ok, f"curve max rel err {err:.2e}, gaps monotone {monotone}", {"curve_err": err})

    def subsol(ctx):
        return {"v": np.array([subordinated_solution(ctx.k1, ctx.half, ctx.f1, [0.0], t, grid=GRID1)
                               for t in SUBSOL_TS])}

    def check_subsol(out, orc):
        err = float(np.max(np.abs(out["v"] / np.array(orc["subsol_half"]) - 1.0)))
        return Check(err < 1e-8, f"v(t,0) max rel err {err:.2e}", {"subsol_err": err})

    def fke(ctx):
        res = []
        for dt in FKE_DTS:
            t_grid = dt * np.arange(int(round(2.0 / dt)) + 1)
            res.append(fke_residual(ctx.k1, ctx.half, ctx.f1, [0.0], t_grid, grid=GRID1, t_min=0.1))
        return {"residuals": np.array(res)}

    def check_fke(out, orc):
        r = out["residuals"]
        order = float(np.log2(r[0] / r[1])) if np.all(np.isfinite(r)) and r[1] > 0 else float("nan")
        ok = math.isfinite(order) and order >= math.log2(1.8)
        return Check(ok, f"residuals {r[0]:.2e} -> {r[1]:.2e}, order {order:.3f}", {"fke_order": order})

    def time_avg(ctx):
        return {"res": np.array([time_averaged_ratio(ctx.half, 1.0, t) for t in TIME_AVG_TS])}

    def check_time_avg(out, orc):
        exact = np.array(orc["time_avg_half"])
        err = float(np.max(np.abs(out["res"] / exact - 1.0)))
        gaps = np.abs(out["res"][:, 2] - 1.0)
        ok = err < 1e-4 and gaps[0] > gaps[1] > gaps[2]
        return Check(ok, f"(M_rho, M_k, ratio) max rel err {err:.2e}, ratio gaps {gaps.round(4).tolist()}")

    def caputo(ctx):
        return {"gfd": _gfd_of_t(ctx.half)}

    def check_caputo(out, orc):
        ts = GFD_DT * np.arange(1, out["gfd"].size + 1)
        err = _gfd_err(out["gfd"], ts, np.sqrt(ts) / math.gamma(1.5))
        return Check(err < 1e-2, f"GFD of t at t=1 rel err {err:.2e}", {"gfd_err": err})

    def cli_fke(ctx):
        cfg = {
            "schema_version": 1,
            "experiment": "fke-residual",
            "kernel": {"family": "gaussian", "dim": 1},
            "subordinator": {"family": "stable", "params": {"alpha": 0.5}},
            "output": "fke1",
        }
        return _cli(ctx, cfg, "fke_residual")

    def check_cli_fke(out, orc):
        bad = _rc_check(out)
        if bad:
            return bad
        r = np.array(out["rows"])[:, 1]
        ok = bool(np.all(np.isfinite(r))) and r[0] / r[1] >= 1.8
        return Check(ok, f"cli residuals {r.tolist()}")

    return [
        Op("renormalized_potential_curve", "renorm", curve, check_curve),
        Op("subordinated_solution_d1", "renorm", subsol, check_subsol),
        Op("fke_residual_d1", "renorm", fke, check_fke),
        Op("time_averaged_ratio", "subordinate", time_avg, check_time_avg),
        Op("gfd_apply_caputo", "subordinate", caputo, check_caputo),
        Op("cli_fke_residual", "cli", cli_fke, check_cli_fke),
    ]


def _gfd_of_t(spec) -> np.ndarray:
    """GFD of f(t) = t on the grid GFD_DT * (0..m); values at t_1 .. t_{m-1}."""
    m = int(round(GFD_T / GFD_DT))
    ts = GFD_DT * np.arange(m + 1)
    with np.errstate(divide="ignore"):
        ks = np.asarray(spec.k_eval(np.maximum(ts, 1e-300)), dtype=float)
    return gfd_apply(ks, ts.copy(), GFD_DT, cell_masses=kernel_cell_masses(spec, GFD_DT, m))


def _gfd_err(vals, ts, exact) -> float:
    """Relative GFD error at t = 1 (nan when the program returned nan)."""
    i = int(np.argmin(np.abs(ts - 1.0)))
    return float(abs(vals[i] / exact[i] - 1.0))


def _timechange_metrics(outs, checks, times):
    return {
        "curve_err": checks["renormalized_potential_curve"].metrics.get("curve_err"),
        "subsol_err": checks["subordinated_solution_d1"].metrics.get("subsol_err"),
        "fke_order": checks["fke_residual_d1"].metrics.get("fke_order"),
    }


# ---------------------------------------------------------------------------
# paths: 1/2-stable Monte Carlo, no grid
# ---------------------------------------------------------------------------

HIST_BINS = BinSpec.cube(8.0, 8, 3)
GREEN_BINS = BinSpec.cube(8.0, 16, 3)
# the eight bins touching the origin
CENTRAL8 = [(i, j, k) for i in (3, 4) for j in (3, 4) for k in (3, 4)]
CENTRAL16 = [(i, j, k) for i in (7, 8) for j in (7, 8) for k in (7, 8)]
HIST_CENTRAL = (4, 4, 4)


def _paths_ops() -> list[Op]:
    def mc_pot(ctx):
        return _est(mc_truncated_potential(ctx.k3, ctx.f3, ORIGIN3, 200.0, 20000,
                                           ctx.op_seed("mc_truncated_potential")))

    def mc_exp(ctx):
        return _est(mc_expectation(ctx.k3, ctx.f3, ORIGIN3, 1.0, 100_000,
                                   ctx.op_seed("mc_expectation")))

    def green_hist(ctx):
        h, se = average_random_green_measure(ctx.k3, ORIGIN3, 2000.0, GREEN_BINS, 1000,
                                             ctx.op_seed("average_random_green_measure"))
        return {"masses": h.masses, "stderr": se, "escaped": h.escaped}

    def check_green_hist(out, orc):
        zs = [_bin_z(out["masses"], out["stderr"], idx, target)
              for idx, target in zip(CENTRAL16, orc["green_hist_T2000"])]
        total = float(out["masses"].sum() + out["escaped"])
        ok = max(zs) <= MC_Z and abs(total / 2000.0 - 1.0) < 1e-12
        return Check(ok, f"central bins max z {max(zs):.2f}, mean total mass {total:.12g}")

    def inverse(ctx):
        d = sample_inverse_many(ctx.half, 1.0, 1e-4, 5000, ctx.op_seed("sample_inverse_many"))
        return _draws(d, 1e-4)

    def mc_tc(ctx):
        return _est(mc_time_changed_expectation(ctx.k3, ctx.half, ctx.f3, ORIGIN3, 1.0, 100_000,
                                                ctx.op_seed("mc_time_changed_expectation")))

    def hist_cond(ctx):
        h, se = renormalized_green_histogram(ctx.k3, ctx.half, ORIGIN3, 1e4, HIST_BINS, 2000,
                                             ctx.op_seed("hist_conditional"), method="conditional")
        return {"masses": h.masses, "stderr": se, "escaped": h.escaped}

    def check_hist_cond(out, orc):
        zs = [_bin_z(out["masses"], out["stderr"], idx, target)
              for idx, target in zip(CENTRAL8, orc["hist_half_T1e4"])]
        return Check(max(zs) <= MC_Z, f"central bins max z {max(zs):.2f}")

    def hist_raw(ctx):
        h, se = renormalized_green_histogram(ctx.k3, ctx.half, ORIGIN3, 1e3, HIST_BINS, 500,
                                             ctx.op_seed("hist_raw"), method="raw")
        return {"masses": h.masses, "stderr": se, "escaped": h.escaped}

    def check_hist_raw(out, orc):
        return _raw_hist_check(out, orc["N_half_T1e3"], 1e3, orc["hist_half_central_T1e3"])

    def cli_mc(ctx):
        cfg = {
            "schema_version": 1,
            "experiment": "mc-potential",
            "kernel": {"family": "gaussian", "dim": 3},
            "mc": {"n": 5000, "seed": ctx.op_seed("cli_mc_potential")},
            "output": "mcpot",
        }
        return _cli(ctx, cfg, "mc_potential")

    def check_cli_mc(out, orc):
        bad = _rc_check(out)
        if bad:
            return bad
        mean, se = out["rows"][0][:2]
        return _z_check({"mean": mean, "stderr": se}, orc["trunc_potential_T200"], "cli truncated potential")

    return [
        Op("mc_truncated_potential", "simulate", mc_pot,
           lambda o, orc: _z_check(o, orc["trunc_potential_T200"], "truncated potential")),
        Op("mc_expectation", "simulate", mc_exp,
           lambda o, orc: _z_check(o, orc["E_a_X1"], "E a(X_1)")),
        Op("average_random_green_measure", "simulate", green_hist, check_green_hist),
        Op("sample_inverse_many_half", "subordinate", inverse,
           lambda o, orc: _draws_check(o, 2.0 / math.sqrt(math.pi), "E D(1)")),
        Op("mc_time_changed_half", "renorm", mc_tc,
           lambda o, orc: _z_check(o, orc["v_half_d3_t1"], "E a(Z_1)")),
        Op("hist_conditional", "renorm", hist_cond, check_hist_cond),
        Op("hist_raw_half", "renorm", hist_raw, check_hist_raw),
        Op("cli_mc_potential", "cli", cli_mc, check_cli_mc),
    ]


def _draws(d: np.ndarray, ds: float) -> dict:
    n = d.size
    return {"mean": float(d.mean()), "stderr": float(d.std(ddof=1) / math.sqrt(n)),
            "n": n, "steps": float(np.sum(d) / ds), "ds": ds}


def _draws_check(out: dict, target: float, label: str) -> Check:
    # grid first passage overshoots D by at most one step ds
    return _z_check(out, target + 0.5 * out["ds"], label, slack=0.5 * out["ds"])


def _raw_hist_check(out, N_T, T, target=None) -> Check:
    """Raw histograms conserve mass exactly: sum + escaped = T / N(T)."""
    total = float(out["masses"].sum() + out["escaped"])
    mass_err = abs(total * N_T / T - 1.0)
    detail = f"mass identity err {mass_err:.1e}"
    z = 0.0
    if target is not None:
        z = _bin_z(out["masses"], out["stderr"], HIST_CENTRAL, target)
        detail += f", central bin z {z:.2f}"
    return Check(mass_err < 1e-9 and z <= MC_Z, detail)


def _paths_metrics(outs, checks, times):
    m = {}
    mc = outs.get("mc_truncated_potential")
    if mc is not None:
        m["mc_time_to_1pct_s"] = _time_to_1pct(times["mc_truncated_potential"], mc["mean"], mc["stderr"])
    h = outs.get("hist_conditional")
    if h is not None:
        m["hist_time_to_1pct_s"] = _time_to_1pct(
            times["hist_conditional"], h["masses"][HIST_CENTRAL], h["stderr"][HIST_CENTRAL])
    inv = outs.get("sample_inverse_many_half")
    if inv is not None:
        m["inverse_draws_per_s"] = inv["n"] / times["sample_inverse_many_half"]
    return m


# ---------------------------------------------------------------------------
# generic-family: gamma(1, 1) and stable alpha = 0.7
# ---------------------------------------------------------------------------


def _rho_table(spec, ts) -> dict:
    """rho_t(tau) over RHO_TAUS; an unstable inversion leaves nan and is counted."""
    vals = np.full((len(ts), RHO_TAUS.size), np.nan)
    failures = 0
    for i, t in enumerate(ts):
        for j, tau in enumerate(RHO_TAUS):
            try:
                vals[i, j] = rho_density(spec, t, float(tau))
            except InversionInstabilityError:
                failures += 1
    return {"rho": vals, "failures": failures}


def _rho_err(vals, exact) -> float:
    """Largest absolute error of a rho table, skipping entries that failed."""
    return float(np.nanmax(np.abs(np.asarray(vals) - np.asarray(exact))))


# At n = 2000 the defect (b) shifts E D(1) by only about 5 standard errors,
# so the check would pass on some seeds and fail on others; 8000 draws put
# the shift near 10 standard errors on every seed.  The same defect moves
# E a(Z_1) by only 2.6%, about 1.6 standard errors at n = 2000, so that
# check passes on almost every seed; it is marked (b) all the same.
STABLE07_DRAWS = 8000


def _generic_ops() -> list[Op]:
    def rho_gamma(ctx):
        return _rho_table(ctx.gamma, GAMMA_RHO_TS)

    def check_rho_gamma(out, orc):
        err = _rho_err(out["rho"], orc["rho_gamma"])
        ok = out["failures"] == 0 and err < 1e-6
        return Check(ok, f"{out['failures']} inversion failures, max abs err {err:.2e}", {"rho_err": err})

    def rho_st07(ctx):
        return _rho_table(ctx.st07, (1.0,))

    def check_rho_st07(out, orc):
        err = _rho_err(out["rho"], [orc["rho_stable07_t1"]])
        ok = out["failures"] == 0 and err < 1e-6
        return Check(ok, f"{out['failures']}/{RHO_TAUS.size} inversion failures, "
                         f"max abs err on the rest {err:.2e}")

    def laplace07(ctx):
        rng = np.random.default_rng(ctx.op_seed("stable07_laplace"))
        v = np.exp(-np.asarray(ctx.st07.increment_sampler(1.0, rng, 200_000)))
        return {"mean": float(v.mean()), "stderr": float(v.std(ddof=1) / math.sqrt(v.size)), "n": v.size}

    def inverse_gamma(ctx):
        return _draws(sample_inverse_many(ctx.gamma, 1.0, 1e-3, 2000, ctx.op_seed("inverse_gamma")), 1e-3)

    def inverse07(ctx):
        return _draws(sample_inverse_many(ctx.st07, 1.0, 1e-3, STABLE07_DRAWS,
                                          ctx.op_seed("inverse_stable07")), 1e-3)

    def mc_tc_gamma(ctx):
        return _est(mc_time_changed_expectation(ctx.k3, ctx.gamma, ctx.f3, ORIGIN3, 1.0, 2000,
                                                ctx.op_seed("mc_tc_gamma")))

    def mc_tc07(ctx):
        return _est(mc_time_changed_expectation(ctx.k3, ctx.st07, ctx.f3, ORIGIN3, 1.0, 2000,
                                                ctx.op_seed("mc_tc_stable07")))

    def subsol_gamma(ctx):
        return {"v": np.array([subordinated_solution(ctx.k1, ctx.gamma, ctx.f1, [0.0], t, grid=GRID1)
                               for t in GAMMA_SUBSOL_TS])}

    def check_subsol_gamma(out, orc):
        err = float(np.max(np.abs(out["v"] / np.array(orc["subsol_gamma"]) - 1.0)))
        return Check(err < 1e-6, f"gamma v(t,0) max rel err {err:.2e}")

    def hist_gamma(ctx):
        h, se = renormalized_green_histogram(ctx.k3, ctx.gamma, ORIGIN3, 100.0, HIST_BINS, 2000,
                                             ctx.op_seed("hist_raw_gamma"), method="raw")
        return {"masses": h.masses, "stderr": se, "escaped": h.escaped}

    def check_hist_gamma(out, orc):
        return _raw_hist_check(out, orc["N_gamma_T100"], 100.0)

    def fke_gamma(ctx):
        t_grid = 0.02 * np.arange(int(round(0.5 / 0.02)) + 1)
        return {"residual": fke_residual(ctx.k1, ctx.gamma, ctx.f1, [0.0], t_grid, grid=GRID1, t_min=0.1)}

    def check_fke_gamma(out, orc):
        r = out["residual"]
        return Check(math.isfinite(r) and r < 0.1, f"gamma FKE residual at dt=0.02: {r:.3e}")

    def gfd_gamma(ctx):
        return {"gfd": _gfd_of_t(ctx.gamma)}

    def check_gfd_gamma(out, orc):
        ts = GFD_DT * np.arange(1, out["gfd"].size + 1)
        exact = ts * exp1(ts) + 1.0 - np.exp(-ts)
        err = _gfd_err(out["gfd"], ts, exact)
        return Check(math.isfinite(err) and err < 1e-2, f"gamma GFD of t at t=1 rel err {err:.2e}")

    def cli_rho(ctx):
        cfg = {
            "schema_version": 1,
            "experiment": "rho",
            "subordinator": {"family": "gamma", "params": {"a": 1.0, "b": 1.0}},
            "output": "rho_gamma",
        }
        return _cli(ctx, cfg, "rho")

    def check_cli_rho(out, orc):
        bad = _rc_check(out)
        if bad:
            return bad
        rho = np.array(out["rows"])[:, 2]
        err = _rho_err(rho, orc["rho_gamma"][1])
        return Check(err < 1e-6, f"cli gamma rho_1 table max abs err {err:.2e}")

    return [
        Op("rho_gamma", "subordinate", rho_gamma, check_rho_gamma),
        Op("rho_stable07", "subordinate", rho_st07, check_rho_st07, "c"),
        Op("stable07_laplace", "subordinate", laplace07,
           lambda o, orc: _z_check(o, math.exp(-1.0), "E exp(-S_1)"), "b"),
        Op("sample_inverse_many_gamma", "subordinate", inverse_gamma,
           lambda o, orc: _draws_check(o, orc["ED_gamma_t1"], "gamma E D(1)")),
        Op("sample_inverse_many_stable07", "subordinate", inverse07,
           lambda o, orc: _draws_check(o, 1.0 / math.gamma(1.7), "stable 0.7 E D(1)"), "b"),
        Op("mc_time_changed_gamma", "renorm", mc_tc_gamma,
           lambda o, orc: _z_check(o, orc["v_gamma_d3_t1"], "gamma E a(Z_1)")),
        Op("mc_time_changed_stable07", "renorm", mc_tc07,
           lambda o, orc: _z_check(o, orc["v_stable07_d3_t1"], "stable 0.7 E a(Z_1)"), "b"),
        Op("subordinated_solution_gamma_d1", "renorm", subsol_gamma, check_subsol_gamma),
        Op("hist_raw_gamma", "renorm", hist_gamma, check_hist_gamma),
        Op("fke_residual_gamma_d1", "renorm", fke_gamma, check_fke_gamma, "d"),
        Op("gfd_apply_gamma", "subordinate", gfd_gamma, check_gfd_gamma, "d"),
        Op("cli_rho_gamma", "cli", cli_rho, check_cli_rho),
    ]


def _generic_metrics(outs, checks, times):
    m = {"rho_err": checks["rho_gamma"].metrics.get("rho_err")}
    inv = outs.get("sample_inverse_many_gamma")
    if inv is not None:
        m["inverse_draws_per_s"] = inv["n"] / times["sample_inverse_many_gamma"]
    return m


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[], list]
    metrics: Callable[[dict, dict, dict], dict]


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", _grid_ops, _grid_metrics),
        Workload("timechange", _timechange_ops, _timechange_metrics),
        Workload("paths", _paths_ops, _paths_metrics),
        Workload("generic-family", _generic_ops, _generic_metrics),
    )
}
