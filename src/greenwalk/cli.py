"""Experiment runner: every pipeline is a named experiment driven by a JSON config.

Configs are strict: a schema_version field is required and unknown keys are
rejected so that an emitted manifest (the fully resolved config) can always
be re-run to reproduce its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GreenwalkError
from .green import (
    cl_from_kernel,
    green_regular_fourier,
    green_regular_series,
    potential,
)
from .grids import GridSpec
from .kernels import (
    fit_small_k_expansion,
    make_cauchy_kernel,
    make_gaussian_kernel,
    validate_kernel,
)
from .renorm import (
    fke_residual,
    renormalized_green_histogram,
    renormalized_potential_curve,
    subordinated_solution,
)
from .simulate import BinSpec, average_random_green_measure, mc_truncated_potential
from .subordinate import (
    check_H,
    check_admissible,
    gfd_apply,
    kernel_cell_masses,
    make_gamma_subordinator,
    make_stable_subordinator,
    rho_density,
)

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "experiment",
    "kernel",
    "grid",
    "subordinator",
    "f",
    "mc",
    "horizons",
    "tolerances",
    "output",
    "point",
    "bins",
    "artifacts",
}
_SECTION_KEYS = {
    "kernel": {"family", "params", "dim"},
    "grid": {"N", "L"},
    "subordinator": {"family", "params"},
    "f": {"family", "params"},
    "mc": {"n", "seed"},
    "horizons": {"T", "T_grid", "dt"},
    "bins": {"half_width", "per_axis"},
}


def _fail_unknown(section: str, given: dict, allowed: set) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    _fail_unknown("config", cfg, _TOP_KEYS)
    for section, allowed in _SECTION_KEYS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section} must be an object")
            _fail_unknown(section, cfg[section], allowed)
    if "output" in cfg and not (isinstance(cfg["output"], str) and cfg["output"]):
        raise ConfigError("output must be a non-empty string (the artifact file prefix)")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; see `greenwalk list`")
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be an object")
    for key, val in tols.items():
        # lambda = 0 is the Green measure itself; every other tolerance is a size
        if not isinstance(val, (int, float)) or val < 0 or (val == 0 and key != "lam"):
            raise ConfigError(f"tolerance {key!r} must be a positive number")
    if EXPERIMENTS[name].stochastic:
        if "mc" not in cfg or "seed" not in cfg["mc"]:
            raise ConfigError(f"experiment {name!r} is stochastic and needs mc.seed")
    return cfg


def _resolve_seed(cfg: dict) -> dict:
    env = os.environ.get("GREENWALK_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"GREENWALK_SEED must be an integer, got {env!r}") from exc
        cfg = dict(cfg)
        cfg["mc"] = dict(cfg.get("mc", {}))
        cfg["mc"]["seed"] = seed
    return cfg


def _build_kernel(cfg: dict):
    spec = cfg.get("kernel", {"family": "gaussian", "dim": 3})
    family = spec.get("family")
    if family == "gaussian":
        return make_gaussian_kernel(int(spec.get("dim", 3)))
    if family == "cauchy":
        return make_cauchy_kernel()
    raise ConfigError(f"unknown kernel family {family!r}")


def _build_grid(cfg: dict, kernel) -> GridSpec:
    g = cfg.get("grid")
    if g is None:
        defaults = {1: (1024, 40.0), 2: (256, 24.0), 3: (64, 16.0)}
        n, half = defaults.get(kernel.dim, (64, 16.0))
        return GridSpec(kernel.dim, n, half)
    return GridSpec(kernel.dim, int(g["N"]), float(g["L"]))


def _build_subordinator(cfg: dict):
    spec = cfg.get("subordinator")
    if spec is None:
        raise ConfigError("this experiment needs a subordinator section")
    family = spec.get("family")
    params = spec.get("params", {})
    if family == "stable":
        return make_stable_subordinator(float(params.get("alpha", 0.5)))
    if family == "gamma":
        return make_gamma_subordinator(float(params.get("a", 1.0)), float(params.get("b", 1.0)))
    raise ConfigError(f"unknown subordinator family {family!r}")


def _build_f(cfg: dict, kernel):
    spec = cfg.get("f", {"family": "kernel"})
    family = spec.get("family", "kernel")
    if family == "kernel":
        return cl_from_kernel(kernel)
    raise ConfigError(f"unknown test-function family {family!r}")


def _point(cfg: dict, kernel) -> tuple:
    pt = cfg.get("point")
    if pt is None:
        return tuple(0.0 for _ in range(kernel.dim))
    pt = tuple(float(v) for v in pt)
    if len(pt) != kernel.dim:
        raise ConfigError(f"point has {len(pt)} coordinates, kernel dim is {kernel.dim}")
    return pt


def _bins(cfg: dict, kernel) -> BinSpec:
    b = cfg.get("bins", {})
    return BinSpec.cube(float(b.get("half_width", 8.0)), int(b.get("per_axis", 8)), kernel.dim)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating)) else v for v in row])


def _axis_points(grid: GridSpec, kernel, radius: float):
    xs = grid.axis
    xs = xs[np.abs(xs) <= radius]
    pts = np.zeros((xs.size, kernel.dim))
    pts[:, 0] = xs
    return xs, pts


# ---------------------------------------------------------------------------
# experiment implementations: each returns a list of (artifact name, rows meta)
# ---------------------------------------------------------------------------


def _exp_validate_kernel(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    report = validate_kernel(kernel, grid)
    out = Path(f"{prefix}_report.json")
    out.write_text(json.dumps({"passed": report.passed, **report.__dict__}, sort_keys=True, default=float))
    return [out]


def _exp_fit_expansion(cfg, prefix):
    kernel = _build_kernel(cfg)
    tol = cfg.get("tolerances", {})
    A, alpha, resid = fit_small_k_expansion(
        kernel, k_min=tol.get("k_min", 1e-3), k_max=tol.get("k_max", 1e-2)
    )
    out = Path(f"{prefix}_fit.csv")
    _write_csv(out, ["A", "alpha", "max_log_residual"], [[A, alpha, resid]])
    return [out]


def _green_series_profile(cfg, kernel, grid):
    lam = cfg.get("tolerances", {}).get("lam", 0.0)
    res = green_regular_series(kernel, grid, lam)
    radius = cfg.get("tolerances", {}).get("radius", 3.0)
    xs, pts = _axis_points(grid, kernel, radius)
    return lam, xs, pts, res.regular_part.values_at(pts)


def _exp_green_series(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    _, xs, _, vals = _green_series_profile(cfg, kernel, grid)
    out = Path(f"{prefix}_green_series.csv")
    _write_csv(out, ["x", "G_series"], zip(xs, vals))
    return [out]


def _exp_green_fourier(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    tol = cfg.get("tolerances", {})
    lam = tol.get("lam", 0.0)
    xs, pts = _axis_points(grid, kernel, tol.get("radius", 3.0))
    vals = [green_regular_fourier(kernel, p, lam) for p in pts]
    out = Path(f"{prefix}_green_fourier.csv")
    _write_csv(out, ["x", "G_fourier"], zip(xs, vals))
    return [out]


def _exp_green_compare(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    lam, xs, pts, series = _green_series_profile(cfg, kernel, grid)
    fourier = [green_regular_fourier(kernel, p, lam) for p in pts]
    rows = [
        [x, s, f, abs(s / f - 1.0) if f != 0 else float("nan")]
        for x, s, f in zip(xs, series, fourier)
    ]
    out = Path(f"{prefix}_green_compare.csv")
    _write_csv(out, ["x", "G0_series", "G0_fourier", "rel_diff"], rows)
    return [out]


def _exp_potential(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    f = _build_f(cfg, kernel)
    x = _point(cfg, kernel)
    val = potential(kernel, f, x, grid)
    out = Path(f"{prefix}_potential.csv")
    _write_csv(out, [*(f"x{i}" for i in range(kernel.dim)), "V"], [[*x, val]])
    return [out]


def _exp_mc_potential(cfg, prefix):
    kernel = _build_kernel(cfg)
    f = _build_f(cfg, kernel)
    x = _point(cfg, kernel)
    mc = cfg["mc"]
    T = float(cfg.get("horizons", {}).get("T", 200.0))
    est = mc_truncated_potential(kernel, f, x, T, int(mc["n"]), int(mc["seed"]))
    out = Path(f"{prefix}_mc_potential.csv")
    _write_csv(out, ["mean", "stderr", "n", "seed", "T"], [[est.mean, est.stderr, est.n_samples, est.seed, T]])
    return [out]


def _exp_random_green(cfg, prefix):
    kernel = _build_kernel(cfg)
    x = _point(cfg, kernel)
    bins = _bins(cfg, kernel)
    mc = cfg["mc"]
    T = float(cfg.get("horizons", {}).get("T", 200.0))
    hist, stderr = average_random_green_measure(kernel, x, T, bins, int(mc["n"]), int(mc["seed"]))
    centers = bins.centers()
    rows = []
    for idx in np.ndindex(*bins.shape):
        rows.append([*(centers[ax][idx[ax]] for ax in range(bins.dim)), hist.masses[idx], stderr[idx]])
    out = Path(f"{prefix}_random_green.csv")
    _write_csv(out, [*(f"c{i}" for i in range(bins.dim)), "mass", "stderr"], rows)
    return [out]


def _exp_subordinator_check(cfg, prefix):
    spec = _build_subordinator(cfg)
    h = check_H(spec)
    adm = check_admissible(spec, s0=cfg.get("tolerances", {}).get("s0", 1.0))
    payload = {
        "family": spec.family,
        "params": spec.params,
        "H": {k: v for k, v in h.__dict__.items() if k != "details"},
        "H_passed": h.passed,
        "admissible": {
            "a1_estimate": adm.a1_estimate,
            "a2_max_deviation": adm.a2_max_deviation,
            "passed": adm.passed,
        },
    }
    out = Path(f"{prefix}_subordinator.json")
    out.write_text(json.dumps(payload, sort_keys=True, default=float))
    return [out]


def _exp_rho(cfg, prefix):
    spec = _build_subordinator(cfg)
    tol = cfg.get("tolerances", {})
    ts = cfg.get("horizons", {}).get("T_grid", [1.0])
    tau_max = tol.get("tau_max", 10.0)
    n_tau = int(tol.get("n_tau", 101))
    taus = np.linspace(0.0, tau_max, n_tau)
    rows = []
    for t in ts:
        for tau in taus:
            rows.append([t, tau, rho_density(spec, float(t), float(tau))])
    out = Path(f"{prefix}_rho.csv")
    _write_csv(out, ["t", "tau", "rho"], rows)
    return [out]


def _exp_gfd(cfg, prefix):
    spec = _build_subordinator(cfg)
    hz = cfg.get("horizons", {})
    T = float(hz.get("T", 2.0))
    dt = float(hz.get("dt", 1e-3))
    q = cfg.get("tolerances", {}).get("power", 1.0)
    m = int(round(T / dt))
    t_grid = dt * np.arange(m + 1)
    masses = kernel_cell_masses(spec, dt, m)
    k_vals = np.concatenate(([0.0], np.asarray(spec.k_eval(t_grid[1:]), dtype=float)))
    vals = gfd_apply(k_vals, t_grid**q, dt, cell_masses=masses)
    out = Path(f"{prefix}_gfd.csv")
    _write_csv(out, ["t", "gfd"], zip(t_grid[1:m], vals))
    return [out]


def _exp_subordinate_solve(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    spec = _build_subordinator(cfg)
    f = _build_f(cfg, kernel)
    x = _point(cfg, kernel)
    ts = cfg.get("horizons", {}).get("T_grid", [0.5, 1.0, 2.0])
    rows = [[t, subordinated_solution(kernel, spec, f, x, float(t), grid=grid)] for t in ts]
    out = Path(f"{prefix}_subordinate_solve.csv")
    _write_csv(out, ["t", "v"], rows)
    return [out]


def _exp_renorm_curve(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    spec = _build_subordinator(cfg)
    f = _build_f(cfg, kernel)
    x = _point(cfg, kernel)
    T_grid = cfg.get("horizons", {}).get("T_grid", [2.0**j for j in range(9, 22, 2)])
    curve = renormalized_potential_curve(kernel, spec, f, x, np.asarray(T_grid, float), grid)
    out = Path(f"{prefix}_renorm_curve.csv")
    curve.write_csv(out)
    return [out]


def _exp_renorm_histogram(cfg, prefix):
    kernel = _build_kernel(cfg)
    spec = _build_subordinator(cfg)
    x = _point(cfg, kernel)
    bins = _bins(cfg, kernel)
    mc = cfg["mc"]
    T = float(cfg.get("horizons", {}).get("T", 1e4))
    hist, stderr = renormalized_green_histogram(kernel, spec, x, T, bins, int(mc["n"]), int(mc["seed"]))
    centers = bins.centers()
    rows = []
    for idx in np.ndindex(*bins.shape):
        rows.append([*(centers[ax][idx[ax]] for ax in range(bins.dim)), hist.masses[idx], stderr[idx]])
    out = Path(f"{prefix}_renorm_histogram.csv")
    _write_csv(out, [*(f"c{i}" for i in range(bins.dim)), "mass", "stderr"], rows)
    return [out]


def _exp_fke_residual(cfg, prefix):
    kernel = _build_kernel(cfg)
    grid = _build_grid(cfg, kernel)
    spec = _build_subordinator(cfg)
    f = _build_f(cfg, kernel)
    x = _point(cfg, kernel)
    hz = cfg.get("horizons", {})
    T = float(hz.get("T", 2.0))
    dt = float(hz.get("dt", 0.01))
    levels = int(cfg.get("tolerances", {}).get("levels", 2))
    t_min = cfg.get("tolerances", {}).get("t_min", 0.1)
    rows = []
    for lev in range(levels):
        step = dt / 2**lev
        t_grid = step * np.arange(int(round(T / step)) + 1)
        rows.append([step, fke_residual(kernel, spec, f, x, t_grid, grid=grid, t_min=t_min)])
    out = Path(f"{prefix}_fke_residual.csv")
    _write_csv(out, ["dt", "residual"], rows)
    return [out]


class _Experiment:
    def __init__(self, fn, doc, stochastic=False):
        self.fn = fn
        self.doc = doc
        self.stochastic = stochastic


EXPERIMENTS = {
    "validate-kernel": _Experiment(_exp_validate_kernel, "kernel symmetry/mass/Fourier checks on a grid"),
    "fit-expansion": _Experiment(_exp_fit_expansion, "fit the small-frequency tail expansion (A, alpha)"),
    "green-series": _Experiment(_exp_green_series, "regular Green kernel by the convolution-power series"),
    "green-fourier": _Experiment(_exp_green_fourier, "regular Green kernel by radial Fourier quadrature"),
    "green-compare": _Experiment(_exp_green_compare, "series vs Fourier Green kernel cross-validation"),
    "potential": _Experiment(_exp_potential, "potential V(x, f) = f(x) + (G_0 * f)(x)"),
    "mc-potential": _Experiment(_exp_mc_potential, "Monte Carlo truncated random potential", stochastic=True),
    "random-green": _Experiment(_exp_random_green, "averaged single-path occupation histograms", stochastic=True),
    "subordinator-check": _Experiment(_exp_subordinator_check, "kernel limit and admissibility diagnostics"),
    "rho": _Experiment(_exp_rho, "inverse-subordinator density table (t, tau, rho)"),
    "gfd": _Experiment(_exp_gfd, "generalized fractional derivative of t^q on a grid"),
    "subordinate-solve": _Experiment(_exp_subordinate_solve, "subordination formula v(t, x)", ),
    "renorm-curve": _Experiment(_exp_renorm_curve, "renormalized Green measure curve vs potential"),
    "renorm-histogram": _Experiment(_exp_renorm_histogram, "normalized occupation histogram of the time-changed process", stochastic=True),
    "fke-residual": _Experiment(_exp_fke_residual, "fractional Kolmogorov equation residual vs step size"),
}


def list_experiments() -> str:
    width = max(len(k) for k in EXPERIMENTS)
    lines = [f"{name:<{width}}  {EXPERIMENTS[name].doc}" for name in sorted(EXPERIMENTS)]
    return "\n".join(lines)


def run(config_path, out_dir=None) -> int:
    cfg = load_config(config_path)
    cfg = _resolve_seed(cfg)
    prefix = cfg.get("output", "greenwalk")
    if out_dir is not None:
        prefix = str(Path(out_dir) / Path(prefix).name)
    Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    artifacts = EXPERIMENTS[cfg["experiment"]].fn(cfg, prefix)
    manifest = dict(cfg)
    manifest["artifacts"] = [str(a) for a in artifacts]
    manifest_path = Path(f"{prefix}_manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2, default=float))
    print(json.dumps({"manifest": str(manifest_path), "artifacts": manifest["artifacts"]}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="greenwalk", description="Green measures of compound Poisson processes")
    parser.add_argument("--version", action="version", version=f"greenwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="directory overriding the output prefix location")
    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config")
    sub.add_parser("list", help="list available experiments")
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            print(list_experiments())
            return 0
        if args.command == "validate":
            load_config(args.config)
            print(json.dumps({"valid": True, "config": str(args.config)}, sort_keys=True))
            return 0
        return run(args.config, out_dir=args.out)
    except GreenwalkError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True))
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
