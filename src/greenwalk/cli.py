"""Experiment runner: every pipeline is a named experiment driven by a JSON config.

Configs are strict: a schema_version field is required and unknown keys are
rejected so that an emitted manifest (the fully resolved config) can always
be re-run to reproduce its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

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

# the keys of each section and the JSON type of each value; an integer key
# takes no fraction, since truncating it would run another config than the one given
_SECTION_KEYS = {
    "kernel": {"family": "string", "params": "object", "dim": "integer"},
    "grid": {"N": "integer", "L": "number"},
    "subordinator": {"family": "string", "params": "object"},
    "f": {"family": "string", "params": "object"},
    "mc": {"n": "integer", "seed": "integer"},
    "horizons": {"T": "number", "T_grid": "array", "dt": "number"},
    "bins": {"half_width": "number", "per_axis": "integer"},
    # every tolerance some experiment reads; see the README's experiment table
    "tolerances": {
        **dict.fromkeys(("lam", "radius", "k_min", "k_max", "s0", "tau_max", "power", "t_min"), "number"),
        "n_tau": "integer",
        "levels": "integer",
    },
}
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "object": dict, "array": list}
_TOP_KEYS = {"schema_version", "experiment", "output", "point", "artifacts", *_SECTION_KEYS}
# the params each family reads; any other key would be recorded but ignored
_FAMILY_PARAMS = {
    "kernel": {"gaussian": set(), "cauchy": set()},
    "subordinator": {"stable": {"alpha"}, "gamma": {"a", "b"}},
    "f": {"kernel": set()},
}


def _fail_unknown(section: str, given: dict, allowed: set) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


def _check_family(section: str, body: dict) -> None:
    family = body.get("family", "kernel" if section == "f" else None)
    if family not in _FAMILY_PARAMS[section]:
        raise ConfigError(f"unknown {section} family {family!r}")
    _fail_unknown(f"{section}.params of family {family!r}", body.get("params", {}), _FAMILY_PARAMS[section][family])
    if family == "cauchy" and body.get("dim", 1) != 1:
        raise ConfigError("the cauchy kernel is one-dimensional; kernel.dim must be 1")


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
    for section, types in _SECTION_KEYS.items():
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{section} must be an object")
        _fail_unknown(section, body, set(types))
        for key, val in body.items():
            if isinstance(val, bool) or not isinstance(val, _JSON_TYPES[types[key]]):
                raise ConfigError(f"{section}.{key} must be a JSON {types[key]}")
        if section in _FAMILY_PARAMS and section in cfg:
            _check_family(section, body)
    if "output" in cfg and not (isinstance(cfg["output"], str) and cfg["output"]):
        raise ConfigError("output must be a non-empty string (the artifact file prefix)")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; see `greenwalk list`")
    for key, val in cfg.get("tolerances", {}).items():
        # lambda = 0 is the Green measure itself; every other tolerance is a size
        if not (val > 0 or (val == 0 and key == "lam")):
            raise ConfigError(f"tolerance {key!r} must be a positive number")
    if EXPERIMENTS[name].stochastic and not {"n", "seed"} <= set(cfg.get("mc", {})):
        raise ConfigError(f"experiment {name!r} is stochastic and needs mc.n and mc.seed")
    return cfg


class _Inputs:
    """One run's validated config; each section is built on first use and then kept."""

    def __init__(self, cfg: dict, prefix: str):
        self.cfg = cfg
        self.prefix = prefix
        self.tol = cfg.get("tolerances", {})
        self.horizons = cfg.get("horizons", {})

    @cached_property
    def kernel(self):
        body = self.cfg.get("kernel", {"family": "gaussian", "dim": 3})
        if body["family"] == "cauchy":
            return make_cauchy_kernel()
        return make_gaussian_kernel(body.get("dim", 3))

    @cached_property
    def grid(self) -> GridSpec:
        g = self.cfg.get("grid")
        if g is None:
            defaults = {1: (1024, 40.0), 2: (256, 24.0), 3: (64, 16.0)}
            n, half = defaults.get(self.kernel.dim, (64, 16.0))
            return GridSpec(self.kernel.dim, n, half)
        if set(g) != {"N", "L"}:
            raise ConfigError("grid needs both N and L")
        return GridSpec(self.kernel.dim, g["N"], float(g["L"]))

    @cached_property
    def spec(self):
        sub = self.cfg.get("subordinator")
        if sub is None:
            raise ConfigError("this experiment needs a subordinator section")
        params = sub.get("params", {})
        if sub["family"] == "stable":
            return make_stable_subordinator(float(params.get("alpha", 0.5)))
        return make_gamma_subordinator(float(params.get("a", 1.0)), float(params.get("b", 1.0)))

    @cached_property
    def f(self):
        return cl_from_kernel(self.kernel)

    @cached_property
    def x(self) -> tuple:
        pt = self.cfg.get("point", [0.0] * self.kernel.dim)
        if not isinstance(pt, list) or len(pt) != self.kernel.dim:
            raise ConfigError(f"point must be a list of {self.kernel.dim} coordinates (the kernel dim)")
        return tuple(float(v) for v in pt)

    @cached_property
    def bins(self) -> BinSpec:
        b = self.cfg.get("bins", {})
        return BinSpec.cube(float(b.get("half_width", 8.0)), b.get("per_axis", 8), self.kernel.dim)

    @cached_property
    def mc(self) -> tuple:
        """(n, seed); load_config makes a stochastic experiment carry both."""
        return self.cfg["mc"]["n"], self.cfg["mc"]["seed"]

    def write_csv(self, name: str, header, rows) -> list:
        """Write {prefix}_{name}.csv, numbers as repr(float); returns the artifact list."""
        path = Path(f"{self.prefix}_{name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating)) else v for v in row])
        return [path]

    def write_json(self, name: str, payload: dict) -> list:
        """Write {prefix}_{name}.json with sorted keys; returns the artifact list."""
        path = Path(f"{self.prefix}_{name}.json")
        path.write_text(json.dumps(payload, sort_keys=True, default=float))
        return [path]


def _axis_profile(inp: _Inputs, *methods: str) -> list:
    """Columns x, then G_lam by each method ("series", "fourier"), at the grid
    nodes on the first axis with |x| <= tolerances.radius."""
    lam = inp.tol.get("lam", 0.0)
    xs = inp.grid.axis
    xs = xs[np.abs(xs) <= inp.tol.get("radius", 3.0)]
    pts = np.zeros((xs.size, inp.kernel.dim))
    pts[:, 0] = xs
    values = {
        "series": lambda: green_regular_series(inp.kernel, inp.grid, lam).regular_part.values_at(pts),
        "fourier": lambda: [green_regular_fourier(inp.kernel, p, lam) for p in pts],
    }
    return [xs, *(values[m]() for m in methods)]


def _histogram_rows(bins: BinSpec, hist, stderr) -> tuple:
    """(header, rows) of a histogram CSV: bin center coordinates, mass, stderr."""
    centers = bins.centers()
    header = [*(f"c{i}" for i in range(bins.dim)), "mass", "stderr"]
    rows = [
        [*(centers[ax][idx[ax]] for ax in range(bins.dim)), hist.masses[idx], stderr[idx]]
        for idx in np.ndindex(*bins.shape)
    ]
    return header, rows


# ---------------------------------------------------------------------------
# experiment implementations: each writes its artifacts and returns their paths
# ---------------------------------------------------------------------------


def _exp_validate_kernel(inp):
    report = validate_kernel(inp.kernel, inp.grid)
    return inp.write_json("report", {"passed": report.passed, **report.__dict__})


def _exp_fit_expansion(inp):
    A, alpha, resid = fit_small_k_expansion(
        inp.kernel, k_min=inp.tol.get("k_min", 1e-3), k_max=inp.tol.get("k_max", 1e-2)
    )
    return inp.write_csv("fit", ["A", "alpha", "max_log_residual"], [[A, alpha, resid]])


def _exp_green_series(inp):
    return inp.write_csv("green_series", ["x", "G_series"], zip(*_axis_profile(inp, "series")))


def _exp_green_fourier(inp):
    return inp.write_csv("green_fourier", ["x", "G_fourier"], zip(*_axis_profile(inp, "fourier")))


def _exp_green_compare(inp):
    rows = [
        [x, s, f, abs(s / f - 1.0) if f != 0 else float("nan")]
        for x, s, f in zip(*_axis_profile(inp, "series", "fourier"))
    ]
    return inp.write_csv("green_compare", ["x", "G0_series", "G0_fourier", "rel_diff"], rows)


def _exp_potential(inp):
    val = potential(inp.kernel, inp.f, inp.x, inp.grid)
    return inp.write_csv("potential", [*(f"x{i}" for i in range(inp.kernel.dim)), "V"], [[*inp.x, val]])


def _exp_mc_potential(inp):
    T = float(inp.horizons.get("T", 200.0))
    est = mc_truncated_potential(inp.kernel, inp.f, inp.x, T, *inp.mc)
    return inp.write_csv("mc_potential", ["mean", "stderr", "n", "seed", "T"],
                         [[est.mean, est.stderr, est.n_samples, est.seed, T]])


def _exp_random_green(inp):
    T = float(inp.horizons.get("T", 200.0))
    hist, stderr = average_random_green_measure(inp.kernel, inp.x, T, inp.bins, *inp.mc)
    return inp.write_csv("random_green", *_histogram_rows(inp.bins, hist, stderr))


def _exp_subordinator_check(inp):
    h = check_H(inp.spec)
    adm = check_admissible(inp.spec, s0=inp.tol.get("s0", 1.0))
    return inp.write_json("subordinator", {
        "family": inp.spec.family,
        "params": inp.spec.params,
        "H": {k: v for k, v in h.__dict__.items() if k != "details"},
        "H_passed": h.passed,
        "admissible": {
            "a1_estimate": adm.a1_estimate,
            "a2_max_deviation": adm.a2_max_deviation,
            "passed": adm.passed,
        },
    })


def _exp_rho(inp):
    taus = np.linspace(0.0, inp.tol.get("tau_max", 10.0), inp.tol.get("n_tau", 101))
    rows = [
        [t, tau, rho]
        for t in inp.horizons.get("T_grid", [1.0])
        for tau, rho in zip(taus, rho_density(inp.spec, float(t), taus))
    ]
    return inp.write_csv("rho", ["t", "tau", "rho"], rows)


def _exp_gfd(inp):
    T = float(inp.horizons.get("T", 2.0))
    dt = float(inp.horizons.get("dt", 1e-3))
    m = int(round(T / dt))
    t_grid = dt * np.arange(m + 1)
    masses = kernel_cell_masses(inp.spec, dt, m)
    vals = gfd_apply(None, t_grid ** inp.tol.get("power", 1.0), dt, cell_masses=masses)
    return inp.write_csv("gfd", ["t", "gfd"], zip(t_grid[1:m], vals))


def _exp_subordinate_solve(inp):
    ts = inp.horizons.get("T_grid", [0.5, 1.0, 2.0])
    v = subordinated_solution(inp.kernel, inp.spec, inp.f, inp.x, np.asarray(ts, dtype=float), grid=inp.grid)
    return inp.write_csv("subordinate_solve", ["t", "v"], zip(ts, v))


def _exp_renorm_curve(inp):
    T_grid = inp.horizons.get("T_grid", [2.0**j for j in range(9, 22, 2)])
    curve = renormalized_potential_curve(inp.kernel, inp.spec, inp.f, inp.x, np.asarray(T_grid, float))
    rows = zip(curve.T_grid, curve.N_values, curve.values, [curve.target] * curve.values.size, curve.rel_gaps)
    return inp.write_csv("renorm_curve", ["T", "N", "value", "target", "rel_gap"], rows)


def _exp_renorm_histogram(inp):
    T = float(inp.horizons.get("T", 1e4))
    hist, stderr = renormalized_green_histogram(inp.kernel, inp.spec, inp.x, T, inp.bins, *inp.mc)
    return inp.write_csv("renorm_histogram", *_histogram_rows(inp.bins, hist, stderr))


def _exp_fke_residual(inp):
    T = float(inp.horizons.get("T", 2.0))
    dt = float(inp.horizons.get("dt", 0.01))
    rows = []
    for lev in range(inp.tol.get("levels", 2)):
        step = dt / 2**lev
        t_grid = step * np.arange(int(round(T / step)) + 1)
        residual = fke_residual(inp.kernel, inp.spec, inp.f, inp.x, t_grid, grid=inp.grid,
                                t_min=inp.tol.get("t_min", 0.1))
        rows.append([step, residual])
    return inp.write_csv("fke_residual", ["dt", "residual"], rows)


class _Experiment(NamedTuple):
    fn: Callable[[_Inputs], list]
    doc: str
    stochastic: bool = False


EXPERIMENTS = {
    "validate-kernel": _Experiment(_exp_validate_kernel, "kernel symmetry/mass/Fourier checks on a grid"),
    "fit-expansion": _Experiment(_exp_fit_expansion, "fit the small-frequency tail expansion (A, alpha)"),
    "green-series": _Experiment(_exp_green_series, "regular Green kernel by the convolution-power series"),
    "green-fourier": _Experiment(_exp_green_fourier, "regular Green kernel by radial Fourier quadrature"),
    "green-compare": _Experiment(_exp_green_compare, "series vs Fourier Green kernel cross-validation"),
    "potential": _Experiment(_exp_potential, "potential V(x, f) = f(x) + (G_0 * f)(x)"),
    "mc-potential": _Experiment(_exp_mc_potential, "Monte Carlo truncated random potential", stochastic=True),
    "random-green": _Experiment(_exp_random_green, "conditional mean occupation histograms of paths", stochastic=True),
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
    prefix = cfg.get("output", "greenwalk")
    if out_dir is not None:
        prefix = str(Path(out_dir) / Path(prefix).name)
    Path(prefix).parent.mkdir(parents=True, exist_ok=True)
    artifacts = EXPERIMENTS[cfg["experiment"]].fn(_Inputs(cfg, prefix))
    manifest = {**cfg, "artifacts": [str(a) for a in artifacts]}
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
    except (GreenwalkError, ValueError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
