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
from .errors import ConfigError, GreenwalkError, _require_mc
from .green import (
    _require_green_measure,
    _require_radial_dim,
    cl_from_kernel,
    green_regular_fourier,
    green_regular_series,
    potential,
)
from .grids import GridSpec, _finite_point, _inside_box
from .kernels import (
    _require_k_window,
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
    _require_s0,
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
# takes no fraction, since truncating it would run another config than the one given.
# The tolerances and horizons are each experiment's own (EXPERIMENTS), typed by their defaults
_SECTION_KEYS = {
    "kernel": {"family": "string", "params": "object", "dim": "integer"},
    "grid": {"N": "integer", "L": "number"},
    "subordinator": {"family": "string", "params": "object"},
    "f": {"family": "string", "params": "object"},
    "mc": {"n": "integer", "seed": "integer"},
    "bins": {"half_width": "number", "per_axis": "integer"},
}
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "object": dict, "array of numbers": list}
_DEFAULT_TYPES = {float: "number", int: "integer", list: "array of numbers"}
# each section's families as (factory, the params it reads with their defaults, the kernel.dim
# values a kernel family accepts, () for any); the factory takes the section's own arguments
# (a kernel's dim, f's kernel), then each param.  Any other params key would be recorded but ignored
_FAMILIES = {
    "kernel": {"gaussian": (make_gaussian_kernel, {}, ()), "cauchy": (lambda dim: make_cauchy_kernel(), {}, (1,))},
    "subordinator": {"stable": (make_stable_subordinator, {"alpha": 0.5}, ()),
                     "gamma": (make_gamma_subordinator, {"a": 1.0, "b": 1.0}, ())},
    "f": {"kernel": (cl_from_kernel, {}, ())},
}
# the family of a section body without one; a subordinator must name its own
_DEFAULT_FAMILY = {"kernel": "gaussian", "f": "kernel"}


def _is(val, kind: str) -> bool:
    """Whether val is a JSON value of kind; a boolean is no number, and an array holds only numbers."""
    elements = val if kind == "array of numbers" and isinstance(val, list) else ()
    return not isinstance(val, bool) and isinstance(val, _JSON_TYPES[kind]) and all(_is(v, "number") for v in elements)


def _fail_unknown(reader: str, given: dict, allowed, prefix: str = "") -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"{reader} reads no {', '.join(prefix + key for key in unknown)}")


def _family(section: str, body: dict) -> Callable:
    """The family of a section's body, its params and dim checked, as a factory of the section's
    own arguments; an unset family is the section's _DEFAULT_FAMILY, and an unset param its default."""
    name = body.get("family", _DEFAULT_FAMILY.get(section))
    if name not in _FAMILIES[section]:
        raise ConfigError(f"unknown {section} family {name!r}")
    (make, defaults, dims), given = _FAMILIES[section][name], body.get("params", {})
    _fail_unknown(f"{section} family {name!r}", given, defaults, "params.")
    if dims and body.get("dim", dims[0]) not in dims:
        raise ConfigError(f"the {name} kernel is {' or '.join(('one', 'two', 'three')[d - 1] for d in dims)}"
                          f"-dimensional; kernel.dim must be {' or '.join(map(str, dims))}")
    return lambda *args: make(*args, *(float(given.get(key, val)) for key, val in defaults.items()))


def load_config(path) -> dict:
    """The config at path, refused with a ConfigError unless it fits the schema, and then with the
    error of the first input its run would refuse to build.

    The schema: a section, tolerance or horizon its experiment reads (EXPERIMENTS) and of the
    JSON type of its key, a non-empty output, positive finite tolerances (lam may be 0), and
    positive finite horizons, horizons.T_grid a non-empty and strictly increasing array.  Then
    the run's own _Inputs builds each section the experiment reads, a family and its params
    from _FAMILIES, and the step count of a run that reads horizons.dt, as the run will, and
    applies the library's gates of the computations the experiment runs (EXPERIMENTS).
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; see `greenwalk list`")
    exp, reader = EXPERIMENTS[name], f"experiment {name!r}"
    _fail_unknown(reader, cfg, {"schema_version", "experiment", "output", "artifacts", *exp.sections})
    keys = {**_SECTION_KEYS, **{section: {key: _DEFAULT_TYPES[type(val)] for key, val in defaults.items()}
                                for section, defaults in (("tolerances", exp.tolerances), ("horizons", exp.horizons))}}
    for section in (s for s in keys if s in cfg):
        if not isinstance(body := cfg[section], dict):
            raise ConfigError(f"{section} must be an object")
        _fail_unknown(reader, body, keys[section], f"{section}.")
        for key, val in body.items():
            if not _is(val, keys[section][key]):
                raise ConfigError(f"{section}.{key} must be a JSON {keys[section][key]}")
    if "output" in cfg and not (isinstance(cfg["output"], str) and cfg["output"]):
        raise ConfigError("output must be a non-empty string (the artifact file prefix)")
    for key, val in cfg.get("tolerances", {}).items():
        # lambda = 0 is the Green measure itself; every other tolerance is a size.  Python's json
        # reads Infinity, which is no JSON number
        if not (0 < val < np.inf or (val == 0 and key == "lam")):
            raise ConfigError(f"tolerance {key!r} must be a positive number")
    for key, val in cfg.get("horizons", {}).items():
        times = np.atleast_1d(np.asarray(val, dtype=float))
        if not (times.size and np.all((times > 0) & (times < np.inf)) and np.all(np.diff(times) > 0)):
            raise ConfigError(f"horizon {key!r} must be " + ("a non-empty, strictly increasing array of positive "
                              "finite times" if isinstance(val, list) else "a positive finite time"))
    inp = _Inputs(cfg, "")
    for built in (*exp.reads, *exp.gates, *("steps",) * ("dt" in inp.horizons)):
        getattr(inp, built)
    return cfg


class _Inputs:
    """One run's inputs from its config, each built on first use and then kept: every section
    the experiment reads, by its own name, and the step count of a run that reads horizons.dt.
    Each builder refuses what its run would, through the library's own gates where it has one;
    green_measure and radial_rule build nothing and apply the gates of the library's G_0 and of
    its radial rule.
    tolerances and horizons hold every value the experiment reads, unset ones at their defaults."""

    def __init__(self, cfg: dict, prefix: str):
        self.cfg, self.prefix, self.exp = cfg, prefix, EXPERIMENTS[cfg["experiment"]]
        self.tolerances = {**self.exp.tolerances, **cfg.get("tolerances", {})}
        self.horizons = {**self.exp.horizons, **cfg.get("horizons", {})}
        if "k_min" in self.tolerances:
            _require_k_window(self.tolerances["k_min"], self.tolerances["k_max"])
        if "s0" in self.tolerances:
            _require_s0(self.tolerances["s0"])

    @cached_property
    def kernel(self):
        body = self.cfg.get("kernel", {})
        return _family("kernel", body)(body.get("dim", 3))

    @cached_property
    def grid(self) -> GridSpec:
        g = self.cfg.get("grid")
        if g is None:
            # a default grid exists where the radial rule does
            d = self.kernel.dim
            _require_radial_dim(d)
            return GridSpec(d, *{1: (1024, 40.0), 2: (256, 24.0), 3: (64, 16.0)}[d])
        if set(g) != {"N", "L"}:
            raise ConfigError("grid needs both N and L")
        return GridSpec(self.kernel.dim, g["N"], float(g["L"]))

    @cached_property
    def green_measure(self) -> None:
        """The Green-existence gate of a run that needs G_0: always, or at lam = 0 for one that reads lam."""
        if self.tolerances.get("lam", 0.0) == 0.0:
            _require_green_measure(self.kernel)

    @cached_property
    def radial_rule(self) -> None:
        _require_radial_dim(self.kernel.dim)

    @cached_property
    def subordinator(self):
        if "subordinator" not in self.cfg:
            raise ConfigError("this experiment needs a subordinator section")
        return _family("subordinator", self.cfg["subordinator"])()

    @cached_property
    def f(self):
        return _family("f", self.cfg.get("f", {}))(self.kernel)

    @cached_property
    def point(self) -> tuple:
        """x, the origin unless set; inside the box of a run that reads a grid, whose periodic sum would wrap it."""
        dim = self.kernel.dim
        given = self.cfg.get("point", [0.0] * dim)
        if not (_is(given, "array of numbers") and len(given) == dim):
            raise ConfigError(f"point must be a list of {dim} coordinates (the kernel dim)")
        x = _finite_point(given, dim)
        if "grid" in self.exp.reads:
            _inside_box(x, self.grid)
        return tuple(x.tolist())

    @cached_property
    def bins(self) -> BinSpec:
        b = self.cfg.get("bins", {})
        return BinSpec.cube(float(b.get("half_width", 8.0)), b.get("per_axis", 8), self.kernel.dim)

    @cached_property
    def mc(self) -> tuple:
        """(n, seed), which a stochastic run must set."""
        mc = self.cfg.get("mc", {})
        if not {"n", "seed"} <= set(mc):
            raise ConfigError(f"experiment {self.cfg['experiment']!r} is stochastic and needs mc.n and mc.seed")
        _require_mc(mc["n"], mc["seed"])
        return mc["n"], mc["seed"]

    @cached_property
    def steps(self) -> int:
        """round(T / dt): at least two, the three times of gfd's central difference, and for a run that
        reads t_min at least three (fke_residual's four times), with t_min at most the last interior time."""
        ratio, least = self.horizons["T"] / self.horizons["dt"], 3 if "t_min" in self.tolerances else 2
        steps = int(round(ratio)) if ratio < np.inf else 0
        if steps < least:
            raise ConfigError(f"horizons.T / horizons.dt must round to a finite step count of at least {least}")
        # the coarsest level's t_grid is dt * arange(steps + 1); each finer level has at least as
        # many steps and a t_grid[-2] at least as late, so it passes fke_residual's checks too
        if not self.tolerances.get("t_min", 0.0) <= self.horizons["dt"] * (steps - 1):
            raise ConfigError("tolerances.t_min must be at most the last interior time, "
                              "horizons.dt * (round(horizons.T / horizons.dt) - 1)")
        return steps

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
    lam = inp.tolerances["lam"]
    xs = inp.grid.axis
    xs = xs[np.abs(xs) <= inp.tolerances["radius"]]
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
    A, alpha, resid = fit_small_k_expansion(inp.kernel, inp.tolerances["k_min"], inp.tolerances["k_max"])
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
    val = potential(inp.kernel, inp.f, inp.point)
    return inp.write_csv("potential", [*(f"x{i}" for i in range(inp.kernel.dim)), "V"], [[*inp.point, val]])


def _exp_mc_potential(inp):
    T = float(inp.horizons["T"])
    est = mc_truncated_potential(inp.kernel, inp.f, inp.point, T, *inp.mc)
    return inp.write_csv("mc_potential", ["mean", "stderr", "n", "seed", "T"],
                         [[est.mean, est.stderr, est.n_samples, est.seed, T]])


def _exp_random_green(inp):
    T = float(inp.horizons["T"])
    hist, stderr = average_random_green_measure(inp.kernel, inp.point, T, inp.bins, *inp.mc)
    return inp.write_csv("random_green", *_histogram_rows(inp.bins, hist, stderr))


def _exp_subordinator_check(inp):
    h = check_H(inp.subordinator)
    adm = check_admissible(inp.subordinator, s0=inp.tolerances["s0"])
    return inp.write_json("subordinator", {
        **inp.subordinator.to_json_dict(),
        "H": {k: v for k, v in h.__dict__.items() if k != "details"},
        "H_passed": h.passed,
        "admissible": {
            "a1_estimate": adm.a1_estimate,
            "a2_max_deviation": adm.a2_max_deviation,
            "passed": adm.passed,
        },
    })


def _exp_rho(inp):
    taus = np.linspace(0.0, inp.tolerances["tau_max"], inp.tolerances["n_tau"])
    rows = [
        [t, tau, rho]
        for t in inp.horizons["T_grid"]
        for tau, rho in zip(taus, rho_density(inp.subordinator, float(t), taus))
    ]
    return inp.write_csv("rho", ["t", "tau", "rho"], rows)


def _exp_gfd(inp):
    dt, m = float(inp.horizons["dt"]), inp.steps
    t_grid = dt * np.arange(m + 1)
    masses = kernel_cell_masses(inp.subordinator, dt, m)
    vals = gfd_apply(None, t_grid ** inp.tolerances["power"], dt, cell_masses=masses)
    return inp.write_csv("gfd", ["t", "gfd"], zip(t_grid[1:m], vals))


def _exp_subordinate_solve(inp):
    ts = inp.horizons["T_grid"]
    v = subordinated_solution(inp.kernel, inp.subordinator, inp.f, inp.point, np.asarray(ts, float), inp.grid)
    return inp.write_csv("subordinate_solve", ["t", "v"], zip(ts, v))


def _exp_renorm_curve(inp):
    T_grid = inp.horizons["T_grid"]
    curve = renormalized_potential_curve(inp.kernel, inp.subordinator, inp.f, inp.point, np.asarray(T_grid, float))
    rows = zip(curve.T_grid, curve.N_values, curve.values, [curve.target] * curve.values.size, curve.rel_gaps)
    return inp.write_csv("renorm_curve", ["T", "N", "value", "target", "rel_gap"], rows)


def _exp_renorm_histogram(inp):
    T = float(inp.horizons["T"])
    hist, stderr = renormalized_green_histogram(inp.kernel, inp.subordinator, inp.point, T, inp.bins, *inp.mc)
    return inp.write_csv("renorm_histogram", *_histogram_rows(inp.bins, hist, stderr))


def _exp_fke_residual(inp):
    T = float(inp.horizons["T"])
    dt = float(inp.horizons["dt"])
    rows = []
    for lev in range(inp.tolerances["levels"]):
        step = dt / 2**lev
        t_grid = step * np.arange(int(round(T / step)) + 1)
        residual = fke_residual(inp.kernel, inp.subordinator, inp.f, inp.point, t_grid, grid=inp.grid,
                                t_min=inp.tolerances["t_min"])
        rows.append([step, residual])
    return inp.write_csv("fke_residual", ["dt", "residual"], rows)


class _Experiment(NamedTuple):
    """A run: its function, its line in `greenwalk list`, the sections it reads besides
    tolerances and horizons ("point" among them), and the tolerances and horizons it reads
    with their defaults.  load_config refuses any other; each value's JSON type is its default's.
    gates names the library computations the run needs, whose gates load_config applies:
    "green_measure" (G_0, which a run that reads lam needs only at lam = 0) and "radial_rule"."""

    fn: Callable[[_Inputs], list]
    doc: str
    reads: tuple
    tolerances: dict = {}
    horizons: dict = {}
    gates: tuple = ()

    @property
    def sections(self) -> tuple:
        return (*self.reads, *(s for s in ("tolerances", "horizons") if getattr(self, s)))


_GREEN = (("kernel", "grid"), {"lam": 0.0, "radius": 3.0})
_G0_RADIAL = ("green_measure", "radial_rule")
_SUBORDINATED = ("kernel", "grid", "subordinator", "f", "point")
EXPERIMENTS = {
    "validate-kernel": _Experiment(_exp_validate_kernel, "kernel symmetry/mass/Fourier checks on a grid",
                                   ("kernel", "grid")),
    "fit-expansion": _Experiment(_exp_fit_expansion, "fit the small-frequency tail expansion (A, alpha)", ("kernel",),
                                 {"k_min": 1e-3, "k_max": 1e-2}),
    "green-series": _Experiment(_exp_green_series, "regular Green kernel by the convolution-power series", *_GREEN,
                                gates=("green_measure",)),
    "green-fourier": _Experiment(_exp_green_fourier, "regular Green kernel by radial Fourier quadrature", *_GREEN,
                                 gates=_G0_RADIAL),
    "green-compare": _Experiment(_exp_green_compare, "series vs Fourier Green kernel cross-validation", *_GREEN,
                                 gates=_G0_RADIAL),
    "potential": _Experiment(_exp_potential, "potential V(x, f) = f(x) + (G_0 * f)(x)", ("kernel", "f", "point"),
                             gates=_G0_RADIAL),
    "mc-potential": _Experiment(_exp_mc_potential, "Monte Carlo truncated random potential",
                                ("kernel", "f", "point", "mc"), horizons={"T": 200.0}),
    "random-green": _Experiment(_exp_random_green, "conditional mean occupation histograms of paths",
                                ("kernel", "point", "bins", "mc"), horizons={"T": 200.0}),
    "subordinator-check": _Experiment(_exp_subordinator_check, "kernel limit and admissibility diagnostics",
                                      ("subordinator",), {"s0": 1.0}),
    "rho": _Experiment(_exp_rho, "inverse-subordinator density table (t, tau, rho)", ("subordinator",),
                       {"tau_max": 10.0, "n_tau": 101}, {"T_grid": [1.0]}),
    "gfd": _Experiment(_exp_gfd, "generalized fractional derivative of t^q on a grid", ("subordinator",),
                       {"power": 1.0}, {"T": 2.0, "dt": 1e-3}),
    "subordinate-solve": _Experiment(_exp_subordinate_solve, "subordination formula v(t, x)", _SUBORDINATED,
                                     horizons={"T_grid": [0.5, 1.0, 2.0]}),
    "renorm-curve": _Experiment(_exp_renorm_curve, "renormalized Green measure curve vs potential",
                                ("kernel", "subordinator", "f", "point"),
                                horizons={"T_grid": [2.0**j for j in range(9, 22, 2)]}, gates=_G0_RADIAL),
    "renorm-histogram": _Experiment(_exp_renorm_histogram,
                                    "normalized occupation histogram of the time-changed process",
                                    ("kernel", "subordinator", "point", "bins", "mc"), horizons={"T": 1e4}),
    "fke-residual": _Experiment(_exp_fke_residual, "fractional Kolmogorov equation residual vs step size",
                                _SUBORDINATED, {"levels": 2, "t_min": 0.1}, {"T": 2.0, "dt": 0.01}),
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
