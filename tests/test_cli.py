"""Command-line runner tests: strict configs, artifacts, reproducibility."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from greenwalk import cli
from greenwalk.cli import EXPERIMENTS, list_experiments, load_config, main
from greenwalk.errors import ConfigError
from greenwalk.green import cl_from_kernel
from greenwalk.grids import GridSpec
from greenwalk.kernels import make_gaussian_kernel
from greenwalk.renorm import renormalized_potential_curve
from greenwalk.subordinate import make_stable_subordinator


def write_cfg(tmp_path, name, **body):
    cfg = {"schema_version": 1, **body}
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(cfg))
    return p


def run_cli(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_registry_and_listing():
    assert len(EXPERIMENTS) == 15
    listing = list_experiments()
    for name in EXPERIMENTS:
        assert name in listing


def test_list_command(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    assert "green-compare" in out


def test_missing_schema_version(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "potential"}))
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_top_level_key(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="potential", typo_key=1)
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_section_key(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="potential", kernel={"family": "gaussian", "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_experiment(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="does-not-exist")
    with pytest.raises(ConfigError):
        load_config(p)


def test_stochastic_experiment_requires_seed(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="mc-potential", mc={"n": 100})
    with pytest.raises(ConfigError):
        load_config(p)


def test_nonpositive_tolerance_rejected(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="green-compare", tolerances={"lam": -1.0})
    with pytest.raises(ConfigError, match="^tolerance 'lam' must be a positive number$"):
        load_config(p)


def test_readme_example_config_validates(tmp_path):
    # lambda = 0 (the Green measure itself) is the README's own example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    p = tmp_path / "readme.json"
    p.write_text(readme.split("```json")[1].split("```")[0])
    assert load_config(p)["tolerances"]["lam"] == 0.0


def test_zero_tolerance_other_than_lam_rejected(tmp_path):
    p = write_cfg(tmp_path, "bad", experiment="green-compare", tolerances={"radius": 0.0})
    with pytest.raises(ConfigError):
        load_config(p)


def test_validate_command(tmp_path, capsys):
    good = write_cfg(tmp_path, "good", experiment="fit-expansion",
                     kernel={"family": "cauchy"})
    assert run_cli(["validate", good]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_cli_errors_are_json(tmp_path, capsys):
    # potential in d = 1 violates the existence condition d > alpha
    cfg = write_cfg(tmp_path, "div", experiment="potential",
                    kernel={"family": "gaussian", "dim": 1},
                    output="div")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DivergentGreenMeasureError"


DIM4 = {"kernel": {"family": "gaussian", "dim": 4}}


@pytest.mark.parametrize("body, message", [
    ({"experiment": "renorm-curve", "subordinator": {"family": "stable"}, **DIM4},
     "kernel.dim must be 1, 2 or 3 for the radial Fourier rule, not 4"),
    ({"experiment": "green-fourier", "grid": {"N": 8, "L": 4.0}, **DIM4},
     "kernel.dim must be 1, 2 or 3 for the radial Fourier rule, not 4"),
    ({"experiment": "potential", **DIM4},
     "kernel.dim must be 1, 2 or 3 for the radial Fourier rule, not 4"),
], ids=["renorm-curve-dim-4", "green-fourier-dim-4", "potential-dim-4-no-grid"])
def test_cli_inputs_the_library_refuses_print_the_error_line(tmp_path, capsys, body, message):
    # each used to end in a traceback (NotImplementedError).  The radial rule's own gate refuses
    # the dimension, and validate now refuses them too (test_validate_gives_the_verdict_run_gives)
    cfg = write_cfg(tmp_path, "refused", **body)
    assert run_cli(["run", cfg, "--out", tmp_path]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {"type": "InvalidInputError", "message": message}


@pytest.mark.parametrize("output", [{"prefix": "h"}, "", 3])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_output_must_be_a_nonempty_string(tmp_path, capsys, command, output):
    cfg = write_cfg(tmp_path, "out", experiment="fit-expansion",
                    kernel={"family": "cauchy"}, output=output)
    assert run_cli([command, cfg]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError"
    assert "output" in err["message"]


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_fit_expansion_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "fit", experiment="fit-expansion",
                    kernel={"family": "cauchy"}, output="fit")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "fit_fit.csv").read_text().strip().splitlines()
    header, values = rows[0].split(","), rows[1].split(",")
    fitted = dict(zip(header, (float(v) for v in values)))
    assert fitted["A"] == pytest.approx(1.0, rel=0.02)
    assert fitted["alpha"] == pytest.approx(1.0, rel=0.02)
    manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
    assert manifest["experiment"] == "fit-expansion"
    assert out["artifacts"] == manifest["artifacts"]


def test_green_compare_run(tmp_path):
    cfg = write_cfg(tmp_path, "gc", experiment="green-compare",
                    kernel={"family": "gaussian", "dim": 1},
                    grid={"N": 1024, "L": 40.0},
                    tolerances={"lam": 1.0, "radius": 2.0},
                    output="gc")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    rows = (tmp_path / "gc_green_compare.csv").read_text().strip().splitlines()[1:]
    rel = [float(r.split(",")[3]) for r in rows]
    assert max(rel) < 0.01


def test_mc_potential_reruns_byte_identical(tmp_path):
    for sub in ("r1", "r2"):
        cfg = write_cfg(tmp_path, f"mc{sub}", experiment="mc-potential",
                        kernel={"family": "gaussian", "dim": 3},
                        mc={"n": 200, "seed": 11},
                        horizons={"T": 10.0},
                        output="mc")
        assert run_cli(["run", cfg, "--out", tmp_path / sub]) == 0
    a = (tmp_path / "r1" / "mc_mc_potential.csv").read_bytes()
    b = (tmp_path / "r2" / "mc_mc_potential.csv").read_bytes()
    assert a == b


def test_manifest_rerun_reproduces_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "rg", experiment="random-green",
                    kernel={"family": "gaussian", "dim": 3},
                    mc={"n": 50, "seed": 4},
                    horizons={"T": 20.0},
                    bins={"half_width": 8.0, "per_axis": 4},
                    output="rg")
    assert run_cli(["run", cfg, "--out", tmp_path / "first"]) == 0
    manifest = tmp_path / "first" / "rg_manifest.json"
    # the manifest is itself a runnable config (modulo its artifact list)
    m = json.loads(manifest.read_text())
    m.pop("artifacts")
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(m))
    assert run_cli(["run", rerun_cfg, "--out", tmp_path / "second"]) == 0
    a = (tmp_path / "first" / "rg_random_green.csv").read_bytes()
    b = (tmp_path / "second" / "rg_random_green.csv").read_bytes()
    assert a == b


def test_renorm_curve_run_and_manifest_rerun(tmp_path):
    cfg = write_cfg(tmp_path, "rc", experiment="renorm-curve",
                    subordinator={"family": "stable", "params": {"alpha": 0.5}},
                    output="rc")
    assert run_cli(["run", cfg, "--out", tmp_path / "first"]) == 0
    first = (tmp_path / "first" / "rc_renorm_curve.csv").read_bytes()
    rows = first.decode().strip().splitlines()
    assert rows[0] == "T,N,value,target,rel_gap"
    gaps = [float(r.split(",")[4]) for r in rows[1:]]
    assert len(gaps) == 7
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    m = json.loads((tmp_path / "first" / "rc_manifest.json").read_text())
    m.pop("artifacts")
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(m))
    assert run_cli(["run", rerun_cfg, "--out", tmp_path / "second"]) == 0
    assert (tmp_path / "second" / "rc_renorm_curve.csv").read_bytes() == first


def test_renorm_curve_csv(tmp_path):
    # the curve goes through the one CSV writer: its header, then each T's
    # row with every number as repr(float), as renormalized_potential_curve gives it
    cfg = write_cfg(tmp_path, "rc", experiment="renorm-curve", subordinator={"family": "stable"},
                    horizons={"T_grid": [512.0, 2048.0]}, output="rc")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    k3 = make_gaussian_kernel(3)
    curve = renormalized_potential_curve(k3, make_stable_subordinator(0.5), cl_from_kernel(k3), (0.0, 0.0, 0.0),
                                         np.array([512.0, 2048.0]), GridSpec(3, 64, 16.0))
    rows = [",".join(repr(float(v)) for v in (T, N, value, curve.target, gap))
            for T, N, value, gap in zip(curve.T_grid, curve.N_values, curve.values, curve.rel_gaps)]
    assert (tmp_path / "rc_renorm_curve.csv").read_text().splitlines() == ["T,N,value,target,rel_gap", *rows]


def test_renorm_curve_builds_no_grid(tmp_path, monkeypatch):
    # the curve never reads a box, so the experiment never builds the GridSpec
    def refuse(*args):
        raise AssertionError("renorm-curve built a GridSpec")

    monkeypatch.setattr(cli, "GridSpec", refuse)
    cfg = write_cfg(tmp_path, "rc", experiment="renorm-curve", subordinator={"family": "stable"},
                    horizons={"T_grid": [512.0]}, output="rc")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    assert len((tmp_path / "rc_renorm_curve.csv").read_text().splitlines()) == 2


def test_potential_builds_no_grid(tmp_path, monkeypatch):
    # f is the kernel, which carries its Fourier transform, so potential takes the radial rule
    def refuse(*args):
        raise AssertionError("potential built a GridSpec")

    monkeypatch.setattr(cli, "GridSpec", refuse)
    cfg = write_cfg(tmp_path, "pot", experiment="potential", output="pot")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    assert len((tmp_path / "pot_potential.csv").read_text().splitlines()) == 2


def test_subordinator_check_run(tmp_path):
    cfg = write_cfg(tmp_path, "sub", experiment="subordinator-check",
                    subordinator={"family": "stable", "params": {"alpha": 0.5}},
                    output="sub")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "sub_subordinator.json").read_text())
    assert report["H_passed"] is True


# ---------------------------------------------------------------------------
# the schema reads every key a run uses, and only those
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("experiment, body", [
    ("green-compare", {"tolerances": {"radus": 1.0}}),
    ("rho", {"subordinator": {"family": "gamma", "params": {"alpha": 0.7}}}),
    ("potential", {"f": {"family": "kernel", "params": {"scale": 2}}}),
], ids=["misspelt-tolerance", "gamma-with-alpha", "kernel-f-with-params"])
def test_keys_no_run_reads_are_rejected(tmp_path, capsys, experiment, body):
    cfg = write_cfg(tmp_path, "bad", experiment=experiment, **body)
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert run_cli(["validate", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"


def test_cauchy_kernel_in_three_dimensions_is_rejected(tmp_path):
    # make_cauchy_kernel is one-dimensional, so dim 3 would run a 1-D kernel
    cfg = write_cfg(tmp_path, "bad", experiment="fit-expansion", kernel={"family": "cauchy", "dim": 3})
    with pytest.raises(ConfigError, match="^the cauchy kernel is one-dimensional; kernel.dim must be 1$"):
        load_config(cfg)


def test_families_are_read_from_one_table():
    # the run's kernel, subordinator and f all go through cli._family, and each experiment's
    # rules through the sections, tolerances and horizons it reads: no comparison in cli.py
    # names a family or an experiment
    source = Path(cli.__file__).read_text()
    assert "family ==" not in source and "_FAMILY_PARAMS" not in source
    assert {section: set(families) for section, families in cli._FAMILIES.items()} == {
        "kernel": {"gaussian", "cauchy"}, "subordinator": {"stable", "gamma"}, "f": {"kernel"}}
    names = {*EXPERIMENTS, *(family for families in cli._FAMILIES.values() for family in families)}
    compared = [const.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
                for const in ast.walk(node) if isinstance(const, ast.Constant) and const.value in names]
    assert compared == []


@pytest.mark.parametrize("body, built", [
    ({}, ("gaussian3d", "stable", {"alpha": 0.5})),
    ({"kernel": {"family": "gaussian", "dim": 2}, "subordinator": {"family": "gamma", "params": {"b": 3}}},
     ("gaussian2d", "gamma", {"a": 1.0, "b": 3.0})),
    ({"kernel": {"family": "cauchy"}, "subordinator": {"family": "stable", "params": {"alpha": 0.7}}},
     ("cauchy1d", "stable", {"alpha": 0.7})),
], ids=["defaults", "gaussian2-gamma", "cauchy-stable07"])
def test_table_builds_each_family_with_its_param_defaults(tmp_path, body, built):
    # subordinate-solve reads the kernel, the subordinator and f, and needs no G_0, which
    # diverges for the 2-D Gaussian and the Cauchy kernel
    body = {"subordinator": {"family": "stable"}, **body}
    inp = cli._Inputs(load_config(write_cfg(tmp_path, "families", experiment="subordinate-solve", **body)),
                      str(tmp_path / "x"))
    assert (inp.kernel.name, inp.subordinator.family, inp.subordinator.params) == built
    assert inp.f.evaluator is inp.kernel.density and inp.f.fourier is inp.kernel.fourier


def test_a_kernel_section_without_a_family_is_the_gaussian(tmp_path):
    written = []
    for name, kernel in (("bare", {"dim": 1}), ("named", {"family": "gaussian", "dim": 1})):
        cfg = write_cfg(tmp_path, name, experiment="green-series", output=name, kernel=kernel,
                        tolerances={"lam": 0.5, "radius": 2.0})
        assert run_cli(["validate", cfg]) == 0
        assert run_cli(["run", cfg, "--out", tmp_path]) == 0
        written.append((tmp_path / f"{name}_green_series.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("experiment, body", [
    ("mc-potential", {"mc": {"n": 100.5, "seed": 1}}),
    ("mc-potential", {"mc": {"n": 100, "seed": 1.5}}),
    ("mc-potential", {"mc": {"n": 100, "seed": True}}),
    ("validate-kernel", {"grid": {"N": 32.0, "L": 8.0}}),
    ("random-green", {"mc": {"n": 10, "seed": 1}, "bins": {"per_axis": 4.5}}),
    ("fke-residual", {"tolerances": {"levels": 0.5}}),
    ("rho", {"tolerances": {"n_tau": 10.5}}),
], ids=["mc.n", "mc.seed", "mc.seed-bool", "grid.N", "bins.per_axis", "levels", "n_tau"])
def test_integer_keys_must_be_json_integers(tmp_path, experiment, body):
    cfg = write_cfg(tmp_path, "bad", experiment=experiment, **body)
    with pytest.raises(ConfigError, match="integer"):
        load_config(cfg)


def test_fractional_levels_write_no_artifact(tmp_path, capsys):
    # int(0.5) = 0 levels used to write a header-only CSV and exit 0
    cfg = write_cfg(tmp_path, "fke", experiment="fke-residual",
                    kernel={"family": "gaussian", "dim": 1},
                    subordinator={"family": "stable", "params": {"alpha": 0.5}},
                    tolerances={"levels": 0.5}, output="fke")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"
    assert not (tmp_path / "fke_fke_residual.csv").exists()


# ---------------------------------------------------------------------------
# every experiment through the runner
# ---------------------------------------------------------------------------

GAUSS1 = {"family": "gaussian", "dim": 1}
HALF_STABLE = {"family": "stable", "params": {"alpha": 0.5}}

# experiment -> (small config body, artifact suffix, CSV header or sorted JSON keys)
RUNS = {
    "validate-kernel": ({"kernel": GAUSS1, "grid": {"N": 256, "L": 20.0}}, "report.json",
                        ["fourier_at_cutoff", "fourier_bounded", "fourier_decays", "mass",
                         "max_abs_fourier_away_from_zero", "min_density", "nonnegative", "normalized",
                         "passed", "symmetric", "symmetry_error"]),
    "fit-expansion": ({"kernel": {"family": "cauchy"}}, "fit.csv", "A,alpha,max_log_residual"),
    "green-series": ({"kernel": GAUSS1, "tolerances": {"lam": 0.5, "radius": 2.0}},
                     "green_series.csv", "x,G_series"),
    "green-fourier": ({"kernel": GAUSS1, "tolerances": {"lam": 0.5, "radius": 1.0}},
                      "green_fourier.csv", "x,G_fourier"),
    "green-compare": ({"kernel": GAUSS1, "grid": {"N": 512, "L": 30.0}, "tolerances": {"lam": 1.0, "radius": 1.0}},
                      "green_compare.csv", "x,G0_series,G0_fourier,rel_diff"),
    "potential": ({"point": [0.5, 0.0, 0.0]}, "potential.csv", "x0,x1,x2,V"),
    "mc-potential": ({"kernel": GAUSS1, "mc": {"n": 20, "seed": 1}, "horizons": {"T": 5.0}},
                     "mc_potential.csv", "mean,stderr,n,seed,T"),
    "random-green": ({"kernel": GAUSS1, "mc": {"n": 10, "seed": 2}, "horizons": {"T": 5.0},
                      "bins": {"half_width": 4.0, "per_axis": 4}}, "random_green.csv", "c0,mass,stderr"),
    "subordinator-check": ({"subordinator": {"family": "gamma", "params": {"a": 2.0, "b": 0.5}}},
                           "subordinator.json", ["H", "H_passed", "admissible", "family", "params"]),
    "rho": ({"subordinator": {"family": "gamma", "params": {"a": 1.0, "b": 1.0}},
             "tolerances": {"tau_max": 2.0, "n_tau": 5}}, "rho.csv", "t,tau,rho"),
    "gfd": ({"subordinator": HALF_STABLE, "horizons": {"T": 0.1, "dt": 0.01}}, "gfd.csv", "t,gfd"),
    "subordinate-solve": ({"kernel": GAUSS1, "subordinator": HALF_STABLE, "horizons": {"T_grid": [0.5]}},
                          "subordinate_solve.csv", "t,v"),
    "renorm-curve": ({"subordinator": HALF_STABLE, "horizons": {"T_grid": [512.0, 2048.0]}},
                     "renorm_curve.csv", "T,N,value,target,rel_gap"),
    "renorm-histogram": ({"subordinator": HALF_STABLE, "mc": {"n": 4, "seed": 3}, "horizons": {"T": 50.0},
                          "bins": {"half_width": 4.0, "per_axis": 2}},
                         "renorm_histogram.csv", "c0,c1,c2,mass,stderr"),
    "fke-residual": ({"kernel": GAUSS1, "subordinator": HALF_STABLE, "horizons": {"T": 0.5, "dt": 0.05},
                      "tolerances": {"t_min": 0.2}}, "fke_residual.csv", "dt,residual"),
}


def test_every_experiment_has_a_run_case():
    assert sorted(RUNS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_experiment_runs_and_its_manifest_reruns(tmp_path, capsys, name):
    body, artifact, header = RUNS[name]
    cfg = write_cfg(tmp_path, "cfg", experiment=name, output="run", **body)
    assert run_cli(["run", cfg, "--out", tmp_path / "first"]) == 0
    first = tmp_path / "first" / f"run_{artifact}"
    assert json.loads(capsys.readouterr().out)["artifacts"] == [str(first)]
    assert sorted(p.name for p in (tmp_path / "first").iterdir()) == sorted([first.name, "run_manifest.json"])
    if artifact.endswith(".csv"):
        assert first.read_text().splitlines()[0] == header
    else:
        assert sorted(json.loads(first.read_text())) == header
    manifest = json.loads((tmp_path / "first" / "run_manifest.json").read_text())
    manifest.pop("artifacts")
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(manifest))
    assert run_cli(["run", rerun, "--out", tmp_path / "second"]) == 0
    assert (tmp_path / "second" / first.name).read_bytes() == first.read_bytes()


def test_readme_family_table_lists_every_family_and_its_params():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {tuple(cell.split("`")[1] for cell in line.split("|")[1:3]): line
            for line in readme.splitlines() if line.startswith("| `") and line.split("`")[1] in cli._FAMILIES}
    for section, families in cli._FAMILIES.items():
        for name, (_, defaults, _) in families.items():
            assert (section, name) in rows, f"{section} family {name} is missing from the README's family table"
            assert all(f"`{key}` ({default:g})" in rows[section, name] for key, default in defaults.items())


def test_readme_table_lists_every_experiment_and_its_artifact():
    # each row states the experiment's sections, and its tolerance and horizon keys with their defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line.split("|") for line in readme.splitlines() if line.startswith("| `")}
    for name, (_, artifact, _) in RUNS.items():
        assert name in rows, f"{name} is missing from the README's experiment table"
        _, _, artifact_cell, reads, *cells = rows[name]
        assert f"_{artifact}" in artifact_cell
        exp = EXPERIMENTS[name]
        assert set(re.findall(r"`(\w+)`", reads)) == set(exp.reads), name
        for cell, defaults in zip(cells, (exp.tolerances, exp.horizons)):
            assert set(re.findall(r"`(\w+)`", cell)) == set(defaults), (name, cell)
            written = dict(re.findall(r"`(\w+)` (\[[^\]]*\]|[^,]+)", cell))
            for key, default in defaults.items():
                if written[key].startswith("["):
                    assert json.loads(written[key]) == default, (name, key)
                elif not isinstance(default, list):
                    assert float(written[key]) == default, (name, key)


# ---------------------------------------------------------------------------
# the experiment table is the schema: a run accepts only what it reads, and
# validate makes every config check run makes
# ---------------------------------------------------------------------------

# a value of each section that load_config accepts where it is read
SAMPLES = {
    "kernel": {"family": "gaussian"}, "grid": {"N": 32, "L": 8.0}, "subordinator": {"family": "stable"},
    "f": {"family": "kernel"}, "mc": {"n": 10, "seed": 1}, "bins": {"per_axis": 4}, "point": [0.0],
    "tolerances": {"lam": 0.5}, "horizons": {"T": 1.0},
}
PAIRS = [(name, section) for name in sorted(EXPERIMENTS) for section in SAMPLES]
UNREAD = [(name, section) for name, section in PAIRS if section not in EXPERIMENTS[name].sections]
READ = [(name, section) for name, section in PAIRS if section in EXPERIMENTS[name].sections]


def test_the_table_reads_58_sections_and_128_values():
    # every (experiment, section) pair and settable value load_config accepts, out of 15 x 9 and 15 x 28
    assert set(SAMPLES) == {*cli._SECTION_KEYS, "point", "tolerances", "horizons"}
    assert (len(READ), len(UNREAD)) == (58, 77)
    sizes = {**{section: len(keys) for section, keys in cli._SECTION_KEYS.items()}, "point": 1}

    def settable(exp):  # output, then each key of each section it reads
        return 1 + sum(sizes[s] if s in sizes else len(getattr(exp, s)) for s in exp.sections)

    assert sum(map(settable, EXPERIMENTS.values())) == 128


@pytest.mark.parametrize("name, section", UNREAD, ids=[f"{name}-{section}" for name, section in UNREAD])
def test_validate_refuses_a_section_the_run_does_not_read(tmp_path, capsys, name, section):
    cfg = write_cfg(tmp_path, "unread", experiment=name, **{section: SAMPLES[section], **RUNS[name][0]})
    assert run_cli(["validate", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ConfigError", "message": f"experiment {name!r} reads no {section}"}


@pytest.mark.parametrize("name, section", READ, ids=[f"{name}-{section}" for name, section in READ])
def test_validate_accepts_each_section_the_run_reads(tmp_path, name, section):
    body = RUNS[name][0]
    exp = EXPERIMENTS[name]
    sample = {"point": [0.0] * body.get("kernel", {}).get("dim", 3),
              "tolerances": dict(list(exp.tolerances.items())[:1]),
              "horizons": dict(list(exp.horizons.items())[:1])}.get(section, SAMPLES[section])
    assert run_cli(["validate", write_cfg(tmp_path, "read", experiment=name, **{section: sample, **body})]) == 0


STABLE = {"family": "stable"}
MC = {"n": 10, "seed": 1}
T_GRID_RULE = "horizon 'T_grid' must be a non-empty, strictly increasing array of positive finite times"


@pytest.mark.parametrize("body, message", [
    ({"experiment": "rho"}, "this experiment needs a subordinator section"),
    ({"experiment": "fit-expansion", "kernel": {"family": "gaussian", "dim": 0}},
     ("InvalidInputError", "d must be an integer with d >= 1")),
    ({"experiment": "validate-kernel", "grid": {"N": 64}}, "grid needs both N and L"),
    ({"experiment": "potential", "point": [0.0]}, "point must be a list of 3 coordinates (the kernel dim)"),
    ({"experiment": "potential", "point": ["0.5", True, 0]}, "point must be a list of 3 coordinates (the kernel dim)"),
    ({"experiment": "potential", "kernel": {"family": "cauchy"}, "point": [0.0, 0.0, 0.0]},
     "point must be a list of 1 coordinates (the kernel dim)"),
    ({"experiment": "rho", "subordinator": STABLE, "horizons": {"T_grid": [True, "2"]}},
     "horizons.T_grid must be a JSON array of numbers"),
    ({"experiment": "subordinate-solve", "subordinator": STABLE, "horizons": {"T_grid": [0.5, "2"]}},
     "horizons.T_grid must be a JSON array of numbers"),
    ({"experiment": "gfd", "subordinator": STABLE, "horizons": {"T": [2.0]}}, "horizons.T must be a JSON number"),
    # an empty T_grid used to give a header-only CSV (rho, subordinate-solve) and exit 0
    *(({"experiment": name, "subordinator": STABLE, "horizons": {"T_grid": []}}, T_GRID_RULE)
      for name in ("rho", "subordinate-solve", "renorm-curve")),
    # round(T / dt) = 0 steps used to be refused at run time as too few f_samples, and dt = 0
    # to end in a ZeroDivisionError traceback
    ({"experiment": "gfd", "subordinator": STABLE, "horizons": {"T": 0.001, "dt": 0.01}},
     "horizons.T / horizons.dt must round to a finite step count of at least 2"),
    *(({"experiment": name, "subordinator": STABLE, "horizons": {"dt": 0.0}},
       "horizon 'dt' must be a positive finite time") for name in ("gfd", "fke-residual")),
    # fke_residual refused these at run time only: a t_grid of three times, and t_min past its
    # last interior time 0.04
    ({"experiment": "fke-residual", "subordinator": STABLE, "horizons": {"T": 0.015, "dt": 0.01}},
     "horizons.T / horizons.dt must round to a finite step count of at least 3"),
    ({"experiment": "fke-residual", "subordinator": STABLE, "horizons": {"T": 0.05, "dt": 0.01},
      "tolerances": {"t_min": 0.045}},
     "tolerances.t_min must be at most the last interior time, horizons.dt * (round(horizons.T / horizons.dt) - 1)"),
    # validate passed each of the rest, and run refused it: the horizons
    ({"experiment": "renorm-curve", "subordinator": STABLE, "horizons": {"T_grid": [4.0, 2.0]}}, T_GRID_RULE),
    *(({"experiment": name, "subordinator": STABLE, "horizons": {"T_grid": [t]}}, T_GRID_RULE)
      for name, t in (("rho", -1.0), ("rho", 0.0), ("subordinate-solve", 0.0))),
    ({"experiment": "renorm-histogram", "subordinator": STABLE, "mc": MC, "horizons": {"T": -5.0}},
     "horizon 'T' must be a positive finite time"),
    ({"experiment": "mc-potential", "mc": MC, "horizons": {"T": 0.0}}, "horizon 'T' must be a positive finite time"),
    # the sections, each refused by its builder
    ({"experiment": "rho", "subordinator": {"family": "stable", "params": {"alpha": 1.5}}},
     ("InvalidInputError", "alpha must be in (0, 1)")),
    ({"experiment": "rho", "subordinator": {"family": "gamma", "params": {"a": -1.0}}},
     ("InvalidInputError", "a must be finite and positive")),
    ({"experiment": "random-green", "bins": {"per_axis": 0}, "mc": MC},
     ("InvalidInputError", "shape must be an integer with shape >= 1")),
    ({"experiment": "mc-potential", "mc": {"n": 1, "seed": 1}},
     ("InvalidInputError", "n must be an integer with n >= 2")),
    ({"experiment": "mc-potential", "mc": {"n": 10, "seed": -1}},
     ("InvalidInputError", "seed must be an integer with seed >= 0")),
    ({"experiment": "green-series", "grid": {"N": 100, "L": 16.0}},
     ("InvalidInputError", "points_per_axis must be a power of two")),
    # with no grid section, the radial rule's dimension error, not one about a default grid the config never set
    ({"experiment": "green-fourier", **DIM4},
     ("InvalidInputError", "kernel.dim must be 1, 2 or 3 for the radial Fourier rule, not 4")),
    # the library's gates on a config value, which the builders call
    ({"experiment": "fit-expansion", "tolerances": {"k_min": 0.1, "k_max": 0.01}},
     ("InvalidInputError", "k_min, k_max must be finite with 0 < k_min < k_max")),
    ({"experiment": "subordinator-check", "subordinator": STABLE, "tolerances": {"s0": 1e303}},
     ("InvalidInputError", "s0 must be positive, with s0 / 1e-6 a finite float")),
    ({"experiment": "subordinate-solve", "kernel": GAUSS1, "subordinator": STABLE, "point": [50.0]},
     ("InvalidInputError", "x must be finite and inside the box [-L, L)^d")),
    # Python's json reads Infinity, which the run's green_regular_series refused
    ({"experiment": "green-series", "tolerances": {"lam": float("inf")}}, "tolerance 'lam' must be a positive number"),
    # the gates of the computations a run needs (EXPERIMENTS' gates): validate passed these, and
    # run refused them before computing anything
    ({"experiment": "green-series", "kernel": GAUSS1},
     ("DivergentGreenMeasureError", "Green measure diverges: d = 1 <= alpha = 2.0")),
    ({"experiment": "potential", "kernel": {"family": "cauchy"}, "point": [0.0]},
     ("DivergentGreenMeasureError", "Green measure diverges: d = 1 <= alpha = 1.0")),
    ({"experiment": "renorm-curve", "kernel": {"dim": 1}, "subordinator": STABLE},
     ("DivergentGreenMeasureError", "Green measure diverges: d = 1 <= alpha = 2.0")),
    ({"experiment": "potential", **DIM4},
     ("InvalidInputError", "kernel.dim must be 1, 2 or 3 for the radial Fourier rule, not 4")),
    # a start outside the bins deposits its occupation as escaped mass: both commands accept it
    ({"experiment": "random-green", "kernel": GAUSS1, "point": [100.0], "mc": MC}, None),
], ids=["rho-no-subordinator", "kernel-dim-0", "grid-without-L", "point-of-one", "point-not-numbers",
        "cauchy-point-of-three", "T_grid-bool-and-string", "T_grid-string", "T-array", "rho-empty-T_grid",
        "subordinate-solve-empty-T_grid", "renorm-curve-empty-T_grid", "gfd-no-step", "gfd-dt-0", "fke-dt-0",
        "fke-two-steps", "fke-t_min-past-the-grid", "renorm-curve-T_grid-decreasing", "rho-T_grid-negative",
        "rho-T_grid-zero", "subordinate-solve-T_grid-zero", "renorm-histogram-T-negative", "mc-potential-T-zero",
        "rho-stable-alpha-1.5", "rho-gamma-a-negative", "random-green-bins-per-axis-0", "mc-potential-n-1",
        "mc-potential-seed-negative", "green-series-N-100", "green-fourier-dim-4-no-grid",
        "fit-expansion-k_min-above-k_max", "subordinator-check-s0-1e303", "subordinate-solve-point-outside-the-box",
        "green-series-lam-infinite", "green-series-dim-1", "potential-cauchy", "renorm-curve-dim-1",
        "potential-dim-4", "random-green-start-outside-the-bins"])
def test_validate_gives_the_verdict_run_gives(tmp_path, capsys, body, message):
    cfg = write_cfg(tmp_path, "bad", output="bad", **body)
    verdicts = []
    for command in (["validate", cfg], ["run", cfg, "--out", tmp_path]):
        code = run_cli(command)
        verdicts.append((code, json.loads(capsys.readouterr().out).get("error")))
    if message is None:
        assert verdicts == [(0, None)] * 2
        return
    kind, message = message if isinstance(message, tuple) else ("ConfigError", message)
    assert verdicts == [(1, {"type": kind, "message": message})] * 2
    assert list(tmp_path.glob("bad_*")) == []


def test_load_config_builds_exactly_the_sections_each_experiment_reads(tmp_path, monkeypatch):
    # each builder and gate is replaced by one that records its name; a run that reads horizons.dt
    # also builds its steps
    built = []
    for name in (*cli._SECTION_KEYS, "point", "steps", "green_measure", "radial_rule"):
        monkeypatch.setattr(cli._Inputs, name, property(lambda inp, name=name: built.append(name)))
    for experiment, (body, _, _) in RUNS.items():
        built.clear()
        load_config(write_cfg(tmp_path, experiment, experiment=experiment, **body))
        exp = EXPERIMENTS[experiment]
        assert built == [*exp.reads, *exp.gates, *["steps"] * ("dt" in exp.horizons)], experiment
