"""Command-line runner tests: strict configs, artifacts, reproducibility."""

import json
from pathlib import Path

import pytest

from greenwalk.cli import EXPERIMENTS, list_experiments, load_config, main
from greenwalk.errors import ConfigError


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
    p = write_cfg(tmp_path, "bad", experiment="potential", tolerances={"lam": -1.0})
    with pytest.raises(ConfigError):
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


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "mc", experiment="mc-potential",
                    kernel={"family": "gaussian", "dim": 3},
                    mc={"n": 100, "seed": 1},
                    horizons={"T": 5.0},
                    output="ov")
    assert run_cli(["run", cfg, "--out", tmp_path / "base"]) == 0
    monkeypatch.setenv("GREENWALK_SEED", "2")
    assert run_cli(["run", cfg, "--out", tmp_path / "env"]) == 0
    base = (tmp_path / "base" / "ov_mc_potential.csv").read_text()
    env = (tmp_path / "env" / "ov_mc_potential.csv").read_text()
    assert base != env
    manifest = json.loads((tmp_path / "env" / "ov_manifest.json").read_text())
    assert manifest["mc"]["seed"] == 2


def test_subordinator_check_run(tmp_path):
    cfg = write_cfg(tmp_path, "sub", experiment="subordinator-check",
                    subordinator={"family": "stable", "params": {"alpha": 0.5}},
                    output="sub")
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "sub_subordinator.json").read_text())
    assert report["H_passed"] is True
