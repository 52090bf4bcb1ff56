"""tools/same_artifacts.py against two stub checkouts whose greenwalk.cli writes fixed artifacts."""

import importlib.util
import json
from pathlib import Path

import pytest

from greenwalk.cli import EXPERIMENTS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_artifacts.py"

# called as python -m greenwalk.cli run CONFIG --out DIR
STUB = '''
import json, os, sys
from pathlib import Path
cfg = json.loads(Path(sys.argv[2]).read_text())
out = Path(sys.argv[4])
stub = json.loads((Path(__file__).resolve().parents[2] / "stub.json").read_text())
with open(os.environ["STUB_LOG"], "a") as fh:
    fh.write(json.dumps([stub["side"], cfg["output"]]) + "\\n")
run_id = cfg["output"]
if run_id in stub.get("crash", []):
    print(json.dumps({"error": {"type": "ConfigError", "message": "stub refuses " + run_id}}))
    sys.exit(1)
artifact = out / f"{run_id}_{cfg['experiment']}.csv"
artifact.write_text(stub.get("values", {}).get(run_id, "1.0") + "\\n")
if run_id in stub.get("extra", []):
    (out / f"{run_id}_extra.csv").write_text("2.0\\n")
manifest = {**cfg, "artifacts": [str(artifact)]}
(out / f"{run_id}_manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
'''


@pytest.fixture
def tool(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("same_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "calls.log"))
    return module


def _checkout(root: Path, side: str, **stub) -> Path:
    d = root / side
    (d / "src" / "greenwalk").mkdir(parents=True)
    (d / "src" / "greenwalk" / "__init__.py").write_text("")
    (d / "src" / "greenwalk" / "cli.py").write_text(STUB)
    (d / "stub.json").write_text(json.dumps({"side": side, **stub}))
    return d


def _run(tool, monkeypatch, capsys, tmp_path, change_stub=None, parent_stub=None):
    # three of the 45 runs: each stub run starts a Python process
    monkeypatch.setattr(tool, "RUNS", [r for r in tool.RUNS if r[0] in ("potential", "gfd", "rho-gamma")])
    code = tool.main([str(_checkout(tmp_path, "parent", **(parent_stub or {}))),
                      str(_checkout(tmp_path, "change", **(change_stub or {})))])
    calls = [tuple(json.loads(line)) for line in (tmp_path / "calls.log").read_text().splitlines()]
    return code, capsys.readouterr().out, calls


def test_every_experiment_has_a_run(tool):
    assert {experiment for _, experiment, _ in tool.RUNS} == set(EXPERIMENTS)
    cfgs = {run_id: sections for run_id, _, sections in tool.RUNS}
    assert len(cfgs) == len(tool.RUNS) == 45
    # the Talbot-inverted curve, an off-centre potential, two runs of the Kanter rule, and a
    # green-series and a validate-kernel on a box whose coordinates do not mirror, beside the defaults
    assert cfgs["renorm-curve-stable07"] == {"subordinator": {"family": "stable", "params": {"alpha": 0.7}}}
    assert cfgs["rho-stable07"] == {"subordinator": {"family": "stable", "params": {"alpha": 0.7}}}
    assert cfgs["renorm-histogram-stable09"] == {"subordinator": {"family": "stable", "params": {"alpha": 0.9}},
                                                 "mc": {"n": 200, "seed": 11}}
    assert cfgs["potential-off-centre"] == {"point": [20.0, 0.0, 0.0]}
    assert cfgs["green-series-unmirrored"] == {"grid": {"N": 64, "L": 15.3}}
    assert cfgs["validate-kernel-unmirrored"] == {"grid": {"N": 64, "L": 15.3}}
    assert {run_id for run_id, cfg in cfgs.items() if "mc" in cfg} == {
        f"{name}{suffix}" for name in ("mc-potential", "random-green", "renorm-histogram")
        for suffix in ("", "-set")} | {"renorm-histogram-gamma", "renorm-histogram-stable09", "mc-potential-cauchy",
                                       "random-green-cauchy"}
    assert all(cfg["mc"] == {"n": 200, "seed": 11} for cfg in cfgs.values() if "mc" in cfg)
    gamma = {run_id for run_id, cfg in cfgs.items() if cfg.get("subordinator", {}).get("family") == "gamma"}
    assert gamma == {f"{name}-gamma" for name in ("subordinator-check", "rho", "gfd", "subordinate-solve",
                                                   "fke-residual", "renorm-histogram")}
    # the Cauchy kernel runs where it can: its 1-D Green measure diverges, so only at lam > 0
    cauchy = {run_id: cfg for run_id, cfg in cfgs.items() if cfg.get("kernel", {}).get("family") == "cauchy"}
    assert set(cauchy) == {f"{name}-cauchy" for name in ("validate-kernel", "fit-expansion", "green-fourier",
                                                          "mc-potential", "random-green")}
    assert cauchy["green-fourier-cauchy"]["tolerances"] == {"lam": 0.5}
    # each experiment with tolerances or horizons runs once more with every one of them off its default
    overrides = {run_id[:-len("-set")]: cfg for run_id, cfg in cfgs.items() if run_id.endswith("-set")}
    assert set(overrides) == {name for name, exp in EXPERIMENTS.items() if exp.tolerances or exp.horizons}
    assert len(overrides) == 13
    for name, cfg in overrides.items():
        for section in ("tolerances", "horizons"):
            defaults = getattr(EXPERIMENTS[name], section)
            assert set(cfg.get(section, {})) == set(defaults), (name, section)
            assert all(cfg[section][key] != default for key, default in defaults.items()), (name, section)


def test_identical_checkouts_pass(tool, monkeypatch, capsys, tmp_path):
    code, out, calls = _run(tool, monkeypatch, capsys, tmp_path)
    assert code == 0, out
    # the manifests name different output directories, which the comparison normalises
    assert "3 runs, 0 failed; 6 files compared, 0 differ" in out
    assert sorted(calls) == sorted((side, run_id) for run_id in ("potential", "gfd", "rho-gamma")
                                   for side in ("parent", "change"))


@pytest.mark.parametrize("stub, differs", [
    ({"values": {"rho-gamma": "1.0000000000000002"}}, "rho-gamma/rho-gamma_rho.csv"),
    ({"extra": ["potential"]}, "potential/potential_extra.csv"),
], ids=["value", "extra-file"])
def test_a_differing_file_is_named(tool, monkeypatch, capsys, tmp_path, stub, differs):
    code, out, _ = _run(tool, monkeypatch, capsys, tmp_path, stub)
    assert code == 1
    assert f"differs: {differs}" in out and "3 runs, 0 failed" in out and "1 differ" in out


def test_a_failed_run_fails_and_the_others_still_run(tool, monkeypatch, capsys, tmp_path):
    code, out, calls = _run(tool, monkeypatch, capsys, tmp_path, {"crash": ["gfd"]})
    assert code == 1
    assert "gfd: change run failed (exit 1: " in out and "stub refuses gfd" in out
    assert len(calls) == 6
    assert "3 runs, 1 failed; 4 files compared, 0 differ" in out


def test_a_differing_csv_prints_its_largest_relative_difference_per_column(tool, monkeypatch, capsys, tmp_path):
    # a last-digit move in one numeric column; the label column and the unchanged one read apart
    parent = {"values": {"gfd": "label,T,value\na,2.0,1.0\nb,4.0,3.0", "rho-gamma": "x\n1.0"}}
    change = {"values": {"gfd": "label,T,value\na,2.0,1.0000000000001\nb,4.0,3.0", "rho-gamma": "x\n1.0\n2.0"}}
    code, out, _ = _run(tool, monkeypatch, capsys, tmp_path, change, parent)
    assert code == 1
    assert "  gfd_gfd.csv: largest relative difference T 0, value 1e-13\n" in out
    # a row count that differs gets no per-column line
    assert "differs: rho-gamma/rho-gamma_rho.csv" in out and "rho-gamma_rho.csv: largest" not in out


def test_column_gaps(tool, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("T,value,note\n1.0,0.0,x\n2.0,nan,y\n")
    b.write_text("T,value,note\n1.0,-0.0,x\n2.5,nan,z\n")
    assert tool.column_gaps(a, b) == {"T": 0.2, "value": 0.0}
    b.write_text("T,other,note\n1.0,0.0,x\n2.0,nan,y\n")
    assert tool.column_gaps(a, b) is None
    b.write_text("T,value,note\n1.0,inf,x\n2.0,nan,y\n")
    assert tool.column_gaps(a, b)["value"] == float("inf")
