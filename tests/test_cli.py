import glob
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from treebsde import problems
from treebsde.cli import main
from treebsde.experiments import (
    EXPERIMENTS,
    ConfigValidationError,
    accepted_fields,
    config_hash,
    load_config,
    run_directory,
    run_experiment,
    validate_config,
)
from treebsde.lattice import TimeGrid, build_tree
from treebsde.master import master_residual

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "scripts", "configs")


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def illposed_doc(tmp_path, **over):
    doc = {"experiment": "illposed-demo", "seed": 7, "n": 4,
           "output_dir": str(tmp_path / "runs")}
    doc.update(over)
    return doc


# ---------------------------------------------------------------------------
# config validation


def test_validate_fills_defaults():
    cfg = validate_config({"experiment": "illposed-demo", "seed": 0})
    assert cfg.output_dir == "runs"
    assert cfg.T == 1.0 and cfg.n == 8 and cfg.mode == "path"
    assert cfg.c is None


def test_validate_collects_field_diagnostics():
    with pytest.raises(ConfigValidationError) as exc:
        validate_config({"experiment": "nope", "T": "big", "bogus": 1})
    msgs = "\n".join(exc.value.messages)
    assert "field 'seed': required" in msgs
    assert "field 'T': expected number" in msgs
    assert "field 'bogus': unknown" in msgs
    assert "field 'experiment': unknown 'nope'" in msgs
    assert "illposed-demo" in msgs  # the valid listing is spelled out


def test_validate_rejects_bool_and_float_for_int_fields():
    with pytest.raises(ConfigValidationError, match="'n'"):
        validate_config({"experiment": "illposed-demo", "seed": 0, "n": True})
    with pytest.raises(ConfigValidationError, match="'seed'"):
        validate_config({"experiment": "illposed-demo", "seed": 1.5})


def test_validate_bounds_and_mode():
    with pytest.raises(ConfigValidationError, match="'mode'"):
        validate_config({"experiment": "illposed-demo", "seed": 0, "mode": "diag"})
    with pytest.raises(ConfigValidationError, match="'T'"):
        validate_config({"experiment": "illposed-demo", "seed": 0, "T": -1.0})
    with pytest.raises(ConfigValidationError, match="refinements"):
        validate_config({"experiment": "illposed-demo", "seed": 0,
                         "refinements": [4, "x"]})


def test_config_hash_ignores_output_dir_and_orders_keys():
    a = validate_config({"experiment": "illposed-demo", "seed": 7, "n": 4,
                         "output_dir": "/tmp/a"})
    b = validate_config({"output_dir": "/tmp/b", "n": 4, "seed": 7,
                         "experiment": "illposed-demo"})
    assert config_hash(a) == config_hash(b)
    assert run_directory(a).endswith(f"illposed-demo-7-{config_hash(a)}")
    c = validate_config({"experiment": "illposed-demo", "seed": 8, "n": 4})
    assert config_hash(c) != config_hash(a)


# ---------------------------------------------------------------------------
# CLI surface


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_validate_command_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, illposed_doc(tmp_path))
    assert main(["validate", good]) == 0
    bad = write_config(tmp_path, {"experiment": "illposed-demo"}, "bad.json")
    assert main(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert "field 'seed': required" in err
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_run_unknown_experiment_lists_identifiers(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "mystery", "seed": 0})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    for name in EXPERIMENTS:
        assert name in err


def test_run_illposed_demo_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, illposed_doc(tmp_path))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "PASS gap-equals-horizon" in out
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    report = json.loads((run_dirs[0] / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["experiment"] == "illposed-demo"
    gap = [c for c in report["checks"] if c["name"] == "gap-equals-horizon"][0]
    assert gap["value"] == 1.0  # the horizon, exactly
    assert sorted(report["artifacts"]) == ["gap.csv", "report.json"]


def test_report_json_sorted_keys_and_trailing_newline(tmp_path):
    path = write_config(tmp_path, illposed_doc(tmp_path))
    assert main(["run", path]) == 0
    raw = next((tmp_path / "runs").iterdir()).joinpath("report.json").read_text(
        encoding="utf-8")
    assert raw.endswith("\n")
    doc = json.loads(raw)
    assert raw == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, illposed_doc(tmp_path))
    assert main(["run", path]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    first = {f.name: f.read_bytes() for f in run_dir.iterdir()}
    assert main(["run", path]) == 0
    second = {f.name: f.read_bytes() for f in run_dir.iterdir()}
    assert first == second
    assert set(first) == {"report.json", "gap.csv"}


def test_csv_format_twelve_significant_digits(tmp_path):
    path = write_config(tmp_path, illposed_doc(tmp_path))
    assert main(["run", path]) == 0
    raw = next((tmp_path / "runs").iterdir()).joinpath("gap.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "psi_1,psi_2,gap,sup_term_1,sup_term_2"
    for cell in lines[1].split(","):
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", cell)


def test_failing_check_exits_one(tmp_path, capsys):
    doc = {"experiment": "static-value", "seed": 0, "benchmark": "deterministic",
           "T": 2.0, "n": 4, "mode": "recombining", "eps": 1e-9,
           "output_dir": str(tmp_path / "runs")}
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL value-within-tolerance" in out
    report = json.loads(
        next((tmp_path / "runs").iterdir()).joinpath("report.json").read_text(
            encoding="utf-8"))
    assert report["passed"] is False


def test_runtime_error_exits_two(tmp_path, capsys):
    # a path tree this deep exceeds the hard size guard -> runtime error, not a crash
    doc = {"experiment": "benchmark-verify", "seed": 0, "benchmark": "one_dim",
           "T": 2.4, "n": 30, "output_dir": str(tmp_path / "runs")}
    path = write_config(tmp_path, doc)
    assert main(["run", path]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_module_entry_point_runs():
    # pytest's pythonpath setting reaches this process only, not a subprocess
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "treebsde", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "illposed-demo" in proc.stdout


def test_validate_rejects_illposed_demo_above_ten_steps():
    with pytest.raises(ConfigValidationError,
                       match="field 'n': illposed-demo runs on at most 10 tree steps"):
        validate_config({"experiment": "illposed-demo", "seed": 0, "n": 11})
    assert validate_config({"experiment": "illposed-demo", "seed": 0, "n": 10}).n == 10
    # the limit belongs to illposed-demo alone
    assert validate_config({"experiment": "master-residual", "seed": 0, "n": 11}).n == 11


def test_validate_rejects_the_dead_t1_and_t2_fields():
    for key in ("t1", "t2"):
        with pytest.raises(ConfigValidationError, match=f"field '{key}': unknown"):
            validate_config({"experiment": "forward-dpp", "seed": 0, key: 1})


def test_validate_limits_dynamic_utility_linear_paths():
    doc = {"experiment": "dynamic-utility-linear", "seed": 0}
    assert validate_config({**doc, "mc_paths": 2000}).mc_paths == 2000
    with pytest.raises(ConfigValidationError, match=r"^field 'mc_paths': .*dense Euler "
                       r"ensemble.* at most 2000 paths, got 2001$"):
        validate_config({**doc, "mc_paths": 2001})
    with pytest.raises(ConfigValidationError,
                       match="at most 2000 paths, the default 10000 exceeds it$"):
        validate_config(doc)
    # the limit belongs to dynamic-utility-linear alone
    assert validate_config({"experiment": "tau-bound", "seed": 0}).mc_paths == 10000


def test_run_prints_each_value_and_only_the_bounds_a_check_has(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, illposed_doc(tmp_path))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["PASS gap-equals-horizon value=1 bound=1e-12",
                         "PASS shared-derivative-sup-identical value=[0, 0]",
                         "PASS witness value=1"]
    doc = {"experiment": "master-residual", "seed": 0, "output_dir": str(tmp_path)}
    assert main(["run", write_config(tmp_path, doc, "master.json")]) == 0
    assert re.search(r"^PASS halving-ratio-4-to-8 value=1\.\d+ bound=\[1\.5, 3\]$",
                     capsys.readouterr().out, re.MULTILINE)


# ---------------------------------------------------------------------------
# per-experiment field sets

# one small config per (experiment, benchmark) branch of the field table
TINY_BRANCHES = {
    ("static-value", ""): {"T": 2.0, "n": 4},
    ("static-value", "deterministic"): {"T": 2.0, "n": 4, "mode": "recombining"},
    ("static-value", "one_dim"): {"T": 2.4, "n": 2},
    ("static-value", "mean_variance"): {"n": 2},
    ("static-value", "principal_agent"): {"n": 2},
    ("benchmark-verify", ""): {"T": 2.0, "n": 4},
    ("benchmark-verify", "deterministic"): {"T": 2.0, "n": 4},
    ("benchmark-verify", "one_dim"): {"T": 2.4, "n": 2},
    ("benchmark-verify", "mean_variance"): {"n": 6},
    ("benchmark-verify", "principal_agent"): {"n": 4},
    ("duality", ""): {"n": 2, "dx": 0.25, "dy": 0.25},
    ("duality", "deterministic"): {"T": 2.0, "n": 4, "dy": 0.1, "value_tol": 0.5},
    ("geometric-dpp", ""): {"refinements": [2, 3]},
    ("dynamic-utility-linear", ""): {"mc_paths": 20},
    ("tau-bound", ""): {"mc_paths": 20},
    ("forward-dpp", ""): {"pairs": 2},
    ("master-residual", ""): {"n": 4},
    ("illposed-demo", ""): {"n": 2},
}


class _Recorder:
    """Hands out a config's fields and remembers which ones were read."""

    def __init__(self, cfg):
        self._cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


def _branches():
    for name, exp in sorted(EXPERIMENTS.items()):
        for bench in sorted(exp.fields):
            yield name, bench


@pytest.mark.parametrize("experiment,bench", list(_branches()))
def test_each_branch_declares_exactly_the_fields_its_runner_reads(
        experiment, bench, tmp_path):
    doc = {"experiment": experiment, "seed": 0, "output_dir": str(tmp_path),
           **TINY_BRANCHES[experiment, bench]}
    if bench:
        doc["benchmark"] = bench
    rec = _Recorder(validate_config(doc))
    EXPERIMENTS[experiment].runner(rec, str(tmp_path))
    assert rec.read - {"seed"} == set(accepted_fields(experiment, bench))


def test_every_shipped_config_validates():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.json")))
    assert len(paths) == 14
    for path in paths:
        load_config(path)


def test_validate_rejects_fields_the_experiment_does_not_read():
    with pytest.raises(ConfigValidationError, match=r"^field 'T': tau-bound does not "
                       r"read it \(accepted: mc_paths, steps\)$"):
        validate_config({"experiment": "tau-bound", "seed": 0, "T": 2.0})
    with pytest.raises(ConfigValidationError, match=r"^field 'eps': benchmark-verify "
                       r"with benchmark 'one_dim' does not read it \(accepted: T, "
                       r"benchmark, c, cap, d, n\)$"):
        validate_config({"experiment": "benchmark-verify", "seed": 0,
                         "benchmark": "one_dim", "eps": 0.1})
    for key, value in (("eps", 0.01), ("mode", "path")):
        with pytest.raises(ConfigValidationError,
                           match=f"^field '{key}': duality with benchmark '' does not"):
            validate_config({"experiment": "duality", "seed": 0, key: value})
    for key in ("n", "T"):
        with pytest.raises(ConfigValidationError,
                           match=f"^field '{key}': dynamic-utility-linear does not"):
            validate_config({"experiment": "dynamic-utility-linear", "seed": 0,
                             "mc_paths": 100, key: 1})


def test_validate_accepts_only_the_two_duality_flavours():
    for bench in ("", "deterministic"):
        doc = {"experiment": "duality", "seed": 0, "benchmark": bench}
        assert validate_config(doc).benchmark == bench
    with pytest.raises(ConfigValidationError, match=r"^field 'benchmark': duality has "
                       r"no branch 'one_dim' \(valid: '', 'deterministic'\)$"):
        validate_config({"experiment": "duality", "seed": 0, "benchmark": "one_dim"})
    with pytest.raises(ConfigValidationError, match="static-value has no branch 'nope'"):
        validate_config({"experiment": "static-value", "seed": 0, "benchmark": "nope"})


def test_validate_steps_defaults_to_4096_and_must_be_positive():
    assert validate_config({"experiment": "tau-bound", "seed": 0}).steps == 4096
    with pytest.raises(ConfigValidationError, match="^field 'steps': must be >= 1$"):
        validate_config({"experiment": "tau-bound", "seed": 0, "steps": 0})


def test_master_residual_halves_dt_around_n(tmp_path):
    def ladder(n):
        cfg = validate_config({"experiment": "master-residual", "seed": 0, "n": n,
                               "output_dir": str(tmp_path)})
        res = run_experiment(cfg)
        assert res.passed
        return [c["name"] for c in res.report["checks"]], res.report["details"]

    assert ladder(8)[0] == ["halving-ratio-4-to-8", "halving-ratio-8-to-16"]
    names, details = ladder(3)
    assert names == ["halving-ratio-3-to-6"]  # no 1.5-step tree
    # both trees measure at t = 1/3: level 1 of 3 steps, level 2 of 6
    tree = build_tree(TimeGrid(1.0, 6), d=1, mode="recombining")
    rep = master_residual(problems.control_free_problem(), tree,
                          problems.exp_cylinder(), level=2)
    assert details["residuals"][1] == abs(rep.residual)
    assert ladder(2)[0] == ["halving-ratio-2-to-4"]  # a 1-step tree has no level 1
    with pytest.raises(ConfigValidationError, match=r"^field 'n': master-residual "
                       r"needs at least 2 tree steps .*, got 1$"):
        validate_config({"experiment": "master-residual", "seed": 0, "n": 1})
    with pytest.raises(ConfigValidationError,
                       match="^field 'refinements': master-residual does not read it"):
        validate_config({"experiment": "master-residual", "seed": 0,
                         "refinements": [4, 8, 16]})


def test_validate_checks_mode_and_refinements_where_they_are_read():
    with pytest.raises(ConfigValidationError,
                       match="^field 'mode': must be 'path' or 'recombining'$"):
        validate_config({"experiment": "static-value", "seed": 0, "mode": "diag"})
    with pytest.raises(ConfigValidationError,
                       match="^field 'refinements': expected a list of integers$"):
        validate_config({"experiment": "geometric-dpp", "seed": 0,
                         "refinements": [4, "x"]})


def test_report_config_and_hash_cover_only_the_accepted_fields(tmp_path):
    cfg = validate_config(illposed_doc(tmp_path))
    report = run_experiment(cfg).report
    assert report["config"] == {"experiment": "illposed-demo", "seed": 7, "T": 1.0,
                                "n": 4, "output_dir": str(tmp_path / "runs")}
    blob = json.dumps({"T": 1.0, "experiment": "illposed-demo", "n": 4, "seed": 7},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert report["config_hash"] == hashlib.sha256(blob).hexdigest()[:8]


def test_witness_margin_records_its_tree_size(tmp_path):
    cfg = validate_config({"experiment": "benchmark-verify", "seed": 0,
                           "benchmark": "deterministic", "T": 2.0, "n": 4,
                           "output_dir": str(tmp_path)})
    check = {c["name"]: c for c in run_experiment(cfg).report["checks"]}[
        "witness-strict-margin"]
    assert check["n"] == 12 and check["value"] > 0


def test_list_prints_each_experiments_accepted_fields(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fields: mc_paths, steps" in out
    assert "benchmark 'deterministic': T, benchmark, dy, eps, n, value_tol" in out
