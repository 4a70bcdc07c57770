import json
import os
import re
import subprocess
import sys

import pytest

from treebsde.cli import main
from treebsde.experiments import (
    EXPERIMENTS,
    ConfigValidationError,
    config_hash,
    run_directory,
    validate_config,
)


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
