import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields as dc_fields

import pytest

from treebsde import dynutil, experiments, problems
from treebsde.benchmarks import BenchmarkError
from treebsde.cli import main
from treebsde.experiments import (
    EXPERIMENTS,
    ConfigValidationError,
    ExperimentConfig,
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-float-range"])
@pytest.mark.parametrize("doc,key", [
    ({"experiment": "forward-dpp"}, "T"),
    ({"experiment": "static-value", "benchmark": "deterministic"}, "eps"),
    ({"experiment": "duality", "benchmark": "deterministic"}, "value_tol"),
    ({"experiment": "duality"}, "dx"),
    ({"experiment": "duality"}, "dy"),
])
def test_validate_rejects_a_non_finite_float_field(tmp_path, capsys, doc, key, value):
    doc = {**doc, "seed": 0, key: value}
    with pytest.raises(ConfigValidationError, match=f"^field '{key}': must be finite$"):
        validate_config(doc)
    # json writes NaN and Infinity, which json.load reads back
    assert main(["validate", write_config(tmp_path, doc)]) == 2
    assert f"field '{key}': must be finite" in capsys.readouterr().err


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


def test_module_entry_point_prints_each_warning_once_without_a_location(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    doc = {"experiment": "benchmark-verify", "seed": 0, "benchmark": "one_dim",
           "T": 2.4, "n": 3, "output_dir": str(tmp_path / "runs")}
    proc = subprocess.run([sys.executable, "-m", "treebsde", "run",
                           write_config(tmp_path, doc)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1)
    lines = proc.stderr.splitlines()
    assert sum(line.startswith("warning: dt = 0.8 exceeds") for line in lines) == 1
    assert all(line.startswith("warning: ") for line in lines)
    assert "<frozen" not in proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("report: ")


def _report_bytes(result):
    with open(os.path.join(result.out_dir, "report.json"), "rb") as fh:
        return fh.read()


def test_report_lists_the_warnings_of_its_run_whatever_the_filters(tmp_path):
    cfg = validate_config({"experiment": "benchmark-verify", "seed": 0,
                           "benchmark": "one_dim", "T": 2.4, "n": 3,
                           "output_dir": str(tmp_path)})
    # passed on to the caller once, at the caller's line
    with pytest.warns(UserWarning, match="dt = 0.8 exceeds") as rec:
        result = run_experiment(cfg)
    assert [r.filename for r in rec] == [__file__]
    diagnostics = result.report["diagnostics"]
    assert len(diagnostics) == 1 and diagnostics[0].startswith(
        "dt = 0.8 exceeds the comparison-preserving bound")
    first = _report_bytes(result)
    assert b'"diagnostics": [' in first
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _report_bytes(run_experiment(cfg)) == first

    quiet = validate_config(illposed_doc(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(quiet)
    assert "diagnostics" not in result.report
    assert _report_bytes(run_experiment(quiet)) == _report_bytes(result)


def test_run_prints_warnings_raised_before_a_runtime_error(tmp_path, capsys, monkeypatch):
    def runner(cfg, out_dir):
        warnings.warn("first")
        warnings.warn("second")
        warnings.warn("first")
        raise ValueError("boom")

    monkeypatch.setitem(EXPERIMENTS, "illposed-demo",
                        EXPERIMENTS["illposed-demo"]._replace(runner=runner))
    assert main(["run", write_config(tmp_path, illposed_doc(tmp_path))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: first", "warning: second", "runtime error: boom"]


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
    # its own default is the limit, so the minimal config validates
    assert validate_config(doc).mc_paths == 2000
    # the limit belongs to dynamic-utility-linear alone
    assert validate_config({"experiment": "tau-bound", "seed": 0}).mc_paths == 10000


def test_validate_limits_dynamic_utility_linear_dense_floats():
    # the cap is on (steps + 1) x paths, the dense ratio's floats, not on paths
    doc = {"experiment": "dynamic-utility-linear", "seed": 0, "steps": 8192}
    for over in ({"mc_paths": 2000}, {}):  # given, or the default 2000
        with pytest.raises(ConfigValidationError, match=(
                r"^field 'mc_paths': .*dense Euler ensemble.* at most 8194000\) .*"
                r"at most 1000 paths at field 'steps' = 8192, got 2000$")):
            validate_config({**doc, **over})
    assert validate_config({**doc, "mc_paths": 1000}).steps == 8192
    with pytest.raises(ConfigValidationError, match="at most 8 paths at field 'steps'"):
        validate_config({**doc, "mc_paths": 2000, "steps": 1000000})


def test_run_prints_each_value_and_only_the_bounds_a_check_has(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, illposed_doc(tmp_path))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["PASS gap-equals-horizon value=1 bound=1e-12 target=1",
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
                       r"benchmark, n\)$"):
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


def test_forward_dpp_names_the_skipped_pairs_when_no_pair_is_checked(tmp_path, monkeypatch):
    def bound_check(name):
        cfg = validate_config({"experiment": "forward-dpp", "seed": 0, "pairs": 3,
                               "output_dir": str(tmp_path / name)})
        return next(c for c in run_experiment(cfg).report["checks"]
                    if c["name"] == "lipschitz-transport-bound")

    assert "reason" not in bound_check("drawn")
    check_lipschitz = experiments.check_lipschitz
    monkeypatch.setattr(experiments, "check_lipschitz", lambda p, tree, level, pairs:
                        check_lipschitz(p, tree, level, [(a, a) for a, _ in pairs]))
    check = bound_check("identical")
    assert (check["passed"], check["pairs"], check["reason"]) == (
        False, 0, "all 3 pairs closer than 1e-14; none checked")


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
    # not output_dir: the report lives in that directory
    assert report["config"] == {"experiment": "illposed-demo", "seed": 7, "T": 1.0,
                                "n": 4}
    blob = json.dumps(report["config"], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    assert report["config_hash"] == hashlib.sha256(blob).hexdigest()[:8]


def test_one_config_in_two_directories_writes_the_same_report(tmp_path):
    first, second = (run_experiment(validate_config(illposed_doc(tmp_path / where)))
                     for where in ("a", "elsewhere"))
    assert first.out_dir != second.out_dir
    assert (_read(first.out_dir, "report.json")
            == _read(second.out_dir, "report.json"))


def test_validate_rejects_the_removed_constant_fields():
    # each was a field no run set to a second value; problems.benchmark and the
    # runners now hold it as a constant
    assert len(dc_fields(ExperimentConfig)) == 15
    doc = {"experiment": "benchmark-verify", "seed": 0, "benchmark": "principal_agent"}
    for key in ("x0", "c", "gamma_a", "gamma_p", "r", "level", "tol"):
        with pytest.raises(ConfigValidationError, match=f"^field '{key}': unknown "):
            validate_config({**doc, key: 1.0})
    assert not any(callable(v) for exp in EXPERIMENTS.values()
                   for branch in exp.fields.values() for v in branch.values())


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
    assert "benchmark 'one_dim': T, benchmark, eps, mode, n\n" in out
    assert "benchmark 'one_dim': T, benchmark, n\n" in out


@pytest.mark.parametrize("doc,message", [
    ({"experiment": "static-value", "eps": -1.0}, "field 'eps': must be >= 0"),
    ({"experiment": "dynamic-utility-linear", "mc_paths": 20, "tol": 1e-9},
     "field 'tol': unknown (valid fields: T, benchmark, dx, dy, eps, experiment, "
     "mc_paths, mode, n, output_dir, pairs, refinements, seed, steps, value_tol)"),
    ({"experiment": "duality", "benchmark": "deterministic", "value_tol": 0.0},
     "field 'value_tol': must be > 0"),
    ({"experiment": "duality", "dx": 0.0}, "field 'dx': must be > 0"),
    ({"experiment": "duality", "dy": 0.0}, "field 'dy': must be > 0"),
    ({"experiment": "geometric-dpp", "refinements": [1, 3]},
     "field 'refinements': every entry must be >= 2"),
    ({"experiment": "static-value", "d": 1},
     "field 'd': unknown (valid fields: T, benchmark, dx, dy, eps, experiment, "
     "mc_paths, mode, n, output_dir, pairs, refinements, seed, steps, value_tol)"),
    ({"experiment": "static-value", "cap": 10},
     "field 'cap': unknown (valid fields: T, benchmark, dx, dy, eps, experiment, "
     "mc_paths, mode, n, output_dir, pairs, refinements, seed, steps, value_tol)"),
], ids=["eps", "tol", "value_tol", "dx", "dy", "refinements", "d", "cap"])
def test_validate_rejects_out_of_range_values(doc, message):
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(message)}$"):
        validate_config({"seed": 0, **doc})


def test_validate_accepts_the_edge_of_each_range():
    assert validate_config({"experiment": "static-value", "seed": 0, "eps": 0}).eps == 0
    assert validate_config({"experiment": "geometric-dpp", "seed": 0,
                            "refinements": [2]}).refinements == (2,)


def test_slack_shrinks_only_where_every_inclusion_holds(tmp_path):
    # at eps = 1e-9 the terminal-tracking nodal sets are empty at every refinement
    cfg = validate_config({"experiment": "geometric-dpp", "seed": 0, "eps": 1e-9,
                           "refinements": [2, 3], "output_dir": str(tmp_path)})
    passed = {c["name"]: c["passed"] for c in run_experiment(cfg).report["checks"]}
    for name in ("terminal-tracking", "steering"):
        holds = passed[f"{name}-inclusions-n2"] and passed[f"{name}-inclusions-n3"]
        assert passed[f"{name}-slack-shrinks"] == holds
    assert not passed["terminal-tracking-slack-shrinks"]


def test_linear_comparison_checks_fail_when_no_pair_is_checked(tmp_path, monkeypatch):
    # swapped pairs break the premise Phi(T, xi) <= Phi(T, xi~) at every node
    pairs = dynutil.make_comparison_pairs
    monkeypatch.setattr(dynutil, "make_comparison_pairs",
                        lambda *args, **kw: [(b, a) for a, b in pairs(*args, **kw)])
    cfg = validate_config({"experiment": "dynamic-utility-linear", "seed": 0,
                           "mc_paths": 20, "output_dir": str(tmp_path)})
    result = run_experiment(cfg)
    checks = {c["name"]: c for c in result.report["checks"]}
    for name in ("comparison-no-violations", "recursion-residual"):
        assert not checks[name]["passed"]
        assert checks[name]["reason"] == "no pair meets the premise"
    assert checks["comparison-no-violations"]["pairs"] == 0
    assert not result.passed


def test_benchmark_verify_witness_honours_cap(tmp_path, enumeration_cap):
    # 16 policies fit the 4-step tree; the witness subtree on 12 steps has more
    cfg = validate_config({"experiment": "benchmark-verify", "seed": 0,
                           "benchmark": "deterministic", "T": 2.0, "n": 4,
                           "output_dir": str(tmp_path)})
    with enumeration_cap(20), pytest.raises(BenchmarkError, match="exceed cap 20"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# one default per field, filled in by validate_config


def _run_cli(tmp_path, capsys, doc, name="cfg.json"):
    doc = {"seed": 1, "output_dir": str(tmp_path / "runs"), **doc}
    code = main(["run", write_config(tmp_path, doc, name)])
    return code, capsys.readouterr()


def _read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return fh.read()


def test_eps_zero_is_honoured_not_replaced(tmp_path, capsys):
    code, out = _run_cli(tmp_path, capsys, {
        "experiment": "static-value", "benchmark": "one_dim", "T": 2.4, "n": 3,
        "eps": 0})
    assert code in (0, 1)
    assert re.search(r"^(PASS|FAIL) value-within-tolerance value=\S+ bound=0 target=-0$",
                     out.out, re.MULTILINE)


def test_geometric_dpp_runs_at_the_eps_its_config_records(tmp_path):
    cfg = validate_config({"experiment": "geometric-dpp", "seed": 0, "eps": 0,
                           "refinements": [2, 3], "output_dir": str(tmp_path)})
    report = run_experiment(cfg).report
    assert report["config"]["eps"] == 0 and report["details"]["eps"] == 0
    rows = _read(run_directory(cfg), "slack.csv").splitlines()[1:]
    assert rows and all(row.split(",")[2] == "0.00000000000e+00" for row in rows)


@pytest.mark.parametrize("n", [1], ids=["default"])
def test_principal_agent_refuses_level_zero(n):
    # it re-optimizes at level n // 2, and at t = 0 the stale start is the
    # restored one: the stale check cannot pass
    message = ("field 'n': principal_agent re-optimizes at level n // 2, which its "
               "stale-control-group-violates needs >= 1 (at t = 0 the stale start "
               f"equals the restored one); got {n}")
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(message)}$"):
        validate_config({"experiment": "benchmark-verify", "seed": 0,
                         "benchmark": "principal_agent", "n": n})
    assert validate_config({"experiment": "benchmark-verify", "seed": 0,
                            "benchmark": "principal_agent", "n": 2}).n == 2


@pytest.mark.parametrize("doc", [
    {"experiment": "static-value"},
    {"experiment": "benchmark-verify"},
    {"experiment": "duality", "benchmark": "deterministic"},
], ids=["static-value", "benchmark-verify", "duality-deterministic"])
def test_minimal_deterministic_configs_run_to_a_verdict(doc, tmp_path, capsys):
    code, out = _run_cli(tmp_path, capsys, doc)
    assert code in (0, 1), out.err
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = json.loads(_read(run_dir, "report.json"))
    assert report["config"]["T"] == 2.0
    if doc["experiment"] != "duality":
        assert report["config"]["benchmark"] == "deterministic"
        assert report["config"]["eps"] == 0.05


@pytest.mark.parametrize("doc", [
    {"experiment": "static-value"},
    {"experiment": "benchmark-verify"},
    {"experiment": "duality", "benchmark": "deterministic"},
], ids=["static-value", "benchmark-verify", "duality-deterministic"])
def test_minimal_deterministic_configs_pass(doc, tmp_path, capsys):
    # each deterministic branch defaults to the n (and mode, dy) its shipped config sets
    code, out = _run_cli(tmp_path, capsys, doc)
    assert code == 0, out.out
    assert "FAIL" not in out.out


@pytest.mark.parametrize("doc", [
    {"experiment": "duality", "benchmark": "deterministic", "eps": None},
], ids=["duality-eps"])
def test_validate_rejects_null_like_any_other_non_number(doc):
    with pytest.raises(ConfigValidationError,
                       match="^field 'eps': expected number, got NoneType$"):
        validate_config({"seed": 0, **doc})


def test_static_value_has_no_principal_agent_branch():
    # principal_agent has no closed-form value, so static-value would check nothing
    with pytest.raises(ConfigValidationError, match=r"^field 'benchmark': static-value "
                       r"has no branch 'principal_agent' \(valid: 'deterministic', "
                       r"'mean_variance', 'one_dim'\)$"):
        validate_config({"experiment": "static-value", "seed": 0,
                         "benchmark": "principal_agent", "n": 4})


def test_validate_fills_in_each_branchs_own_defaults():
    def defaults(experiment, bench=""):
        cfg = validate_config({"experiment": experiment, "seed": 0,
                               **({"benchmark": bench} if bench else {})})
        return {k: getattr(cfg, k) for k in accepted_fields(experiment, cfg.benchmark)}

    assert defaults("static-value")["benchmark"] == "deterministic"
    assert defaults("benchmark-verify")["benchmark"] == "deterministic"
    for experiment in ("static-value", "benchmark-verify", "duality"):
        assert defaults(experiment, "deterministic")["T"] == 2.0
    for bench in ("deterministic", "one_dim", "mean_variance"):
        assert defaults("static-value", bench)["eps"] == 0.05
    assert defaults("benchmark-verify", "deterministic")["eps"] == 0.05
    assert defaults("benchmark-verify", "mean_variance")["eps"] == 0.1
    assert defaults("geometric-dpp")["eps"] == 0.35
    assert defaults("geometric-dpp")["refinements"] == (4, 8)
    assert defaults("duality", "deterministic")["eps"] is None  # computed
    assert defaults("duality")["benchmark"] == ""


class _ValueRecorder(_Recorder):
    """Also remembers each value read. Numbers and strings come back as
    subclasses that note a truth test, the way `value or default` would swap
    a config value for another."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.values, self.truth_tested = {}, set()

    def __getattr__(self, name):
        value = super().__getattr__(name)
        self.values[name] = value
        if type(value) not in (int, float, str):
            return value
        base, tested = type(value), self.truth_tested

        class Watched(base):
            def __bool__(self):
                tested.add(name)
                return bool(base(self))

        return Watched(value)


@pytest.mark.parametrize("experiment,bench", list(_branches()))
def test_report_config_holds_the_values_its_runner_read(experiment, bench, tmp_path):
    doc = {"experiment": experiment, "seed": 0, "output_dir": str(tmp_path),
           **TINY_BRANCHES[experiment, bench]}
    if bench:
        doc["benchmark"] = bench
    cfg = validate_config(doc)
    rec = _ValueRecorder(cfg)
    EXPERIMENTS[experiment].runner(rec, str(tmp_path))
    config = run_experiment(cfg).report["config"]
    read = {k: list(v) if isinstance(v, tuple) else v for k, v in rec.values.items()}
    assert read == {k: config[k] for k in read}
    assert rec.truth_tested == set()  # no value was swapped for a fallback
    # only duality's eps is left to the runner, which computes it from the grid
    unset = {k for k, v in read.items() if v is None}
    assert unset == ({"eps"} if (experiment, bench) == ("duality", "deterministic")
                     else set())


def _slack_checks(tmp_path, refinements, eps=0.35):
    cfg = validate_config({"experiment": "geometric-dpp", "seed": 0, "eps": eps,
                           "refinements": refinements, "output_dir": str(tmp_path)})
    report = run_experiment(cfg).report
    return {c["name"]: c for c in report["checks"]}, report["details"]


def test_slack_shrinks_compares_refinements_in_ascending_order(tmp_path):
    checks, details = _slack_checks(tmp_path, [8, 4, 8])
    assert details["refinements"] == [4, 8]
    assert checks == _slack_checks(tmp_path, [4, 8])[0]
    slack = checks["terminal-tracking-slack-shrinks"]
    assert slack["passed"] and slack["value"] < slack["bound"]
    assert slack["bound"] == checks["terminal-tracking-inclusions-n4"]["value"]


def test_slack_must_shrink_at_each_refinement_step(tmp_path):
    # terminal tracking: 0.37 at n = 4, 0.413 at n = 5, 0.347 at n = 8
    checks, _ = _slack_checks(tmp_path, [4, 5, 8])
    slack = checks["terminal-tracking-slack-shrinks"]
    assert not slack["passed"]
    assert slack["value"] == checks["terminal-tracking-inclusions-n5"]["value"]
    assert slack["bound"] == checks["terminal-tracking-inclusions-n4"]["value"]


def test_slack_shrinks_fails_on_one_refinement_and_says_why(tmp_path, capsys):
    checks, _ = _slack_checks(tmp_path, [3, 3])
    for name in ("terminal-tracking", "steering"):
        slack = checks[f"{name}-slack-shrinks"]
        assert not slack["passed"] and "value" not in slack and "bound" not in slack
        assert slack["reason"] == "needs two distinct refinements, got [3]"
    code, out = _run_cli(tmp_path, capsys, {"experiment": "geometric-dpp",
                                             "refinements": [3]})
    assert code == 1
    assert ("FAIL steering-slack-shrinks reason=needs two distinct refinements, "
            "got [3]") in out.out.splitlines()


def _one_dim_checks(tmp_path, T, n):
    cfg = validate_config({"experiment": "benchmark-verify", "seed": 1,
                           "benchmark": "one_dim", "T": T, "n": n,
                           "output_dir": str(tmp_path)})
    return {c["name"]: c for c in run_experiment(cfg).report["checks"]}


@pytest.mark.filterwarnings("ignore:dt = ")
@pytest.mark.parametrize("T, n, nodes, stale", [
    (2.4, 8, 64 + 128, 15), (1.0, 8, 64 + 128, 36), (2.4, 3, 2 + 4, 0),
    (2.4, 2, 2, 0)])
def test_one_dim_restores_on_levels_n_minus_2_and_n_minus_1(tmp_path, T, n, nodes,
                                                             stale):
    checks = _one_dim_checks(tmp_path, T, n)
    rest = checks["restoration-exact"]
    assert rest["passed"] and rest["value"] == 0 and rest["nodes"] == nodes
    # on a coarse tree no stale node leaves u = -1, and the check says so
    group = checks["stale-control-group-violates"]
    assert group["value"] == stale and group["passed"] == (stale >= 1)


@pytest.mark.filterwarnings("ignore:dt = ")
@pytest.mark.parametrize("identifier", ["one_dim", "mean_variance"])
def test_restoration_fails_with_a_reason_when_no_level_qualifies(tmp_path, identifier):
    cfg = validate_config({"experiment": "benchmark-verify", "seed": 1,
                           "benchmark": identifier, "n": 1,
                           "output_dir": str(tmp_path)})
    checks = {c["name"]: c for c in run_experiment(cfg).report["checks"]}
    for name in ("restoration-exact", "stale-control-group-violates"):
        assert not checks[name]["passed"] and "value" not in checks[name]
        assert checks[name]["reason"] == ("no restoration level lies in "
                                          "[1, n - 1] at n = 1")
