"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (HERE, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import treebsde.bsde as bsde  # noqa: E402
import treebsde.master as master  # noqa: E402
import treebsde.experiments as experiments  # noqa: E402
from treebsde.lattice import TimeGrid, build_tree  # noqa: E402

TINY_JOBS = [
    {"experiment": "static-value", "benchmark": "one_dim", "T": 2.4, "n": 2,
     "mode": "path"},
    {"experiment": "forward-dpp", "pairs": 3},
    {"experiment": "geometric-dpp", "T": 1.0, "refinements": [2, 3], "eps": 0.35},
    {"experiment": "tau-bound", "mc_paths": 50, "steps": 4096},
    {"experiment": "dynamic-utility-linear", "mc_paths": 50, "steps": 4096},
    {"experiment": "duality", "benchmark": "deterministic", "T": 2.0, "n": 4,
     "dy": 0.1, "value_tol": 0.5},
    {"experiment": "duality", "n": 2, "dx": 0.25, "dy": 0.25},
]


def _headlines(out_dir):
    vals = {}
    for i, cfg in enumerate(TINY_JOBS):
        cfg = experiments.validate_config(dict(cfg, seed=3, output_dir=out_dir))
        # through the module attribute, which the tracer rebinds
        res = experiments.run_experiment(cfg)
        vals[i] = workloads.headline(res.report, res.out_dir)
    return vals


def test_traced_and_untraced_runs_give_identical_headlines(tmp_path):
    plain = _headlines(str(tmp_path / "plain"))
    with Tracer() as tracer:
        traced = _headlines(str(tmp_path / "traced"))
    assert plain.keys() == traced.keys()
    for i in plain:
        assert plain[i], TINY_JOBS[i]
        assert traced[i] == plain[i], TINY_JOBS[i]
    lay = layer_metrics(tracer)
    for name in ("lattice.times_calls", "bsde.solve_calls", "bsde.policies",
                 "duality.dual_value_direct_calls", "duality.hjb_cell_updates",
                 "dynutil.riccati_calls", "dynutil.ensemble_bytes",
                 "experiments.artifact_bytes"):
        assert lay[name] > 0, name
    assert {name for name, *_ in run.LAYER_METRICS} - {"trace.wall_s", "trace.overhead_s"} \
        == set(lay)


def test_wrappers_catch_calls_through_from_import_bindings():
    # 2 controls on a 2-level path tree: 3 decision slots on [0, 2).
    problem = bsde.BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 1.0), lipschitz_L=1.0)
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    eta = tree.values[2][:, :1].copy()
    original = master.solve_bsde
    with Tracer() as tracer:
        assert master.solve_bsde is not original
        rep = master.check_forward_dpp(problem, tree, 1, 2, eta)
    assert master.solve_bsde is original and bsde.solve_bsde is original
    assert rep.residual <= 1e-12
    lay = layer_metrics(tracer)
    # direct side: 2^3 policies; nested side: 2^2 segment policies, each one
    # segment solve (through master's own binding) plus 2^1 policies on [0, 1)
    assert lay["bsde.policies"] == 8 + 4 * 2
    assert lay["bsde.solve_calls"] == 8 + 4 * (1 + 2)
    assert lay["bsde.solves_per_policy"] == 1.0
    assert lay["bsde.heuristic_fallbacks"] == 0
    assert lay["master.forward_dpp_s"] > 0


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in run.LAYER_METRICS]


def test_references_cover_every_job():
    refs = workloads.load_references()
    for jobs in workloads.WORKLOADS.values():
        for job in jobs:
            assert workloads.reference_for(refs, job, 1), job["id"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
