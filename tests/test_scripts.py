"""Smoke tests for the standalone scripts under scripts/."""
import importlib.util
import os
import shutil
import subprocess
import sys

import numpy as np

from treebsde.dynutil import build_linear_utility
from treebsde.lattice import TimeGrid
from treebsde.problems import switch_coeffs

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_switching_paths_exports_the_dense_path(tmp_path, capsys):
    # 4096 steps is the coarsest power of two whose one-step ratio bound on
    # [0, 4] stays under the default overshoot limit
    paths, steps = 50, 4096
    out = tmp_path / "switching"
    script = _load("switching_paths")
    assert script.run(["--paths", str(paths), "--steps", str(steps),
                       "--export", "1", "--out", str(out)]) == 0
    assert "P(at least 1 switches)" in capsys.readouterr().out
    (written,) = os.listdir(out)
    i = int(written[len("path_"):-len(".csv")])
    lines = (out / written).read_bytes().splitlines()
    assert len(lines) == 1 + steps + 1  # header + one row per level

    lin = build_linear_utility(switch_coeffs(), grid=TimeGrid(4.0, steps), n_paths=paths,
                               seed=0)
    expected = tmp_path / "dense.csv"
    lin.path(i).to_csv(str(expected))
    assert (out / written).read_bytes() == expected.read_bytes()
    counts = sum(lin.switch_flags, np.zeros(paths, dtype=np.int64))
    assert counts[i] == counts.max()


def test_switching_paths_rejects_a_coarse_grid_in_one_line(tmp_path):
    # 256 steps on [0, 4] give a one-step ratio bound of 0.361 > 0.1
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "switching_paths.py"), "--paths", "50",
         "--steps", "256", "--out", str(tmp_path / "switching")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert "--steps 256" in line and "overshoot limit 0.1" in line
    assert not (tmp_path / "switching").exists()


def test_run_all_leaves_only_run_directories_in_the_output_dir(tmp_path, capsys):
    configs, out = tmp_path / "configs", tmp_path / "runs"
    configs.mkdir()
    shutil.copy(os.path.join(SCRIPTS, "configs", "illposed_demo.json"), configs)
    assert _load("run_all").run(["--configs", str(configs), "--output-dir", str(out)]) == 0
    assert "illposed_demo  pass" in capsys.readouterr().out
    (written,) = os.listdir(out)
    assert written.startswith("illposed-demo-") and (out / written / "report.json").is_file()
