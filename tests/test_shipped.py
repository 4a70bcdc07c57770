"""The 14 shipped configs reproduce their committed artifacts byte for byte.

``shipped_artifacts.json`` maps each config under ``scripts/configs`` to the
run directory it writes and the SHA-256 of every file there. Any change to a
shipped output fails here, and the message names each file with its old and
new digest. A change that means to move an output edits the manifest by hand.
"""
import glob
import hashlib
import json
import os

import pytest

from treebsde.experiments import run_experiment, validate_config

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "scripts", "configs")
with open(os.path.join(HERE, "shipped_artifacts.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_manifest_covers_every_shipped_config():
    names = {os.path.splitext(os.path.basename(path))[0]
             for path in glob.glob(os.path.join(CONFIGS, "*.json"))}
    assert set(MANIFEST) == names and len(names) == 14


@pytest.mark.filterwarnings("ignore:dt = ")
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_shipped_config_reproduces_its_artifact_digests(name, tmp_path):
    with open(os.path.join(CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    result = run_experiment(validate_config({**doc, "output_dir": str(tmp_path)}))
    want = MANIFEST[name]
    run = os.path.basename(result.out_dir)
    got = {f: _sha256(os.path.join(result.out_dir, f))
           for f in os.listdir(result.out_dir)}
    changed = [] if run == want["run"] else [f"run directory: {want['run']} -> {run}"]
    for f in sorted(set(got) | set(want["artifacts"])):
        old, new = want["artifacts"].get(f, "absent"), got.get(f, "absent")
        if old != new:
            changed.append(f"{f}: {old} -> {new}")
    assert not changed, f"{name} changed:\n" + "\n".join(changed)
