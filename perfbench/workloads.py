"""Workload job lists, headline extraction and reference comparison.

Each workload is a fixed list of experiment jobs. A job's config carries only
the fields its experiment reads; the benchmark adds ``seed`` and
``output_dir`` when it runs the job, so shipped configs elsewhere in the
repository never change a workload.

``seeded`` marks the jobs whose numbers depend on the seed (they draw from a
Philox stream). The others give the same headline values for every seed, so
one reference serves them all.
"""
from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# Headline values are deterministic for a given seed; the tolerance leaves
# room only for floating-point reassociation in a later optimisation.
RTOL = 1e-9
ATOL = 1e-12

WORKLOADS = {
    "enumerate": [
        {"id": "static-value-one_dim", "seeded": False,
         "config": {"experiment": "static-value", "benchmark": "one_dim",
                    "T": 2.4, "n": 3, "mode": "path"}},
        {"id": "benchmark-verify-deterministic", "seeded": False,
         "config": {"experiment": "benchmark-verify",
                    "benchmark": "deterministic", "T": 2.0, "n": 64,
                    "eps": 0.05}},
        {"id": "forward-dpp", "seeded": True,
         "config": {"experiment": "forward-dpp", "pairs": 100}},
    ],
    "steer": [
        {"id": "geometric-dpp", "seeded": False,
         "config": {"experiment": "geometric-dpp", "T": 1.0,
                    "refinements": [4, 8], "eps": 0.35}},
    ],
    "ensemble": [
        {"id": "tau-bound", "seeded": True,
         "config": {"experiment": "tau-bound", "mc_paths": 10000,
                    "steps": 4096}},
        {"id": "dynamic-utility-linear", "seeded": True,
         "config": {"experiment": "dynamic-utility-linear", "mc_paths": 2000,
                    "steps": 4096}},
    ],
    "transport": [
        {"id": "duality-transport-fine", "seeded": False,
         "config": {"experiment": "duality", "benchmark": "deterministic",
                    "T": 2.0, "n": 256, "dy": 0.008, "eps": 0.00096,
                    "value_tol": 0.01}},
        {"id": "duality-markovian", "seeded": False,
         "config": {"experiment": "duality", "n": 8, "dx": 0.05,
                    "dy": 0.05}},
    ],
}


def job_config(job: dict, seed: int, output_dir: str) -> dict:
    return dict(job["config"], seed=seed, output_dir=output_dir)


def _add(vals: dict, name: str, v) -> None:
    """Store a number, or each number of a list as name.<index>; skip the rest."""
    for i, item in (enumerate(v) if isinstance(v, list) else [(None, v)]):
        if isinstance(item, (bool, int, float)):
            vals[name if i is None else f"{name}.{i}"] = (
                int(item) if isinstance(item, bool) else item)


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def headline(report: dict, out_dir: str) -> dict:
    """Flat {name: number} of the values a job's correctness rests on.

    Every check's value, every numeric detail, plus the CSV fields that the
    report does not carry: the enumerated policy count of a static value and
    both geometric slacks per problem and refinement.
    """
    vals = {}
    for check in report["checks"]:
        _add(vals, f"check.{check['name']}", check.get("value"))
    for key, v in report["details"].items():
        _add(vals, f"details.{key}", v)
    exp = report["experiment"]
    if exp == "static-value":
        row = _read_csv(os.path.join(out_dir, "value.csv"))[0]
        vals["static.value"] = float(row["value"])
        vals["static.enumerated"] = int(row["enumerated"])
    elif exp == "geometric-dpp":
        for row in _read_csv(os.path.join(out_dir, "slack.csv")):
            key = f"{row['problem']}.n{row['n']}"
            vals[f"rho_into.{key}"] = float(row["rho_into"])
            vals[f"rho_back.{key}"] = float(row["rho_back"])
    elif exp == "tau-bound":
        for row in _read_csv(os.path.join(out_dir, "tau_bound.csv")):
            vals[f"tau.{row['switch_index']}.frequency"] = float(row["frequency"])
    return vals


def verdicts(report: dict) -> dict:
    """Check verdicts by name: recorded, never used as the criterion."""
    return {c["name"]: c["passed"] for c in report["checks"]}


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(refs: dict, job: dict, seed: int):
    """The committed headline for (job, seed), or None when there is none."""
    per_job = refs.get("jobs", {}).get(job["id"], {})
    return per_job.get("*" if not job["seeded"] else str(seed))


def _close(a, b) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * abs(b)


def mismatches(values: dict, ref: dict) -> list:
    """Names whose value left the reference, or that appeared or vanished."""
    return [k for k in sorted(set(values) | set(ref))
            if k not in values or k not in ref or not _close(values[k], ref[k])]
