"""Write references.json: every job's headline values at the current commit.

    PYTHONPATH=src python3 perfbench/make_references.py [--seeds 0-31]

Jobs that do not draw from the seed get one entry ("*") after a check that
two seeds give identical values; seeded jobs get one entry per seed in the
range. Run it only on a commit whose outputs are trusted, and commit the
result together with the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import workloads


def headline_of(job: dict, seed: int, tmp: str) -> dict:
    from treebsde.experiments import run_experiment, validate_config

    res = run_experiment(validate_config(workloads.job_config(job, seed, tmp)))
    return workloads.headline(res.report, res.out_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range lo-hi")
    ap.add_argument("--out", default=workloads.REFERENCES_PATH)
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    doc = {"rtol": workloads.RTOL, "atol": workloads.ATOL, "jobs": {}}
    tmp = tempfile.mkdtemp(prefix="perfbench-refs-")
    try:
        for wl, jobs in workloads.WORKLOADS.items():
            for job in jobs:
                if job["seeded"]:
                    entry = {str(s): headline_of(job, s, tmp) for s in range(lo, hi + 1)}
                else:
                    a, b = headline_of(job, lo, tmp), headline_of(job, lo + 1, tmp)
                    if workloads.mismatches(a, b):
                        raise SystemExit(f"{job['id']} is marked unseeded but "
                                         "depends on the seed")
                    entry = {"*": a}
                doc["jobs"][job["id"]] = entry
                print(f"{wl}/{job['id']}: {len(entry)} entries", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
