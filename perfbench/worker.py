"""One pass of one workload in a fresh process; prints one JSON line.

Usage (normally started by run.py, which pins BLAS threads and sets
PYTHONPATH to the checkout's ``src``):

    python3 perfbench/worker.py --workload steer --seed 1 --out-dir DIR \
        --spawned-at MONOTONIC [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux that clock is system-wide, so ``setup_s`` covers
interpreter start, the numpy and treebsde imports and config validation.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import treebsde.experiments as experiments

    jobs = workloads.WORKLOADS[args.workload]
    cfgs = [experiments.validate_config(workloads.job_config(job, args.seed, args.out_dir))
            for job in jobs]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    t_first = time.monotonic()
    out = {"setup_s": t_first - args.spawned_at, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    results, errors = [], []
    for cfg in cfgs:
        try:
            # looked up on the module so that the tracer's rebinding applies
            results.append(experiments.run_experiment(cfg))
            errors.append(None)
        except Exception:  # a job that raises is counted, the pass goes on
            results.append(None)
            errors.append(traceback.format_exc(limit=4))
    t_last = time.monotonic()
    if tracer is not None:
        tracer.uninstall()

    out["wall_s"] = t_last - t_first
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["jobs"] = []
    for job, res, err in zip(jobs, results, errors):
        rec = {"id": job["id"], "error": err}
        if res is not None:
            try:
                rec["headline"] = workloads.headline(res.report, res.out_dir)
                rec["verdicts"] = workloads.verdicts(res.report)
            except (OSError, KeyError, ValueError, IndexError):
                rec["error"] = traceback.format_exc(limit=4)
        out["jobs"].append(rec)
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
