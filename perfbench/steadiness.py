"""Steadiness proof: repeat run.py over seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads steer,transport]
        [--traced 2] [--out steadiness.json]

For every workload it makes one untraced run per seed and reports, for each
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json and against a third of it (the margin aimed for). The spread
of setup_s is exempt. ``--compare`` an earlier output to check that no
median got worse than the earlier one by more than the bound. ``--traced``
more runs, on the first seeds, check that the exact counts repeat; any count
that does not is listed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from run import machine_block
from tracer import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(doc: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(doc["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", default=None, help="an earlier --out file")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"] for m in doc["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    report = {"machine": machine_block(np.__version__),
              "date": time.strftime("%Y-%m-%d", time.gmtime()),
              "run_seconds": doc["run_seconds"], "workloads": {}}
    steady = True
    for wl in args.workloads.split(","):
        runs = [bench_run(doc, wl, s, 0) for s in seeds]
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                 "metrics": {}}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            st = dict(spread(vals), values=vals, bound=bound)
            exempt = name == "setup_s"
            st["within_bound"] = exempt or st["spread"] <= bound
            st["below_third"] = exempt or st["spread"] < bound / 3
            note = ""
            if wl in earlier:
                before = earlier[wl]["metrics"][name]["median"]
                worse = (st["median"] - before if better[name] == "lower"
                         else before - st["median"]) / before
                st["worse_than_earlier"] = worse
                st["within_bound"] = st["within_bound"] and worse <= bound
                note = f" worse than earlier by {worse:+.4f}"
            steady = steady and st["within_bound"] and entry["correct"]
            entry["metrics"][name] = st
            print(f"{wl} {name}: median {st['median']:.6g} spread {st['spread']:.4f} "
                  f"bound {bound} ({'within' if st['within_bound'] else 'OUTSIDE'}, "
                  f"{'below' if st['below_third'] else 'above'} a third){note}",
                  flush=True)
        traced = [bench_run(doc, wl, s, 1) for s in seeds[:args.traced]]
        if traced:
            entry["counts"] = {k: traced[0]["metrics"][k]["value"] for k in EXACT_COUNTS}
            entry["counts_not_repeating"] = [
                k for k in EXACT_COUNTS
                if len({t["metrics"][k]["value"] for t in traced}) > 1]
            entry["trace_overhead_s"] = [t["metrics"]["trace.overhead_s"]["value"]
                                         for t in traced]
            entry["layers"] = {k: statistics.median([t["metrics"][k]["value"]
                                                     for t in traced])
                               for k in traced[0]["metrics"]}
            print(f"{wl} counts {entry['counts']} not repeating: "
                  f"{entry['counts_not_repeating'] or 'none'}")
        report["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
