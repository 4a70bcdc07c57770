"""treebsde benchmark: four workloads, end-to-end metrics or per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0

Each pass of a workload runs its fixed job list through
``treebsde.experiments.run_experiment`` in a fresh process with one BLAS
thread. Passes repeat until ``--seconds`` have gone by (at least one pass);
times are medians over passes. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics plus the tracing overhead. Every job's headline values are compared
with ``references.json``; a job that raises or leaves its reference counts as
failed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS")
# setup_s is about 0.2 s and noisy: it is the median over this many
# setup-only processes plus the set-up of every pass.
SETUP_PROBES = 5
PASS_TIMEOUT_S = 170
# No further pass starts unless the last pass's duration still fits, so a
# run ends well inside three minutes even on a much slower commit.
RUN_BUDGET_S = 150

END_TO_END = (
    ("wall_s", "s", "first job start to last report written, median over passes"),
    ("setup_s", "s", "process start to first job start, median over processes"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload process, median over passes"),
    ("ok_frac", "fraction", "share of jobs that ran and matched their references (1 - failed_frac)"),
)

# (name, unit, better, end-to-end metric it should move, workloads)
LAYER_METRICS = (
    ("lattice.times_calls", "count", "lower", "wall_s", "steer, enumerate"),
    ("lattice.build_tree_s", "s", "lower", "wall_s", "enumerate"),
    ("lattice.self_s", "s", "lower", "wall_s", "steer, enumerate"),
    ("bsde.solve_calls", "count", "lower", "wall_s", "enumerate"),
    ("bsde.solve_self_s", "s", "lower", "wall_s", "enumerate"),
    ("bsde.maximize_self_s", "s", "lower", "wall_s", "enumerate"),
    ("bsde.policies", "count", "lower", "wall_s", "enumerate"),
    ("bsde.solves_per_policy", "ratio", "lower", "wall_s", "enumerate"),
    ("bsde.policies_per_s", "1/s", "higher", "wall_s", "enumerate"),
    ("bsde.heuristic_fallbacks", "count", "lower", "wall_s", "enumerate"),
    ("bsde.self_s", "s", "lower", "wall_s", "enumerate"),
    ("duality.dual_value_direct_calls", "count", "lower", "wall_s", "steer"),
    ("duality.dual_value_direct_self_s", "s", "lower", "wall_s", "steer"),
    ("duality.geometric_dpp_self_s", "s", "lower", "wall_s", "steer"),
    ("duality.hjb_s", "s", "lower", "wall_s", "transport"),
    ("duality.hjb_cell_updates", "count", "lower", "wall_s", "transport"),
    ("duality.hjb_cell_updates_per_s", "1/s", "higher", "wall_s", "transport"),
    ("duality.hjb_bytes_stored", "bytes", "lower", "peak_rss_mb", "transport"),
    ("duality.self_s", "s", "lower", "wall_s", "steer, transport"),
    ("dynutil.ensemble_s", "s", "lower", "wall_s", "ensemble"),
    ("dynutil.path_steps_per_s", "1/s", "higher", "wall_s", "ensemble"),
    ("dynutil.riccati_calls", "count", "lower", "wall_s", "ensemble"),
    ("dynutil.riccati_s", "s", "lower", "wall_s", "ensemble"),
    ("dynutil.tau_self_s", "s", "lower", "wall_s", "ensemble"),
    ("dynutil.comparison_s", "s", "lower", "wall_s", "ensemble"),
    ("dynutil.ensemble_bytes", "bytes", "lower", "peak_rss_mb", "ensemble"),
    ("dynutil.self_s", "s", "lower", "wall_s", "ensemble"),
    ("master.forward_dpp_s", "s", "lower", "wall_s", "enumerate"),
    ("master.lipschitz_s", "s", "lower", "wall_s", "enumerate"),
    ("master.self_s", "s", "lower", "wall_s", "enumerate"),
    ("benchmarks.witness_s", "s", "lower", "wall_s", "enumerate"),
    ("benchmarks.self_s", "s", "lower", "wall_s", "enumerate"),
    ("experiments.self_s", "s", "lower", "wall_s", "all"),
    ("experiments.artifact_bytes", "bytes", "lower", "wall_s", "all"),
    ("trace.wall_s", "s", "lower", "wall_s", "all (traced passes)"),
    ("trace.overhead_s", "s", "lower", "wall_s", "all (traced - untraced wall_s)"),
)


class BenchmarkError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Compile on every start, so setup_s does not depend on whether an earlier
    # run left bytecode caches in the checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def machine_block(numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                capture_output=True, text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "total_ram_mb": round(os.sysconf("SC_PHYS_PAGES")
                              * os.sysconf("SC_PAGE_SIZE") / 2 ** 20),
    }


def spawn(workload: str, seed: int, env: dict, trace=False, setup_only=False) -> dict:
    """Run one worker process to completion and return its JSON result."""
    os.makedirs(TMP_PARENT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT)
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(result: dict, workload: str, seed: int, refs: dict) -> list:
    """Per job (id, ok, note); prints what a diff between commits needs."""
    jobs = {job["id"]: job for job in workloads.WORKLOADS[workload]}
    out = []
    for rec in result["jobs"]:
        job = jobs[rec["id"]]
        if rec["error"]:
            out.append((rec["id"], False, "raised:\n" + rec["error"]))
            continue
        ref = workloads.reference_for(refs, job, seed)
        if ref is None:
            out.append((rec["id"], True, "no reference for this seed; values:\n"
                        + json.dumps(rec["headline"], sort_keys=True, indent=1)))
            continue
        bad = workloads.mismatches(rec["headline"], ref)
        if bad:
            lines = [f"  {k}: got {rec['headline'].get(k)} want {ref.get(k)}" for k in bad]
            out.append((rec["id"], False, "left its reference:\n" + "\n".join(lines)))
        else:
            out.append((rec["id"], True, f"{len(ref)} values match"))
    return out


def run_passes(workload: str, seed: int, seconds: float, env: dict, trace: bool):
    """Passes until ``seconds`` have elapsed; with trace, alternate untraced
    and traced passes and require at least one of each."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        (traced if use_trace else plain).append(spawn(workload, seed, env, trace=use_trace))
        now = time.monotonic()
        if trace and not traced:
            continue
        if now - start >= seconds or now - start + (now - t0) > RUN_BUDGET_S:
            return plain, traced


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "treebsde", "experiments.py")):
        print(f"error: no treebsde sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    refs = workloads.load_references()
    env = pinned_env()
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # worker, and the finally clause removes the temporary reports.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups = ([] if args.trace else
                  [spawn(args.workload, args.seed, env, setup_only=True)
                   for _ in range(SETUP_PROBES)])
        plain, traced = run_passes(args.workload, args.seed, args.seconds, env,
                                   bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_PARENT, ignore_errors=True)

    passes = plain + traced
    print("machine " + json.dumps(machine_block(passes[0]["numpy"]), sort_keys=True))
    attempted = failed = 0
    for i, result in enumerate(passes):
        for job_id, ok, note in check_pass(result, args.workload, args.seed, refs):
            attempted += 1
            failed += not ok
            if i == 0 or not ok:
                print(f"job {job_id} pass {i}: {'ok' if ok else 'FAILED'}: {note}")
    for rec in passes[0]["jobs"]:
        if "verdicts" in rec:
            print(f"verdicts {rec['id']} " + " ".join(
                f"{k}={'PASS' if v else 'FAIL'}" for k, v in rec["verdicts"].items()))
    walls = [p["wall_s"] for p in plain]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, walls " + " ".join(fmt(w) for w in walls))

    metrics = {}
    if not args.trace:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median([p["setup_s"] for p in setups + plain]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
            "ok_frac": 1.0 - failed / attempted,
        }
        for name, unit, what in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {fmt(values[name])} {unit}  ({what})")
        print(f"failed_frac = {fmt(failed / attempted)} ({failed} of {attempted} jobs)")
    else:
        layers = [p["layers"] for p in traced]
        values = {k: statistics.median([lay[k] for lay in layers]) for k in layers[0]}
        for k in layers[0]:
            if isinstance(layers[0][k], int) and len({lay[k] for lay in layers}) > 1:
                print(f"count {k} did not repeat across traced passes: "
                      + " ".join(str(lay[k]) for lay in layers))
        values["trace.wall_s"] = statistics.median([p["wall_s"] for p in traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        for name, unit, _, moves, where in LAYER_METRICS:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"layer {name} = {fmt(values[name])} {unit}  (moves {moves} on {where})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
