"""Simulate the regime-switching weight construction and export sample paths.

Streams the two-component linear utility's Euler ensemble, prints switch
statistics from its switch events, and writes one CSV per sampled path
(t, ratio, regime, weights), replayed from the same seeded stream. A step
count too coarse for the overshoot limit exits 2 with a one-line message.

Usage: python scripts/switching_paths.py [--paths N] [--steps N] [--seed S] [--out DIR]
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treebsde.lattice import TimeGrid  # noqa: E402
from treebsde.dynutil import StepSizeError, replay_paths, switch_events  # noqa: E402
from treebsde.problems import switch_coeffs  # noqa: E402


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--steps", type=int, default=4096)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--export", type=int, default=3, help="number of paths to write as CSV")
    ap.add_argument("--out", default="runs/switching")
    args = ap.parse_args(argv)

    coeffs = switch_coeffs()
    grid = TimeGrid(4.0, args.steps)
    try:
        events = switch_events(coeffs, grid, args.paths, seed=args.seed)
    except StepSizeError as exc:
        print(f"switching_paths: --steps {args.steps} is too coarse on [0, 4]: {exc}",
              file=sys.stderr)
        return 2

    counts = events.counts
    print(f"paths={args.paths} steps={args.steps} overshoot={events.overshoot:.3e}")
    for k in range(int(counts.max()) + 1):
        frac = float(np.mean(counts >= k))
        print(f"  P(at least {k} switches) = {frac:.4f}")

    os.makedirs(args.out, exist_ok=True)
    # export the most active paths
    chosen = np.argsort(-counts)[: args.export]
    paths = replay_paths(coeffs, grid, args.paths, chosen, seed=args.seed)
    for i, path in zip(chosen, paths):
        dest = os.path.join(args.out, f"path_{int(i)}.csv")
        path.to_csv(dest)
        print(f"wrote {dest} ({len(path.switch_times)} switches)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
