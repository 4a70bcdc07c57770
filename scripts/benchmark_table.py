"""Closed-form benchmark values next to their tree-scheme reproductions.

Usage: python scripts/benchmark_table.py [--n N]
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treebsde.lattice import TimeGrid, build_tree  # noqa: E402
from treebsde.bsde import static_value  # noqa: E402
from treebsde.benchmarks import (  # noqa: E402
    deterministic_discrete_optimum,
    get_benchmark,
    mv_tree_value,
    pa_value,
)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12, help="path-tree depth for the stochastic rows")
    args = ap.parse_args(argv)
    n = args.n
    rows = []

    bench = get_benchmark("deterministic", T=2.0)
    tree = build_tree(TimeGrid(2.0, 64), d=1, mode="recombining")
    sv = static_value(bench.problem, tree)
    rows.append(("deterministic (T=2, n=64)", bench.optimal_value, sv.value,
                 f"scheme optimum {deterministic_discrete_optimum(2.0, 64):.6f}"))

    bench = get_benchmark("one_dim", c=2.4, T=2.4)
    u_grid = np.asarray(bench.problem.control_values)
    best = float(np.max(bench.problem.phi((u_grid * 2.4)[:, None])))
    rows.append(("one-dim (c=T=2.4)", bench.optimal_value, best,
                 "constant-control scan"))

    bench = get_benchmark("mean_variance", x0=0.0, c=1.0, T=1.0)
    tree = build_tree(TimeGrid(1.0, n), d=1, mode="path")
    rows.append((f"mean-variance (c=1, n={n})", bench.optimal_value,
                 mv_tree_value(bench, tree), "analytic feedback on the tree"))

    bench = get_benchmark("principal_agent", gamma_A=1.0, gamma_P=1.0, R=-0.5, T=1.0)
    n_pa = min(n, 10)
    tree = build_tree(TimeGrid(1.0, n_pa), d=1, mode="path")
    v = float(pa_value(bench, tree, bench.analytic["u_star"])[0])
    a = bench.analytic
    s = np.sqrt(tree.dt)
    th = a["gamma_P"] * (1.0 - a["u_star"]) * s
    g = np.cosh(th) - a["u_star"] * s * np.sinh(th)
    closed = -np.exp(a["gamma_P"] * (a["x_R"] + a["cost_rate"] * 1.0)) * g ** n_pa
    rows.append((f"principal-agent (R=-0.5, n={n_pa})", closed, v,
                 f"constant effort u* = {a['u_star']:.4f}, per-step factorization"))

    print(f"{'benchmark':<34} {'closed form':>12} {'tree value':>12} {'abs err':>9}  route")
    for name, ref, val, route in rows:
        print(f"{name:<34} {ref:>12.6f} {val:>12.6f} {abs(val - ref):>9.2e}  {route}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
