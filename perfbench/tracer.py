"""Spans around the public functions of each treebsde layer, from outside.

The tracer wraps every public function a layer module defines and rebinds
the wrapper under every name that any loaded ``treebsde`` module holds for
it. Rebinding only the defining module would miss calls made through
``from treebsde.bsde import solve_bsde`` in ``master``, ``benchmarks`` and
``dynutil``.

Spans are kept in memory as ``[name, start, end, parent]``. A span's self
time is its duration minus the durations of its direct children; calls are
synchronous, so children never overlap. Cheap functions that run in hot
loops are counted but not timed, since two clock reads per call would cost
more than the work they measure.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("lattice", "bsde", "duality", "dynutil", "master", "benchmarks",
          "experiments")

# Called tens of thousands of times per workload for microseconds each.
COUNT_ONLY = {"bsde.monotone_step_bound"}

ENSEMBLE_ARRAYS = ("A1", "A2", "ahat", "parity", "anchor", "switch_flags",
                   "lam", "mu")


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.acc = Counter()   # figures the hooks read off returned values
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        spans, stack, acc = self.spans, self._stack, self.acc
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(acc, rec, out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"treebsde.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[obj] = self._counted(name, obj)
                else:
                    wrappers[obj] = self._timed(name, obj, HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "treebsde" and not modname.startswith("treebsde."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        lattice = importlib.import_module("treebsde.lattice")
        times = lattice.TimeGrid.times
        self._undo.append((lattice.TimeGrid, "times", times))
        lattice.TimeGrid.times = self._counted("lattice.times", times)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived figures ----------------------------------------------------

    def self_times(self) -> list:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-name call count, total and self seconds, plus layer self time."""
        own = self.self_times()
        calls, total, self_s = Counter(), Counter(), Counter()
        layer_self = Counter()
        for (name, start, end, _), s in zip(self.spans, own):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += s
            layer_self[name.split(".", 1)[0]] += s
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "layer_self_s": layer_self}

    def enumerating_solves(self) -> int:
        """solve_bsde calls made under a maximize_over_policies span."""
        spans = self.spans
        n = 0
        for name, _, _, parent in spans:
            if name != "bsde.solve_bsde":
                continue
            while parent >= 0:
                if spans[parent][0] == "bsde.maximize_over_policies":
                    n += 1
                    break
                parent = spans[parent][3]
        return n


# Hooks read a figure off a span's return value as it returns, so that no
# returned array outlives its caller.


def _on_maximize(acc, rec, out):
    _, _, enumerated, heuristic = out
    acc["policies"] += int(enumerated)
    acc["heuristic_fallbacks"] += int(bool(heuristic))


def _on_hjb(acc, rec, dual):
    acc["hjb_cell_updates"] += dual.substeps * (len(dual.times) - 1) * dual.W[0].size
    acc["hjb_bytes_stored"] += dual.W.nbytes


def _on_linear_utility(acc, rec, lin):
    if lin.mode != "ensemble":
        return
    acc["ensemble_s"] += rec[2] - rec[1]
    acc["path_steps"] += lin.n_paths * (len(lin.times) - 1)
    acc["ensemble_bytes"] += sum(a.nbytes for field in ENSEMBLE_ARRAYS
                                 for a in getattr(lin, field))


def _on_run_experiment(acc, rec, result):
    for f in result.report["artifacts"]:
        acc["artifact_bytes"] += os.path.getsize(os.path.join(result.out_dir, f))


HOOKS = {
    "bsde.maximize_over_policies": _on_maximize,
    "duality.solve_dual_hjb": _on_hjb,
    "dynutil.build_linear_utility": _on_linear_utility,
    "experiments.run_experiment": _on_run_experiment,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of ``run.LAYER_METRICS``, as plain numbers."""
    acc = tracer.acc
    s = tracer.summary()
    calls, total, self_s = s["calls"], s["total_s"], s["self_s"]
    policies = acc["policies"]
    maximize_s = total["bsde.maximize_over_policies"]
    hjb_s = total["duality.solve_dual_hjb"]
    ens_s = acc["ensemble_s"]
    return {
        "lattice.times_calls": tracer.counts["lattice.times"],
        "lattice.build_tree_s": total["lattice.build_tree"],
        "lattice.self_s": s["layer_self_s"]["lattice"],
        "bsde.solve_calls": calls["bsde.solve_bsde"],
        "bsde.solve_self_s": self_s["bsde.solve_bsde"],
        "bsde.maximize_self_s": self_s["bsde.maximize_over_policies"],
        "bsde.policies": policies,
        "bsde.solves_per_policy": (tracer.enumerating_solves() / policies
                                   if policies else 0.0),
        "bsde.policies_per_s": policies / maximize_s if maximize_s else 0.0,
        "bsde.heuristic_fallbacks": acc["heuristic_fallbacks"],
        "bsde.self_s": s["layer_self_s"]["bsde"],
        "duality.dual_value_direct_calls": calls["duality.dual_value_direct"],
        "duality.dual_value_direct_self_s": self_s["duality.dual_value_direct"],
        "duality.geometric_dpp_self_s": self_s["duality.check_geometric_dpp"],
        "duality.hjb_s": hjb_s,
        "duality.hjb_cell_updates": acc["hjb_cell_updates"],
        "duality.hjb_cell_updates_per_s": (acc["hjb_cell_updates"] / hjb_s
                                           if hjb_s else 0.0),
        "duality.hjb_bytes_stored": acc["hjb_bytes_stored"],
        "duality.self_s": s["layer_self_s"]["duality"],
        "dynutil.ensemble_s": ens_s,
        "dynutil.path_steps_per_s": acc["path_steps"] / ens_s if ens_s else 0.0,
        "dynutil.riccati_calls": calls["dynutil.riccati_polynomials"],
        "dynutil.riccati_s": total["dynutil.riccati_polynomials"],
        "dynutil.tau_self_s": self_s["dynutil.verify_tau_bound"],
        "dynutil.comparison_s": total["dynutil.check_linear_comparison"],
        "dynutil.ensemble_bytes": acc["ensemble_bytes"],
        "dynutil.self_s": s["layer_self_s"]["dynutil"],
        "master.forward_dpp_s": total["master.check_forward_dpp"],
        "master.lipschitz_s": total["master.check_lipschitz"],
        "master.self_s": s["layer_self_s"]["master"],
        "benchmarks.witness_s": (total["benchmarks.deterministic_witness_check"]
                                 + total["benchmarks.onedim_witness_check"]),
        "benchmarks.self_s": s["layer_self_s"]["benchmarks"],
        "experiments.self_s": s["layer_self_s"]["experiments"],
        "experiments.artifact_bytes": acc["artifact_bytes"],
    }


# Figures that must repeat exactly from run to run.
EXACT_COUNTS = ("lattice.times_calls", "bsde.solve_calls", "bsde.policies",
                "duality.dual_value_direct_calls", "dynutil.riccati_calls",
                "duality.hjb_cell_updates")
