"""Experiment registry and runner.

Flat, typed JSON configs drive nine registered experiments; each accepts only
the config fields its runner reads, with one default each, as declared in
EXPERIMENTS. Every run writes a deterministic artifact directory named
experiment-seed-confighash (no timestamps anywhere), containing report.json
(UTF-8, sorted keys) plus CSV files (12 significant digits, comma-delimited,
LF), written by treebsde.artifacts. Identical configs rerun byte-identically;
randomness comes only from the counter-based Philox generator seeded from the
config.
"""
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass, asdict, fields as dc_fields
from types import NoneType
from typing import Callable, NamedTuple, get_args

import numpy as np

from treebsde.artifacts import write_csv, write_json
from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import NodeContext, static_value
from treebsde.duality import (
    HJBConfig,
    check_geometric_dpp,
    dual_static_value,
    export_dual_grid_csv,
    export_nodal_set_csv,
    extract_nodal_set,
    solve_dual_hjb,
)
from treebsde.dynutil import (
    OVERSHOOT_LIMIT,
    build_linear_utility,
    check_linear_comparison,
    verify_tau_bound,
)
from treebsde.master import (
    check_forward_dpp,
    check_lipschitz,
    default_illposed_generators,
    illposed_demo,
    master_residual,
)
from treebsde.benchmarks import (
    deterministic_discrete_optimum,
    deterministic_witness_check,
    mv_restoration_check,
    forward_states,
    mv_moment_recursion,
    onedim_restoration_check,
    onedim_witness_check,
    pa_closed_form,
    pa_restoration_check,
    pa_value,
)
from treebsde import problems


class ConfigValidationError(ValueError):
    """Config rejected; .messages carries one diagnostic per field."""

    def __init__(self, messages):
        self.messages = tuple(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class ExperimentConfig:
    # Defaults shared by every experiment that reads the field, unless its
    # branch in EXPERIMENTS declares its own; None: no shared default.
    experiment: str
    seed: int
    output_dir: str = "runs"
    benchmark: str = ""
    T: float = 1.0
    n: int = 8
    mode: str = "path"
    mc_paths: int = 10000
    steps: int = 4096       # Euler steps on [0, 4] (regime-switching ensembles)
    eps: float | None = None  # nodal / inclusion / value tolerance
    value_tol: float = 0.05  # closed-form reproduction tolerance
    refinements: tuple | None = None
    pairs: int = 100
    dx: float = 0.05
    dy: float = 0.05


_REQUIRED = ("experiment", "seed")
_ALWAYS = ("experiment", "seed", "output_dir")  # accepted by every experiment
_ILLPOSED_MAX_N = 10  # illposed-demo's path tree has 2^n leaves
# dynamic-utility-linear's default paths, the most its default steps allow: its
# Euler ensemble stores only the switch record, O(paths + switches), so the cap
# bounds the work of its one Euler pass, (steps + 1) x paths path-steps (the
# floats of a dense ensemble), at this shipped size
_LINEAR_MAX_PATHS = 2000
_LINEAR_MAX_FLOATS = (ExperimentConfig.steps + 1) * _LINEAR_MAX_PATHS
_WITNESS_N = 12  # steps of benchmark-verify's deterministic witness tree
_EXPECTED = {int: "expected integer, got {}", float: "expected number, got {}",
             str: "expected string, got {}", tuple: "expected a list of integers"}


def _kind(field) -> type:
    """A field's type: its annotation less the None of a missing shared default."""
    return next(t for t in get_args(field.type) or (field.type,) if t is not NoneType)


def _is_kind(raw, kind: type) -> bool:
    """Whether a JSON value has a field type's kind; a bool is no number."""
    if kind is tuple:
        return isinstance(raw, (list, tuple)) and all(_is_kind(v, int) for v in raw)
    return not isinstance(raw, bool) and isinstance(
        raw, (int, float) if kind is float else kind)


def accepted_fields(experiment: str, benchmark: str = ""):
    """The config fields an experiment's runner reads, besides experiment, seed
    and output_dir, as a sorted tuple; None when it has no branch for benchmark."""
    fields = EXPERIMENTS[experiment].fields
    branch = fields.get(benchmark if len(fields) > 1 else "")
    return None if branch is None else tuple(branch)


def validate_config(data: dict) -> ExperimentConfig:
    """Typed validation with one diagnostic per offending field.

    Each experiment accepts only the fields its runner reads (see
    accepted_fields); any other field is rejected, never silently ignored.
    Each accepted field left out takes its branch's default from EXPERIMENTS.
    """
    msgs = []
    if not isinstance(data, dict):
        raise ConfigValidationError(["config document must be a JSON object"])
    kinds = {f.name: _kind(f) for f in dc_fields(ExperimentConfig)}
    for key in sorted(set(data) - set(kinds)):
        msgs.append(f"field '{key}': unknown (valid fields: {', '.join(sorted(kinds))})")
    for key in _REQUIRED:
        if key not in data:
            msgs.append(f"field '{key}': required")
    exp = data.get("experiment")
    accepted = None
    if isinstance(exp, str) and exp in EXPERIMENTS:
        branches = EXPERIMENTS[exp].fields
        # the branches of one experiment share their benchmark default
        bench = data.get("benchmark", next(iter(branches.values())).get("benchmark", ""))
        bench = bench if isinstance(bench, str) else ""
        accepted = branches.get(bench if len(branches) > 1 else "")
        where = f"{exp} with benchmark '{bench}'" if len(branches) > 1 else exp
        if accepted is None:
            msgs.append(f"field 'benchmark': {exp} has no branch '{bench}' "
                        f"(valid: {', '.join(map(repr, sorted(branches)))})")
    clean = {}
    for key, raw in data.items():
        if key not in kinds:
            continue
        if accepted is not None and key not in accepted and key not in _ALWAYS:
            msgs.append(f"field '{key}': {where} does not read it "
                        f"(accepted: {', '.join(accepted)})")
            continue
        if not _is_kind(raw, kinds[key]):
            msgs.append(f"field '{key}': "
                        + _EXPECTED[kinds[key]].format(type(raw).__name__))
        elif kinds[key] is float and not abs(raw) <= sys.float_info.max:
            # JSON's NaN and Infinity, or an integer past the float range
            msgs.append(f"field '{key}': must be finite")
        else:
            clean[key] = kinds[key](raw)
    if "experiment" in clean and clean["experiment"] not in EXPERIMENTS:
        msgs.append(f"field 'experiment': unknown '{clean['experiment']}'; valid: "
                    + ", ".join(sorted(EXPERIMENTS)))
    if "seed" in clean and clean["seed"] < 0:
        msgs.append("field 'seed': must be >= 0")
    for key, cond, note in (("n", lambda v: v >= 1, "must be >= 1"),
                            ("mc_paths", lambda v: v >= 1, "must be >= 1"),
                            ("steps", lambda v: v >= 1, "must be >= 1"),
                            ("T", lambda v: v > 0, "must be > 0"),
                            ("pairs", lambda v: v >= 1, "must be >= 1"),
                            ("eps", lambda v: v >= 0, "must be >= 0"),
                            ("value_tol", lambda v: v > 0, "must be > 0"),
                            ("dx", lambda v: v > 0, "must be > 0"),
                            ("dy", lambda v: v > 0, "must be > 0"),
                            ("refinements", lambda v: all(r >= 2 for r in v),
                             "every entry must be >= 2")):
        if key in clean and not cond(clean[key]):
            msgs.append(f"field '{key}': {note}")
    if clean.get("experiment") == "illposed-demo" and clean.get("n", 1) > _ILLPOSED_MAX_N:
        msgs.append(f"field 'n': illposed-demo runs on at most {_ILLPOSED_MAX_N} "
                    f"tree steps, got {clean['n']}")
    steps = clean.get("steps", ExperimentConfig.steps)
    paths = clean.get("mc_paths", _LINEAR_MAX_PATHS)
    if (clean.get("experiment") == "dynamic-utility-linear" and steps >= 1
            and (steps + 1) * paths > _LINEAR_MAX_FLOATS):
        at = "" if steps == ExperimentConfig.steps else f" at field 'steps' = {steps}"
        msgs.append(f"field 'mc_paths': dynamic-utility-linear stores only its "
                    f"switch record but runs one Euler pass, the work of a dense "
                    f"Euler ensemble ((steps + 1) x paths path-steps, at most "
                    f"{_LINEAR_MAX_FLOATS}) and runs at most "
                    f"{_LINEAR_MAX_FLOATS // (steps + 1)} paths{at}, got {paths}")
    if clean.get("experiment") == "master-residual" and clean.get("n", 2) < 2:
        msgs.append(f"field 'n': master-residual needs at least 2 tree steps for "
                    f"its left time-difference, got {clean['n']}")
    if accepted is not None and bench == "principal_agent" and clean.get("n", 2) < 2:
        msgs.append(f"field 'n': principal_agent re-optimizes at level n // 2, which "
                    f"its stale-control-group-violates needs >= 1 (at t = 0 the stale "
                    f"start equals the restored one); got {clean['n']}")
    if "mode" in clean and clean["mode"] not in ("path", "recombining"):
        msgs.append("field 'mode': must be 'path' or 'recombining'")
    if msgs:
        raise ConfigValidationError(msgs)
    return ExperimentConfig(**(accepted | clean))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigValidationError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config is not valid JSON: {exc}"]) from exc
    return validate_config(data)


def _config_document(cfg: ExperimentConfig) -> dict:
    """The fields cfg's experiment accepts, defaults filled in, as JSON values;
    not output_dir, since the report lives there."""
    keep = _REQUIRED + accepted_fields(cfg.experiment, cfg.benchmark)
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(cfg).items() if k in keep}


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(_config_document(cfg), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]


def run_directory(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.output_dir,
                        f"{cfg.experiment}-{cfg.seed}-{config_hash(cfg)}")


def _check(name: str, passed, value=None, bound=None, flagged=False, **extra):
    out = {"name": name, "passed": bool(passed), "flagged": bool(flagged)}
    if value is not None:
        out["value"] = float(value) if isinstance(value, (int, float, np.floating)) else value
    if bound is not None:
        out["bound"] = float(bound) if isinstance(bound, (int, float, np.floating)) else bound
    for k, v in extra.items():
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        out[k] = v
    return out


def _tree(cfg: ExperimentConfig, n=None, mode=None):
    return build_tree(TimeGrid(cfg.T, cfg.n if n is None else n), d=1,
                      mode=mode or cfg.mode)


# ---------------------------------------------------------------------------
# experiments


def _run_static_value(cfg: ExperimentConfig, out_dir: str):
    bench = problems.benchmark(cfg.benchmark, cfg.T)
    tree = _tree(cfg)
    sv = static_value(bench.problem, tree)
    checks = [_check("value-within-tolerance",
                     abs(sv.value - bench.optimal_value) <= cfg.eps,
                     value=sv.value, bound=cfg.eps, target=bench.optimal_value)]
    write_csv(os.path.join(out_dir, "value.csv"),
              ("n", "dt", "value", "enumerated", "heuristic"),
              [(tree.n, tree.dt, sv.value, sv.enumerated, sv.heuristic)])
    return checks, {"value": float(sv.value), "heuristic": sv.heuristic}, ["value.csv"]


def _restoration_checks(check, levels, n: int) -> list:
    """restoration-exact and stale-control-group-violates from the
    RestorationReports of check(restored=True) and check(restored=False) on
    levels; with no level to check, both fail with a reason."""
    if not levels:
        why = f"no restoration level lies in [1, n - 1] at n = {n}"
        return [_check("restoration-exact", False, reason=why),
                _check("stale-control-group-violates", False, reason=why)]
    rest, stale = check(True), check(False)
    return [_check("restoration-exact", rest.violations == 0,
                   value=rest.violations, nodes=rest.nodes_checked),
            _check("stale-control-group-violates",
                   stale.violations >= 1, value=stale.violations)]


def _run_benchmark_verify(cfg: ExperimentConfig, out_dir: str):
    bench = problems.benchmark(cfg.benchmark, cfg.T)
    checks, rows = [], []
    if bench.identifier == "deterministic":
        tree = _tree(cfg, mode="recombining")
        sv = static_value(bench.problem, tree)
        checks.append(_check("analytic-value", abs(sv.value - 0.5) <= cfg.eps,
                             value=sv.value, bound=cfg.eps, target=0.5))
        disc = deterministic_discrete_optimum(cfg.T, cfg.n)
        checks.append(_check("scheme-optimum-identity",
                             abs(sv.value - disc) <= 1e-12,
                             value=sv.value, bound=1e-12, target=disc))
        tree_w = _tree(cfg, n=_WITNESS_N, mode="recombining")
        lvl = max(1, round(0.5 * _WITNESS_N / cfg.T))
        wit = deterministic_witness_check(bench, tree_w, lvl)
        checks.append(_check("witness-strict-margin",
                             wit.all_flip and wit.min_margin > 0,
                             value=wit.min_margin, bound=0.0, n=_WITNESS_N))
        rows.append(("value", sv.value, 0.5))
        rows.append(("witness_margin", wit.min_margin, 0.0))
    elif bench.identifier == "one_dim":
        u_grid = np.asarray(bench.problem.control_values)
        best = float(np.max(bench.problem.phi((u_grid * cfg.T)[:, None])))
        checks.append(_check("constant-control-value",
                             abs(best - bench.optimal_value) <= 1e-12,
                             value=best, bound=1e-12,
                             target=bench.optimal_value))
        tree = _tree(cfg, mode="path")
        wit = onedim_witness_check(bench, tree)
        checks.append(_check("witness-nodes-flip",
                             bool(wit.nodes) and wit.all_flip,
                             value=wit.min_margin, bound=0.0, nodes=len(wit.nodes)))
        levels = sorted({cfg.n - 2, cfg.n - 1} & set(range(1, cfg.n)))
        checks += _restoration_checks(
            lambda restored: onedim_restoration_check(bench, tree, levels, restored),
            levels, cfg.n)
        rows.append(("value", best, bench.optimal_value))
        rows.append(("witness_margin", wit.min_margin, 0.0))
    elif bench.identifier == "mean_variance":
        tree = _tree(cfg, mode="path")
        v = static_value(bench.problem, tree).value
        checks.append(_check("analytic-value", abs(v - bench.optimal_value) <= cfg.eps,
                             value=v, bound=cfg.eps, target=bench.optimal_value))
        xT = forward_states(tree, bench.forward, bench.analytic["feedback"])[-1]
        p = tree.probs[tree.n]
        x0 = bench.analytic["x0"]
        m1, m2 = mv_moment_recursion(x0, x0 ** 2,
                                     bench.analytic["a_star"], -1.0,
                                     0.0, cfg.T, tree.n)
        dev = max(abs(float(np.sum(p * xT)) - float(m1)),
                  abs(float(np.sum(p * xT * xT)) - float(m2)))
        checks.append(_check("moment-recursion-identity", dev <= 1e-10, value=dev,
                             bound=1e-10))
        levels = tuple(sorted({max(1, cfg.n // 6), cfg.n // 3, cfg.n // 2,
                               2 * cfg.n // 3} - {0, cfg.n}))
        checks += _restoration_checks(
            lambda restored: mv_restoration_check(bench, tree, levels, restored),
            levels, cfg.n)
        rows.append(("value", v, bench.optimal_value))
    elif bench.identifier == "principal_agent":
        tree = _tree(cfg, mode="path")
        us = bench.analytic["u_star"]
        cand = (us - 0.1, us, us + 0.1)
        vals = [float(pa_value(bench, tree, u)[0]) for u in cand]
        checks.append(_check("probe-grid-optimal",
                             int(np.argmax(vals)) == 1, value=vals[1],
                             candidates=list(cand)))
        closed = pa_closed_form(bench, tree, us)
        # the tree value is the closed form's product up to rounding: at most
        # 8 ulps of |closed| per step
        tol = cfg.n * 8 * np.finfo(float).eps * abs(closed)
        checks.append(_check("closed-form-value", abs(vals[1] - closed) <= tol,
                             value=vals[1], bound=tol, target=closed))
        level = cfg.n // 2  # validate_config refuses level 0
        rest = pa_restoration_check(bench, tree, level, restored=True)
        stale = pa_restoration_check(bench, tree, level, restored=False)
        checks.append(_check("restoration-exact", rest.all_match,
                             value=rest.max_contract_deviation, bound=1e-12,
                             argmax_matches=rest.argmax_matches,
                             nodes=rest.argmax_total))
        checks.append(_check("stale-control-group-violates", not stale.all_match,
                             value=stale.max_contract_deviation))
        rows.append(("value_at_u_star", vals[1], closed))
    write_csv(os.path.join(out_dir, "summary.csv"),
              ("quantity", "measured", "reference"), rows)
    return checks, {"benchmark": bench.identifier}, ["summary.csv"]


def _run_duality(cfg: ExperimentConfig, out_dir: str):
    checks, files = [], []
    if cfg.benchmark == "deterministic":
        problems.benchmark("deterministic", cfg.T)  # the 0.5 target needs T > 1
        config = HJBConfig(y_bounds=(-2.0, 2.0), dy=cfg.dy)
        dual = solve_dual_hjb(problems.transport_dual_spec(),
                              TimeGrid(cfg.T, cfg.n), config)
        nodal = extract_nodal_set(dual, 0, eps=cfg.eps)
        value = dual_static_value(nodal, lambda y: y[..., 0])
        checks.append(_check("dual-analytic-value",
                             abs(value - 0.5) <= cfg.value_tol, value=value,
                             bound=cfg.value_tol, target=0.5))
        export_nodal_set_csv(nodal, dual.times, os.path.join(out_dir, "nodal_set.csv"))
        files.append("nodal_set.csv")
        extras = {"flavor": "deterministic-transport", "eps": nodal.eps,
                  "value": value}
    else:
        config = HJBConfig(x_bounds=(-2.0, 2.0), dx=cfg.dx,
                           y_bounds=(-2.0, 2.0), dy=cfg.dy,
                           z_values=(-1.0, 0.0, 1.0))
        dual = solve_dual_hjb(problems.quadratic_dual_spec(),
                              TimeGrid(cfg.T, cfg.n), config)
        xs, ys = dual.axes
        mx, my = dual.trusted_interior()
        ref = (ys[None, :] - xs[:, None]) ** 2
        err = float(np.abs(dual.at(0) - ref)[np.ix_(mx, my)].max())
        # the scheme is exact on the quadratic W, so only rounding is left:
        # at most 8 ulps of max |W_T| per substep
        tol = (cfg.n * dual.substeps * 8 * np.finfo(float).eps
               * float(np.abs(dual.at(cfg.n)).max()))
        checks.append(_check("closed-form-error", err <= tol, value=err,
                             bound=tol))
        ix = int(np.argmin(np.abs(xs)))
        nodal = extract_nodal_set(dual, 0, x_index=ix)
        dist = (float(np.min(np.abs(nodal.points[:, 0])))
                if len(nodal.points) else np.inf)
        checks.append(_check("nodal-at-origin", dist <= cfg.dy * (1 + 1e-9),
                             value=dist, bound=cfg.dy))
        export_dual_grid_csv(dual, os.path.join(out_dir, "dual_grid.csv"))
        files.append("dual_grid.csv")
        extras = {"flavor": "markovian", "closed_form_error": err}
    return checks, extras, files


def _run_geometric_dpp(cfg: ExperimentConfig, out_dir: str):
    ns = sorted(set(cfg.refinements))
    checks, rows = [], []
    for name, problem, z_values, pts in problems.geometric_dpp_cases():
        rhos, holds = [], []
        for n in ns:
            tree = build_tree(TimeGrid(cfg.T, n), d=1, mode="path")
            rep = check_geometric_dpp(problem, tree, n - 2, n - 1, cfg.eps, pts, z_values)
            rho = max(rep.rho_into, rep.rho_back)
            rhos.append(rho)
            holds.append(rep.inclusions_hold)
            rows.append((name, n, cfg.eps, rep.rho_into, rep.rho_back,
                         rep.inclusions_hold))
            checks.append(_check(f"{name}-inclusions-n{n}", rep.inclusions_hold,
                                 value=rho, nodal=rep.nodal_count,
                                 steerable=rep.steerable_count))
        if len(ns) < 2:
            checks.append(_check(f"{name}-slack-shrinks", False,
                                 reason=f"needs two distinct refinements, got {ns}"))
            continue
        # a slack is measured only where its inclusions hold; shown is the
        # refinement step where it grows most (or shrinks least)
        i = max(range(len(ns) - 1), key=lambda i: rhos[i + 1] - rhos[i])
        checks.append(_check(f"{name}-slack-shrinks",
                             all(holds) and rhos[i + 1] <= rhos[i],
                             value=rhos[i + 1], bound=rhos[i]))
    write_csv(os.path.join(out_dir, "slack.csv"),
              ("problem", "n", "eps", "rho_into", "rho_back", "inclusions"),
              rows)
    return checks, {"refinements": ns, "eps": cfg.eps}, ["slack.csv"]


def _run_dynamic_utility_linear(cfg: ExperimentConfig, out_dir: str):
    coeffs, problem = problems.linear_setup()
    tree = build_tree(TimeGrid(0.5, 2), d=1, mode="path")
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.0)
    rep = check_linear_comparison(lin, problem, tree, seed=cfg.seed)
    # with no pair checked, neither check has looked at a solve
    why = {} if rep.pairs_checked else {"reason": "no pair meets the premise"}
    checks = [
        _check("comparison-no-violations", rep.pairs_checked and not rep.violations,
               value=len(rep.violations), pairs=rep.pairs_checked,
               policies=rep.policies_per_pair, **why),
        _check("recursion-residual", rep.pairs_checked and rep.recursion_residual <= 1e-10,
               value=rep.recursion_residual, bound=1e-10, **why),
        _check("monotone-weights", rep.min_monotone >= 0.0,
               value=rep.min_monotone, bound=0.0),
    ]

    grid = TimeGrid(4.0, cfg.steps)
    switching = problems.switch_coeffs()
    ev = build_linear_utility(switching, grid=grid, n_paths=cfg.mc_paths,
                              seed=cfg.seed).events
    sdt = np.sqrt(grid.dt)
    # a switch inverts a ratio with |ratio| in [2, 2 + limit]
    lo, hi = 1.0 / (2.0 + OVERSHOOT_LIMIT) - 1e-12, 0.5 + 1e-12
    # one Euler increment of either weight: entries bounded by coeffs.bound,
    # the frozen ratio stays below 2 + limit, so |dA| <= K (|A1| + |A2|)
    step_coef = switching.bound * (2.0 + OVERSHOOT_LIMIT + 1.0) * (grid.dt + sdt)
    ah = np.abs(ev.ahat)
    band_ok = bool(np.all((ah >= lo) & (ah <= hi)))
    allowed = step_coef * (np.abs(ev.A1_before) + np.abs(ev.A2_before)) + 1e-15
    jump = np.maximum(np.abs(ev.A1 - ev.A1_before), np.abs(ev.A2 - ev.A2_before))
    cont_ok = bool(np.all(jump <= allowed))
    n_switches = len(ev.level)
    checks.append(_check("switch-band", band_ok and ev.overshoot <= OVERSHOOT_LIMIT,
                         value=ev.overshoot, bound=OVERSHOOT_LIMIT,
                         switches=n_switches))
    checks.append(_check("weight-continuity-at-switches", cont_ok,
                         value=n_switches))
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ("pairs", "policies", "violations", "recursion_residual",
               "min_monotone"),
              [(rep.pairs_checked, rep.policies_per_pair, len(rep.violations),
                rep.recursion_residual, rep.min_monotone)])
    return checks, {"ensemble_switch_steps": len(np.unique(ev.level))}, ["comparison.csv"]


def _run_tau_bound(cfg: ExperimentConfig, out_dir: str):
    rep = verify_tau_bound(problems.switch_coeffs(), T=4.0,
                           switch_indices=tuple(range(1, 7)), steps=cfg.steps,
                           n_paths=cfg.mc_paths, seed=cfg.seed)
    checks = [_check(f"tau-{row.switch_index}-bound", row.passed,
                     value=row.frequency, bound=row.bound,
                     flagged=row.vacuous)
              for row in rep.rows]
    for row in rep.one_step:
        checks.append(_check(f"one-step-after-{row.after_switch}", row.passed,
                             value=row.frequency,
                             conditioning=row.conditioning_count))
    checks.append(_check("overshoot", rep.overshoot <= OVERSHOOT_LIMIT,
                         value=rep.overshoot, bound=OVERSHOOT_LIMIT))
    write_csv(os.path.join(out_dir, "tau_bound.csv"),
              ("switch_index", "frequency", "std_error", "bound", "vacuous",
               "passed"),
              [(r.switch_index, r.frequency, r.std_error, r.bound, r.vacuous,
                r.passed) for r in rep.rows])
    return checks, {"delta": rep.delta, "C_hat": rep.C_hat, "m": rep.m}, \
        ["tau_bound.csv"]


def _run_forward_dpp(cfg: ExperimentConfig, out_dir: str):
    p_scalar = problems.scalar_drift_problem()
    cases = (
        ("scalar-drift", p_scalar,
         build_tree(TimeGrid(cfg.T, 3), d=1, mode="path"), 1, 3),
        ("coupled-two-dim", problems.coupled_two_dim_problem(),
         build_tree(TimeGrid(cfg.T, 2), d=1, mode="path"), 1, 2),
        ("deterministic-controls", problems.level_controls_problem(),
         build_tree(TimeGrid(cfg.T, 6), d=1, mode="recombining"), 3, 6),
    )
    checks, rows = [], []
    for name, prob, tree, t1, t2 in cases:
        ctx = NodeContext(level=t2, b=tree.values[t2], tree=tree)
        eta = np.asarray(prob.terminal(ctx), dtype=float)
        rep = check_forward_dpp(prob, tree, t1, t2, eta)
        checks.append(_check(f"{name}-residual", rep.residual <= 1e-12,
                             value=rep.residual, bound=1e-12))
        rows.append((name, tree.n, t1, t2, rep.residual))
    tree = build_tree(TimeGrid(cfg.T, 2), d=1, mode="path")
    rng = np.random.default_rng(np.random.Philox(cfg.seed))
    m = tree.node_count(2)
    pairs = [(rng.normal(size=(m, 1)), rng.normal(size=(m, 1)))
             for _ in range(cfg.pairs)]
    lrep = check_lipschitz(p_scalar, tree, 2, pairs)
    why = {} if lrep.pairs_checked else {
        "reason": f"all {lrep.skipped} pairs closer than 1e-14; none checked"}
    checks.append(_check("lipschitz-transport-bound", lrep.passed,
                         value=lrep.max_ratio, bound=lrep.bound,
                         pairs=lrep.pairs_checked, **why))
    write_csv(os.path.join(out_dir, "residuals.csv"),
              ("case", "n", "t1", "t2", "residual"), rows)
    return checks, {"lipschitz_ratio": lrep.max_ratio}, ["residuals.csv"]


def _run_master_residual(cfg: ExperimentConfig, out_dir: str):
    problem = problems.control_free_problem()
    # dt halves twice around n; once, from n, when n is odd or below 4 (a tree
    # needs 2 steps for the left time-difference). Every tree measures the
    # residual at one time, level ns[0] // 2 of the coarsest tree.
    ns = (cfg.n // 2, cfg.n, 2 * cfg.n) if cfg.n % 2 == 0 and cfg.n >= 4 else (
        cfg.n, 2 * cfg.n)
    rows, res = [], []
    for n in ns:
        tree = build_tree(TimeGrid(cfg.T, n), d=1, mode="recombining")
        rep = master_residual(problem, tree, problems.exp_cylinder(),
                              level=ns[0] // 2 * (n // ns[0]))
        res.append(abs(rep.residual))
        rows.append((n, tree.dt, rep.residual, rep.left_time_term,
                     rep.drift_term, rep.sup_term))
    checks = []
    for i in range(1, len(res)):
        ratio = res[i - 1] / res[i] if res[i] > 0 else np.inf
        checks.append(_check(f"halving-ratio-{ns[i - 1]}-to-{ns[i]}",
                             1.5 <= ratio <= 3.0, value=ratio,
                             bound=[1.5, 3.0]))
    write_csv(os.path.join(out_dir, "residuals.csv"),
              ("n", "dt", "residual", "left_time_term", "drift_term",
               "sup_term"), rows)
    return checks, {"residuals": [float(r) for r in res]}, ["residuals.csv"]


def _run_illposed_demo(cfg: ExperimentConfig, out_dir: str):
    tree = build_tree(TimeGrid(cfg.T, cfg.n), d=1, mode="path")
    rep = illposed_demo(tree)
    f1, _ = default_illposed_generators()
    control = illposed_demo(tree, f1=f1, f2=f1)
    checks = [
        _check("gap-equals-horizon", abs(rep.gap - cfg.T) <= 1e-12,
               value=rep.gap, bound=1e-12, target=cfg.T),
        _check("shared-derivative-sup-identical", rep.sup_terms_identical,
               value=[rep.sup_term_1, rep.sup_term_2]),
        _check("witness", rep.witness, value=rep.gap, z_dependent=rep.z_dependent),
        _check("control-group-non-witness", not control.witness,
               value=control.gap),
    ]
    write_csv(os.path.join(out_dir, "gap.csv"),
              ("psi_1", "psi_2", "gap", "sup_term_1", "sup_term_2"),
              [(rep.psi_1, rep.psi_2, rep.gap, rep.sup_term_1, rep.sup_term_2)])
    return checks, {"psi_1": rep.psi_1, "psi_2": rep.psi_2}, ["gap.csv"]


class Experiment(NamedTuple):
    runner: Callable
    description: str
    # benchmark value -> {field: default} for each config field the runner reads
    # besides experiment, seed and output_dir, sorted by field; a single '' key
    # where the runner never reads benchmark.
    fields: dict


_SHARED = {f.name: f.default for f in dc_fields(ExperimentConfig)}


def _branch(names: str = "", **defaults) -> dict:
    """Fields read with ExperimentConfig's default (names) or with their own."""
    return {**{k: _SHARED[k] for k in names.split()}, **defaults}


def _fields(common: dict, branches: dict | None = None) -> dict:
    """Per benchmark value: common's fields plus the branch's own."""
    return {bench: dict(sorted({**common, **more}.items()))
            for bench, more in (branches or {"": {}}).items()}


EXPERIMENTS = {
    "static-value": Experiment(
        _run_static_value,
        "Exact root value of a benchmark on a scenario tree, by policy "
        "enumeration or the deterministic attainable-point frontier.",
        _fields(_branch("n mode", benchmark="deterministic", eps=0.05), {
            "deterministic": _branch(T=2.0, n=64, mode="recombining"),
            "one_dim": _branch("T"),
            "mean_variance": _branch("T")})),
    "duality": Experiment(
        _run_duality,
        "Finite-difference dual PDE solve, nodal-set extraction, and the "
        "closed-form value bridge.",
        _fields(_branch("benchmark n dy"), {
            "": _branch("T dx"),
            # eps None: computed from the solved grid
            "deterministic": _branch("eps value_tol", T=2.0, n=64, dy=0.04)})),
    "geometric-dpp": Experiment(
        _run_geometric_dpp,
        "Set-inclusion dynamic programming on tree dual values: epsilon-"
        "membership slack under grid refinement.",
        _fields(_branch("T", eps=0.35, refinements=(4, 8)))),
    "dynamic-utility-linear": Experiment(
        _run_dynamic_utility_linear,
        "Linear dynamic-utility construction with regime switching: exact "
        "recursion, comparison check, switch band and continuity.",
        _fields(_branch("steps", mc_paths=_LINEAR_MAX_PATHS))),
    "tau-bound": Experiment(
        _run_tau_bound,
        "Monte Carlo switch-time frequencies against the combinatorial "
        "(2n)^m/2^n bound with the fitted step-budget delta.",
        _fields(_branch("mc_paths steps"))),
    "forward-dpp": Experiment(
        _run_forward_dpp,
        "Concatenation identity of the forward value under full enumeration, "
        "plus the Lipschitz transport bound on seeded pairs.",
        _fields(_branch("T pairs"))),
    "master-residual": Experiment(
        _run_master_residual,
        "Stationarity defect of the forward value along a smooth cylinder, "
        "halving with dt on the control-free linear case.",
        _fields(_branch("T n"))),
    "illposed-demo": Experiment(
        _run_illposed_demo,
        "Two generators agreeing at z = 0: identical sup-terms under a shared "
        "derivative input, forward values a horizon apart.",
        _fields(_branch("T n"))),
    "benchmark-verify": Experiment(
        _run_benchmark_verify,
        "Closed-form benchmark reproduction through the generic machinery: "
        "values, witnesses, restoration and control groups.",
        _fields(_branch("n", benchmark="deterministic"), {
            "deterministic": _branch(T=2.0, n=64, eps=0.05),
            "one_dim": _branch("T"),
            "mean_variance": _branch("T", eps=0.1),
            "principal_agent": _branch("T")})),
}


@dataclass(frozen=True)
class ExperimentResult:
    report: dict
    passed: bool
    out_dir: str


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and write its report.json.

    Every warning the runner raises is recorded, whatever the warning filters,
    and the report lists their distinct messages, in first-seen order, as
    `diagnostics`; a run that raises none has no such field. Each distinct
    warning is then issued again at its own location, also when the runner
    fails, for the caller's filters to show or ignore.
    """
    runner, description, _ = EXPERIMENTS[cfg.experiment]
    out_dir = run_directory(cfg)
    os.makedirs(out_dir, exist_ok=True)
    caught, first = [], {}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            checks, extras, files = runner(cfg, out_dir)
    finally:
        for w in caught:
            first.setdefault(str(w.message), w)
        for w in first.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    passed = all(c["passed"] for c in checks)
    report = {
        "experiment": cfg.experiment,
        "description": description,
        "config": _config_document(cfg),
        "config_hash": config_hash(cfg),
        "checks": checks,
        "details": extras,
        "artifacts": sorted(files + ["report.json"]),
        "passed": passed,
    }
    if first:
        report["diagnostics"] = list(first)
    write_json(os.path.join(out_dir, "report.json"), report)
    return ExperimentResult(report=report, passed=passed, out_dir=out_dir)
