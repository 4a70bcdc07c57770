"""End-to-end acceptance suite: ten numbered checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-check
``ACCEPTANCE k: PASS/FAIL`` lines inline.  Every tolerance is stated next to
the assertion; the mesh widths, membership tolerances, and probe levels used
by the grid-based checks are frozen calibration constants measured once on
this scheme and kept fixed here so regressions surface as hard failures.
"""
import time

import numpy as np
import pytest

from treebsde.lattice import (
    TimeGrid,
    build_tree,
    conditional_expectation,
)
from treebsde.bsde import (
    BSDEProblem,
    NodeContext,
    reachable_set,
    solve_bsde,
    static_value,
)
from treebsde.duality import (
    HJBConfig,
    check_geometric_dpp,
    dual_static_value,
    extract_nodal_set,
    solve_dual_hjb,
)
from treebsde.dynutil import (
    build_linear_utility,
    check_comparison,
    check_linear_comparison,
    make_comparison_pairs,
    static_utility,
    switch_events,
    verify_tau_bound,
)
from treebsde.master import (
    check_forward_dpp,
    check_lipschitz,
    illposed_demo,
    master_residual,
)
from treebsde.benchmarks import (
    deterministic_witness_check,
    mv_restoration_check,
    onedim_restoration_check,
    onedim_witness_check,
    pa_restoration_check,
)
from treebsde.experiments import run_experiment, validate_config
from treebsde import problems


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance check {num} failed: {detail}"


def _hausdorff(first: np.ndarray, second: np.ndarray) -> float:
    def one_sided(P, Q):
        worst = 0.0
        for i in range(0, len(P), 256):
            d = np.linalg.norm(P[i:i + 256, None, :] - Q[None, :, :],
                               axis=2).min(axis=1)
            worst = max(worst, float(d.max()))
        return worst

    return max(one_sided(first, second), one_sided(second, first))


# ---------------------------------------------------------------------------
# 1. root value through the primal enumeration and the dual nodal set


def test_acceptance_01_root_value_primal_and_dual():
    target = 0.5
    parts = []
    ok = True
    for n, tol in ((64, 5e-2), (256, 1e-2)):
        bench = problems.benchmark("deterministic", 2.0)
        tree = build_tree(TimeGrid(2.0, n), d=1, mode="recombining")
        t0 = time.monotonic()
        sv = static_value(bench.problem, tree)
        elapsed = time.monotonic() - t0
        err = abs(sv.value - target)
        ok = ok and err <= tol and elapsed < 60.0
        parts.append(f"primal n={n}: err={err:.2e} (tol {tol:g}, "
                     f"{elapsed:.1f}s)")
    # calibrated dual meshes: (mesh width, nodal tolerance as a mesh fraction)
    for n, dy, efac, tol in ((64, 0.04, 0.15, 5e-2), (256, 0.008, 0.12, 1e-2)):
        t0 = time.monotonic()
        dual = solve_dual_hjb(problems.transport_dual_spec(),
                              TimeGrid(2.0, n),
                              HJBConfig(y_bounds=(-2.0, 2.0), dy=dy))
        nodal = extract_nodal_set(dual, 0, eps=efac * dy)
        value = dual_static_value(nodal, lambda y: y[..., 0])
        elapsed = time.monotonic() - t0
        err = abs(value - target)
        ok = ok and err <= tol and elapsed < 60.0
        parts.append(f"dual n={n}: err={err:.2e} (tol {tol:g}, {elapsed:.1f}s)")
    _verdict(1, ok, "V0=1/2 via both routes; " + "; ".join(parts))


# ---------------------------------------------------------------------------
# 2. time-t re-optimization strictly departs from the frozen time-0 optimum


def test_acceptance_02_reoptimization_witnesses():
    det = problems.benchmark("deterministic", 2.0)
    det_tree = build_tree(TimeGrid(2.0, 8), d=1, mode="recombining")
    det_wit = deterministic_witness_check(det, det_tree, level=2)

    od = problems.benchmark("one_dim", 2.4)
    od_tree = build_tree(TimeGrid(2.4, 8), d=1, mode="path")
    od_wit = onedim_witness_check(od, od_tree)

    ok = (det_wit.all_flip and det_wit.min_margin > 0.0
          and bool(od_wit.nodes) and od_wit.all_flip
          and od_wit.min_margin > 0.0)
    _verdict(2, ok,
             f"deterministic re-opt margin {det_wit.min_margin:.4f} > 0 with "
             f"the switch-on inside the open window; one-dim witness set "
             f"({len(od_wit.nodes)} nodes) all re-opt to +1, margin "
             f"{od_wit.min_margin:.4f} > 0")


# ---------------------------------------------------------------------------
# 3. restoring parameter processes make every node agree with time 0


@pytest.mark.filterwarnings("ignore:dt = 0.4")
def test_acceptance_03_restoration_vs_stale_control_groups():
    mv = problems.benchmark("mean_variance", 1.0)
    mv_tree = build_tree(TimeGrid(1.0, 12), d=1, mode="path")
    mv_rest = mv_restoration_check(mv, mv_tree, levels=(2, 4, 6, 8),
                                   restored=True)
    mv_stale = mv_restoration_check(mv, mv_tree, levels=(2, 4, 6, 8),
                                    restored=False)

    od = problems.benchmark("one_dim", 2.4)
    od_tree = build_tree(TimeGrid(2.4, 6), d=1, mode="path")
    od_rest = onedim_restoration_check(od, od_tree, levels=(4, 5),
                                       restored=True)
    od_stale = onedim_restoration_check(od, od_tree, levels=(4, 5),
                                        restored=False)

    pa = problems.benchmark("principal_agent", 1.0)
    pa_tree = build_tree(TimeGrid(1.0, 8), d=1, mode="path")
    pa_rest = pa_restoration_check(pa, pa_tree, level=4, restored=True)
    pa_stale = pa_restoration_check(pa, pa_tree, level=4, restored=False)

    ok = (mv_rest.violations == 0 and mv_stale.violations >= 1
          and od_rest.violations == 0 and od_stale.violations >= 1
          and pa_rest.all_match and pa_rest.max_contract_deviation <= 1e-12
          and not pa_stale.all_match)
    _verdict(3, ok,
             f"mean-variance {mv_rest.nodes_checked} nodes exact / stale "
             f"{mv_stale.violations} violations; one-dim "
             f"{od_rest.nodes_checked} nodes exact / stale "
             f"{od_stale.violations} violations; principal-agent argmax "
             f"{pa_rest.argmax_matches}/{pa_rest.argmax_total} with contract "
             f"deviation {pa_rest.max_contract_deviation:.1e} / stale "
             f"mismatch")


# ---------------------------------------------------------------------------
# 4. dual PDE against the quadratic closed form and the reachable set


def test_acceptance_04_dual_pde_closed_form_and_nodal_geometry():
    # control-free quadratic case: W(0, x, y) = (y - x)^2, nodal set {y = x}
    config = HJBConfig(x_bounds=(-2.0, 2.0), dx=0.05,
                       y_bounds=(-2.0, 2.0), dy=0.05,
                       z_values=(-1.0, 0.0, 1.0))
    dual = solve_dual_hjb(problems.quadratic_dual_spec(), TimeGrid(1.0, 8),
                          config)
    xs, ys = dual.axes
    mx, my = dual.trusted_interior()
    closed = (ys[None, :] - xs[:, None]) ** 2
    err = float(np.abs(dual.W[0] - closed)[np.ix_(mx, my)].max())
    ix = int(np.argmin(np.abs(xs)))
    nodal0 = extract_nodal_set(dual, 0, x_index=ix)
    origin_dist = (float(np.min(np.abs(nodal0.points[:, 0])))
                   if len(nodal0.points) else np.inf)

    # deterministic steering: nodal set vs the enumerated reachable set,
    # measured at calibrated late levels where the remaining-horizon smear
    # stays below two mesh cells
    det = problems.benchmark("deterministic", 2.0)
    distances = []
    ok_h = True
    for n, dy, efac, k in ((8, 0.1, 0.3, 6), (16, 0.05, 0.2, 14)):
        tree = build_tree(TimeGrid(2.0, n), d=1, mode="recombining")
        # the transport f ignores t, so W at level k is level 0 of the solve
        # over the last n - k levels: the same substeps, bit for bit
        dual_det = solve_dual_hjb(problems.transport_dual_spec(),
                                  TimeGrid(2.0 * (n - k) / n, n - k),
                                  HJBConfig(y_bounds=(-2.0, 3.0), dy=dy))
        nodal = extract_nodal_set(dual_det, 0, eps=efac * dy)
        rpts = np.asarray(reachable_set(det.problem, tree, k)[0])
        dh = _hausdorff(nodal.points, rpts)
        ok_h = ok_h and len(nodal.points) > 0 and dh <= 2.0 * dy + 1e-9
        distances.append(dh)

    ok = (err <= 0.05 and origin_dist <= 0.05 + 1e-12
          and ok_h and distances[1] < distances[0])
    _verdict(4, ok,
             f"interior max |W - (y-x)^2| = {err:.4f} <= 0.05; nodal point "
             f"{origin_dist:.4f} from 0 (one cell = 0.05); nodal-vs-reachable "
             f"Hausdorff {distances[0]:.4f} -> {distances[1]:.4f} "
             f"(<= 2 cells each, decreasing)")


# ---------------------------------------------------------------------------
# 5. geometric dynamic programming: epsilon-inclusions with shrinking slack


def test_acceptance_05_geometric_dpp_slack_shrinks():
    eps = 0.35
    parts = []
    ok = True
    for name, problem, z_values, pts in problems.geometric_dpp_cases():
        rhos = []
        for n in (4, 8):
            tree = build_tree(TimeGrid(1.0, n), d=1, mode="path")
            rep = check_geometric_dpp(problem, tree, n - 2, n - 1, eps, pts, z_values)
            ok = ok and rep.inclusions_hold
            rhos.append(max(rep.rho_into, rep.rho_back))
        ok = ok and rhos[1] <= rhos[0]
        parts.append(f"{name}: rho {rhos[0]:.4f} -> {rhos[1]:.4f}")
    _verdict(5, ok, f"eps={eps} inclusions hold on both problems with "
                    + "; ".join(parts))


# ---------------------------------------------------------------------------
# 6. forward concatenation identity and the Lipschitz transport bound


def test_acceptance_06_forward_dpp_enumeration_and_lipschitz():
    p_scalar = problems.scalar_drift_problem()
    cases = (
        ("scalar-drift", p_scalar,
         build_tree(TimeGrid(1.0, 3), d=1, mode="path"), 1, 3),
        ("coupled-two-dim", problems.coupled_two_dim_problem(),
         build_tree(TimeGrid(1.0, 2), d=1, mode="path"), 1, 2),
        ("level-controls", problems.level_controls_problem(),
         build_tree(TimeGrid(1.0, 6), d=1, mode="recombining"), 3, 6),
    )
    ok = True
    parts = []
    for name, prob, tree, t1, t2 in cases:
        ctx = NodeContext(level=t2, b=tree.values[t2], tree=tree)
        eta = np.asarray(prob.terminal(ctx), dtype=float)
        rep = check_forward_dpp(prob, tree, t1, t2, eta)
        ok = ok and rep.residual <= 1e-12
        parts.append(f"{name}: residual {rep.residual:.1e}")

    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    rng = np.random.default_rng(np.random.Philox(17))
    m = tree.node_count(2)
    pairs = [(rng.normal(size=(m, 1)), rng.normal(size=(m, 1)))
             for _ in range(100)]
    lrep = check_lipschitz(p_scalar, tree, 2, pairs)
    ok = (ok and lrep.pairs_checked == 100 and lrep.passed
          and lrep.max_ratio <= lrep.bound)
    _verdict(6, ok,
             "full enumeration " + "; ".join(parts)
             + f" (all <= 1e-12); Lipschitz ratio {lrep.max_ratio:.4f} <= "
             f"bound {lrep.bound:.4f} on {lrep.pairs_checked} seeded pairs")


# ---------------------------------------------------------------------------
# 7. stationarity residual halves with dt; two generators, one derivative


def test_acceptance_07_master_residual_halving_and_illposedness():
    problem = problems.control_free_problem()
    cyl = problems.exp_cylinder()
    residuals = []
    for n in (4, 8, 16):
        tree = build_tree(TimeGrid(1.0, n), d=1, mode="recombining")
        rep = master_residual(problem, tree, cyl, level=n // 2)
        residuals.append(abs(rep.residual))
    ratios = [residuals[i - 1] / residuals[i] for i in range(1, 3)]
    halving_ok = all(1.5 <= r <= 3.0 for r in ratios)

    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    rep = illposed_demo(tree)
    ill_ok = (rep.sup_terms_identical and rep.gap == 1.0 and rep.witness)

    ok = halving_ok and ill_ok
    _verdict(7, ok,
             f"residual ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [1.5, 3]; "
             f"sup terms bit-identical under the shared derivative input and "
             f"the forward values sit exactly T = {rep.gap} apart")


# ---------------------------------------------------------------------------
# 8. regime-switching ensemble and order preservation under every policy


@pytest.mark.filterwarnings("ignore:dt")
def test_acceptance_08_switching_ensemble_and_comparison():
    coeffs = problems.switch_coeffs()
    grid = TimeGrid(4.0, 4096)
    ev = switch_events(coeffs, grid, 10 ** 4, seed=0)

    # (a) the switch is detected inside [1/2, 2] up to the overshoot slack;
    # (b) both weights move by at most one Euler increment across a switch,
    # and by a nonzero amount at some switch, so the reads before and after
    # it are distinct
    lo, hi = 1.0 / 2.1, 0.5
    band_ok = ev.overshoot <= 0.1
    sdt = np.sqrt(grid.dt)
    step_coef = coeffs.bound * (2.0 + 0.1 + 1.0) * (grid.dt + sdt)
    n_switches = len(ev.level)
    ah = np.abs(ev.ahat)
    band_ok = band_ok and bool(np.all((ah >= lo - 1e-12)
                                      & (ah <= hi + 1e-12)))
    allowed = step_coef * (np.abs(ev.A1_before) + np.abs(ev.A2_before)) + 1e-15
    jump = np.maximum(np.abs(ev.A1 - ev.A1_before), np.abs(ev.A2 - ev.A2_before))
    moved = int(np.count_nonzero(jump > 0))
    cont_ok = bool(np.all(jump <= allowed)) and moved > 0
    overshoot = ev.overshoot

    # (c) switching-time tail frequencies against the combinatorial bound
    trep = verify_tau_bound(coeffs, T=4.0, switch_indices=tuple(range(1, 7)),
                            steps=4096, n_paths=10 ** 4, seed=0)
    tau_ok = (all(r.passed for r in trep.rows)
              and all(r.passed for r in trep.one_step)
              and trep.overshoot <= 0.1)

    # (d) order preservation under every enumerated policy on a small tree
    lin_coeffs, problem = problems.linear_setup()
    tree = build_tree(TimeGrid(0.5, 3), d=1, mode="path")
    lin = build_linear_utility(lin_coeffs, tree, overshoot_limit=1.0)
    pairs = make_comparison_pairs(lin, problem, tree, count=50, seed=11)
    crep = check_linear_comparison(lin, problem, tree, pairs=pairs, seed=11)
    comp_ok = (crep.pairs_checked == 50 and len(crep.violations) == 0
               and crep.min_monotone >= 0.0)

    # static control group: freezing the terminal functional on the
    # time-inconsistent steering problem must produce a comparison violation
    det = problems.benchmark("deterministic", 2.0)
    s_tree = build_tree(TimeGrid(2.0, 2), d=1, mode="path")
    util = static_utility(det.problem.phi, det.problem.value_dim)
    m = s_tree.node_count(2)
    eta = np.broadcast_to(np.array([0.0, 1.0]), (m, 2)).copy()
    eta_t = np.broadcast_to(np.array([0.5, 2.0]), (m, 2)).copy()
    srep = check_comparison(util, det.problem, s_tree, 0, 2, [(eta, eta_t)])
    control_ok = len(srep.violations) >= 1

    ok = band_ok and cont_ok and tau_ok and comp_ok and control_ok
    _verdict(8, ok,
             f"{n_switches} switches across 10^4 paths: band within overshoot "
             f"{overshoot:.4f} <= 0.1, weights continuous within one Euler "
             f"increment and moving at {moved} switches; tail bound rows all pass; comparison holds on "
             f"{crep.pairs_checked} pairs x {crep.policies_per_pair} policies "
             f"with 0 violations; static control group reports "
             f"{len(srep.violations)} violation(s)")


# ---------------------------------------------------------------------------
# 9. exact tree identities and path/recombining agreement


def test_acceptance_09_tree_identities_and_mode_agreement():
    tree = build_tree(TimeGrid(2.0, 7), d=1, mode="path")
    rng = np.random.default_rng(np.random.Philox(5))
    values = rng.normal(size=tree.node_count(7))
    direct = conditional_expectation(tree, 7, values, 1)
    mid = conditional_expectation(tree, 7, values, 4)
    tower_ok = np.array_equal(direct, conditional_expectation(tree, 4, mid, 1))

    mart_dev = 0.0
    for k in (0, 2, 4, 6):
        ek = conditional_expectation(tree, 7, tree.values[7][:, 0], k)
        mart_dev = max(mart_dev,
                       float(np.max(np.abs(ek - tree.values[k][:, 0]))))

    inc_dev = 0.0
    for mode in ("path", "recombining"):
        t2 = build_tree(TimeGrid(0.7, 4), d=2, mode=mode)
        for k in range(4):
            cv = t2.child_values(k, t2.values[k + 1])
            db = cv - t2.values[k][:, None, :]
            inc_dev = max(inc_dev, float(np.max(np.abs(
                (db ** 2).mean(axis=1) - t2.dt))))

    # a Markovian solve must not see the difference between representations
    prob = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: 0.5 * np.sin(y) + 0.25 * z[:, :, 0],
        terminal=lambda ctx: ctx.b[:, :1] ** 2,
        phi=lambda y: y[:, 0],
        control_values=(0.0,), lipschitz_L=1.0)
    agree_dev = 0.0
    trees = {mode: build_tree(TimeGrid(1.0, 8), d=1, mode=mode)
             for mode in ("path", "recombining")}
    y0 = {}
    for mode, tr in trees.items():  # the one control 0.0 on every node
        y0[mode] = float(solve_bsde(prob, tr)[0][0, 0])
    agree_dev = max(agree_dev, abs(y0["path"] - y0["recombining"]))
    func_dev = abs(
        float(conditional_expectation(
            trees["path"], 8, np.cosh(trees["path"].values[8][:, 0]), 0)[0])
        - float(conditional_expectation(
            trees["recombining"], 8, np.cosh(trees["recombining"].values[8][:, 0]),
            0)[0]))
    agree_dev = max(agree_dev, func_dev)

    ok = (tower_ok and mart_dev <= 1e-14 and inc_dev <= 1e-14
          and agree_dev <= 1e-12)
    _verdict(9, ok,
             f"tower bit-identical; martingale deviation {mart_dev:.1e} <= "
             f"1e-14; squared increments match dt to {inc_dev:.1e} <= 1e-14; "
             f"path/recombining agreement {agree_dev:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# 10. identical configs reproduce artifacts byte for byte


def test_acceptance_10_reruns_are_byte_identical(tmp_path):
    import pathlib

    ok = True
    parts = []
    for doc in (
        {"experiment": "illposed-demo", "seed": 3, "T": 1.0, "n": 4},
        {"experiment": "forward-dpp", "seed": 7, "pairs": 25},
    ):
        cfg = validate_config({**doc, "output_dir": str(tmp_path)})
        first = run_experiment(cfg)
        snapshot = {
            name: (pathlib.Path(first.out_dir) / name).read_bytes()
            for name in first.report["artifacts"]
        }
        second = run_experiment(cfg)  # same config, same directory
        same = all(
            (pathlib.Path(second.out_dir) / name).read_bytes() == blob
            for name, blob in snapshot.items())
        ok = ok and first.passed and second.passed and same
        parts.append(f"{doc['experiment']}: {len(snapshot)} artifacts "
                     f"{'identical' if same else 'DIFFER'}")
    _verdict(10, ok, "; ".join(parts))
