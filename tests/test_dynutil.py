"""Tests for dynamic utilities: deterministic construction, comparison checks
and the linear switching-weight construction."""
import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import BSDEProblem, ProblemValidationError, maximize_over_policies
from treebsde.master import ForwardValue
from treebsde import dynutil
from treebsde.dynutil import (
    ComparisonReport,
    DegenerateUtilityError,
    LinearUtilityCoeffs,
    OneStepRow,
    StepSizeError,
    TauBoundRow,
    build_linear_utility,
    check_comparison,
    check_linear_comparison,
    make_comparison_pairs,
    replay_paths,
    riccati_polynomials,
    static_utility,
    switch_events,
    verify_tau_bound,
)
from treebsde.experiments import run_experiment, validate_config
from treebsde.problems import linear_setup, switch_coeffs


def steering_problem():
    """d'=2: first component integrates (u - y2), second integrates u."""
    def f(t, ctx, y, z, u):
        return np.stack([u - y[:, 1], u + 0.0 * y[:, 1]], axis=1)

    return BSDEProblem(
        value_dim=2, f=f,
        terminal=lambda ctx: np.zeros((ctx.b.shape[0], 2)),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 1.0), lipschitz_L=1.0,
        deterministic_controls=True,
    )


def test_static_utility_is_phi():
    util = static_utility(lambda y: y[:, 0] + 2 * y[:, 1], 2)
    y = np.array([[1.0, 2.0], [0.0, -1.0]])
    np.testing.assert_array_equal(util.evaluate(3, y), [5.0, -2.0])


def deterministic_utility(problem, grid, level, y):
    """Phi(level, y): Psi(level, .) of master.ForwardValue, y on every node of a
    path tree on grid."""
    tree = build_tree(grid, d=1)
    eta = np.tile(np.asarray(y, dtype=float), (tree.node_count(level), 1))
    return ForwardValue(problem, tree).value(level, eta)


def test_deterministic_utility_level_zero_is_phi():
    assert deterministic_utility(steering_problem(), TimeGrid(T=2.0, n=4), 0,
                                 [0.7, 0.1]) == 0.7


def test_deterministic_utility_frozen_dynamics():
    problem = BSDEProblem(
        value_dim=2, f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: np.zeros((ctx.b.shape[0], 2)),
        phi=lambda y: y[:, 0], control_values=(0.0, 1.0), lipschitz_L=0.0)
    val = deterministic_utility(problem, TimeGrid(T=1.0, n=3), 3, [0.4, -0.2])
    assert val == pytest.approx(0.4, abs=1e-15)


def test_deterministic_utility_forward_dpp():
    problem = steering_problem()
    grid = TimeGrid(T=2.0, n=4)
    y = np.array([0.3, -0.1])
    full = deterministic_utility(problem, grid, 4, y)
    times, dt = grid.times(), grid.dt
    from treebsde.bsde import NodeContext
    ctx = NodeContext(level=0, b=np.zeros((1, 1)))
    best = -np.inf
    for seq in itertools.product((0.0, 1.0), repeat=2):  # controls at levels 2, 3
        cur = y.reshape(1, 2)
        for j, uv in ((3, seq[1]), (2, seq[0])):
            cur = cur + np.asarray(problem.f(times[j], ctx, cur, None, np.full(1, uv))) * dt
        best = max(best, deterministic_utility(problem, grid, 2, cur[0]))
    assert full == pytest.approx(best, abs=1e-12)


def test_forward_value_of_a_z_dependent_generator_is_the_enumerated_one():
    # f reads z, which node-dependent terminal data makes nonzero; u = 0
    # everywhere gives E[eta] = 1
    problem = BSDEProblem(
        value_dim=1, f=lambda t, ctx, y, z, u: u[:, None] * (z[:, :, 0] - 0.5),
        terminal=lambda ctx: np.zeros((ctx.b.shape[0], 1)),
        phi=lambda y: y[:, 0], control_values=(0.0, 1.0), lipschitz_L=1.0)
    tree = build_tree(TimeGrid(T=1.0, n=3), d=1)
    eta = tree.values[3][:, :1] ** 2
    want, _, count, _ = maximize_over_policies(
        problem, tree, problem.phi, terminal_level=3, eta=eta)
    got = ForwardValue(problem, tree).value(3, eta)
    assert count == 2 ** 7
    assert got == want[0] and got > 1.3


def test_check_comparison_monotone_scalar():
    tree = build_tree(TimeGrid(T=0.5, n=2), d=1)
    problem = BSDEProblem(
        value_dim=1, f=lambda t, ctx, y, z, u: 0.5 * y,
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0], control_values=(0.0,), lipschitz_L=0.5)
    util = static_utility(lambda y: y[:, 0], 1)
    eta = tree.values[2][:, :1]
    pairs = [(eta, eta + 0.3), (eta, eta), (eta, eta - 0.1)]
    report = check_comparison(util, problem, tree, 0, 2, pairs)
    assert report.checked == 2
    assert report.skipped == 1
    assert report.violations == ()
    assert report.worst_slack <= 1e-12


def test_check_comparison_detects_time_inconsistency():
    problem = steering_problem()
    tree = build_tree(TimeGrid(T=2.0, n=2), d=1)
    util = static_utility(lambda y: y[:, 0], 2)
    m = tree.node_count(2)
    eta = np.broadcast_to(np.array([0.0, 1.0]), (m, 2)).copy()
    eta_t = np.broadcast_to(np.array([0.5, 2.0]), (m, 2)).copy()
    report = check_comparison(util, problem, tree, 0, 2, [(eta, eta_t)])
    assert report.checked == 1
    assert len(report.violations) >= 1
    # the dominated terminal value yields the strictly better time-0 utility
    assert report.worst_slack == pytest.approx(1.5, abs=1e-12)


def _comparison_by_policy(utility, problem, tree, t1, t2, pairs):
    """check_comparison's report from one solve_bsde per policy."""
    checked = skipped = 0
    violations, worst = [], -np.inf
    for idx, (eta, eta_t) in enumerate(pairs):
        if np.any(utility.evaluate(t2, eta) > utility.evaluate(t2, eta_t) + 1e-12):
            skipped += 1
            continue
        checked += 1
        lhs, rhs = (maximize_over_policies(
            problem, tree, lambda y: utility.evaluate(t1, y), start_level=t1,
            terminal_level=t2, eta=e)[0]
            for e in (eta, eta_t))
        worst = max(worst, float(np.max(lhs - rhs)))
        violations += [(idx, int(i), float(lhs[i]), float(rhs[i]))
                       for i in np.nonzero(lhs > rhs + 1e-10)[0]]
    return ComparisonReport(checked=checked, skipped=skipped, violations=tuple(violations),
                            worst_slack=worst if checked else np.nan)


@pytest.mark.parametrize("t1,t2", [(0, 2), (1, 2), (0, 1)])
def test_check_comparison_reads_a_node_dependent_utility_by_row(t1, t2):
    # the tree-mode linear weights differ by node, and the batched search hands
    # evaluate its rows in (assignment, node) order
    coeffs, problem = linear_setup()
    tree = build_tree(TimeGrid(0.5, 2), d=1, mode="path")
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.0)
    assert len(set(lin.A1[1].tolist())) == 2
    m = tree.node_count(t2)
    # bumps along the weights, a thousandfold smaller on the upper half of the
    # level, so the worst slack at t1 = 1 comes from node 1
    bump = np.where(np.arange(m)[:, None] < m // 2, 1.0, 1e-3) * np.stack(
        [lin.A1[t2], lin.A2[t2]], axis=1)
    rng = np.random.default_rng(np.random.Philox(4))
    pairs = []
    for eta in rng.normal(size=(4, m, 2)) + [3.0, 0.0]:
        pairs += [(eta, eta + bump), (eta + bump, eta)]  # the second is skipped
    report = check_comparison(lin.utility, problem, tree, t1, t2, pairs)
    ref = _comparison_by_policy(lin.utility, problem, tree, t1, t2, pairs)
    assert (report.checked, report.skipped) == (ref.checked, ref.skipped) == (4, 4)
    # linear_setup's generator multiplies through BLAS, which rounds by row count
    assert [v[:2] for v in report.violations] == [v[:2] for v in ref.violations]
    np.testing.assert_allclose(
        [report.worst_slack] + [x for v in report.violations for x in v[2:]],
        [ref.worst_slack] + [x for v in ref.violations for x in v[2:]],
        rtol=8 * np.finfo(float).eps, atol=8 * np.finfo(float).eps)


def test_check_comparison_slack_is_nan_when_no_pair_is_checked():
    # every pair steps up along the weights at t2, so each fails the premise
    coeffs, problem = linear_setup()
    tree = build_tree(TimeGrid(0.75, 3), d=1, mode="path")
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.0)
    bump = np.stack([lin.A1[2], lin.A2[2]], axis=1)
    rng = np.random.default_rng(np.random.Philox(5))
    pairs = [(eta + bump, eta) for eta in rng.normal(size=(8, tree.node_count(2), 2))]
    report = check_comparison(lin.utility, problem, tree, 0, 2, pairs)
    assert (report.checked, report.skipped, report.violations) == (0, 8, ())
    assert np.isnan(report.worst_slack)


def test_degenerate_weights():
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 0.0)
    with pytest.raises(DegenerateUtilityError, match="static value is 0"):
        build_linear_utility(coeffs, build_tree(TimeGrid(T=1.0, n=2), d=1))


def test_zero_dynamics_constant_weights():
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 2.0)
    tree = build_tree(TimeGrid(T=1.0, n=3), d=1)
    lin = build_linear_utility(coeffs, tree)
    for j in range(4):
        np.testing.assert_array_equal(lin.A1[j], np.ones(tree.node_count(j)))
        np.testing.assert_array_equal(lin.A2[j], 2 * np.ones(tree.node_count(j)))
        assert not lin.switch_flags[j].any()
    for j in range(3):
        np.testing.assert_array_equal(lin.lam[j], np.ones(tree.node_count(j)))
        np.testing.assert_array_equal(lin.mu[j], np.zeros(tree.node_count(j)))
    np.testing.assert_array_equal(
        lin.utility.evaluate(2, np.array([[1.0, 1.0]] * 4)), np.full(4, 3.0))
    np.testing.assert_array_equal(lin.utility.phi(np.array([[2.0, 0.5]])), [3.0])


def test_matched_diagonal_beta_freezes_ratio():
    beta = np.array([[0.4, 0.0], [0.0, 0.4]])
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), beta, 0.5, 1.0)
    drift, sig = riccati_polynomials(np.zeros((2, 2)), beta, 1)
    assert np.all(drift == 0) and np.all(sig == 0)
    tree = build_tree(TimeGrid(T=0.25, n=4), d=1)
    lin = build_linear_utility(coeffs, tree)
    for j in range(5):
        np.testing.assert_array_equal(lin.ahat[j], np.full(tree.node_count(j), 0.5))


def test_linear_drift_exact_ratio_and_switch():
    # alpha[1,0] = 1 only: the ratio grows linearly in t and crosses 2 at t = 2
    alpha = np.array([[0.0, 0.0], [1.0, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(alpha, np.zeros((2, 2)), 0.0, 1.0)
    tree = build_tree(TimeGrid(T=2.5, n=10), d=1)
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.1)
    times = tree.grid.times()
    for j in range(8):
        np.testing.assert_allclose(lin.ahat[j], np.full(tree.node_count(j), times[j]),
                                   atol=1e-13)
        assert np.all(lin.parity[j] == 1)
    assert lin.switch_flags[8].all()
    assert np.all(lin.parity[8] == 2)
    np.testing.assert_allclose(lin.ahat[8], 0.5, atol=1e-13)
    np.testing.assert_allclose(lin.A1[8], 2.0, atol=1e-13)   # frozen after switch
    np.testing.assert_allclose(lin.A2[8], 1.0, atol=1e-13)   # continuity
    assert not lin.switch_flags[9].any() and not lin.switch_flags[10].any()
    np.testing.assert_allclose(lin.A1[10], 2.0, atol=1e-13)
    path = lin.path(0)
    assert path.switch_times == (pytest.approx(2.0),)
    assert path.overshoot == pytest.approx(0.0, abs=1e-13)


def test_switching_path_csv(tmp_path):
    alpha = np.array([[0.0, 0.0], [1.0, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(alpha, np.zeros((2, 2)), 0.0, 1.0)
    tree = build_tree(TimeGrid(T=2.5, n=10), d=1)
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.1)
    out = tmp_path / "path.csv"
    lin.path(0).to_csv(str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "t,Ahat,regime,A1,A2,is_switch"
    assert len(lines) == 12
    assert sum(int(line.split(",")[5]) for line in lines[1:]) == 1


def test_tree_children_match_ratio_sde_coefficients():
    alpha = np.array([[0.2, -0.1], [0.3, 0.1]])
    beta = np.array([[0.1, 0.2], [-0.2, 0.15]])
    coeffs = LinearUtilityCoeffs.from_constants(alpha, beta, 0.5, 1.0)
    dt = 1e-3
    tree = build_tree(TimeGrid(T=dt, n=1), d=1)
    lin = build_linear_utility(coeffs, tree)
    a0 = 0.5
    drift, sig = riccati_polynomials(alpha, beta, 1)
    d_exp = float(sum(c * a0 ** k for k, c in enumerate(reversed(drift))))
    s_exp = float(sum(c * a0 ** k for k, c in enumerate(reversed(sig))))
    plus, minus = lin.ahat[1][1], lin.ahat[1][0]
    assert (plus + minus) / 2 - a0 == pytest.approx(d_exp * dt, abs=5 * dt ** 1.5)
    assert (plus - minus) / (2 * np.sqrt(dt)) == pytest.approx(s_exp, abs=5 * np.sqrt(dt))


def test_step_size_guard():
    beta = np.array([[0.0, 0.0], [0.8, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), beta, 0.0, 1.0)
    with pytest.raises(StepSizeError, match="decrease dt"):
        build_linear_utility(coeffs, build_tree(TimeGrid(T=4.0, n=4), d=1))


def test_swap_normalization_consistency():
    alpha = np.array([[0.1, 0.0], [0.5, -0.1]])
    a_swapped = LinearUtilityCoeffs.from_constants(alpha, np.zeros((2, 2)), 2.0, 1.0)
    perm = alpha[[1, 0]][:, [1, 0]]
    a_plain = LinearUtilityCoeffs.from_constants(perm, np.zeros((2, 2)), 1.0, 2.0)
    tree = build_tree(TimeGrid(T=1.0, n=3), d=1)
    lin_s = build_linear_utility(a_swapped, tree, overshoot_limit=1.5)
    lin_p = build_linear_utility(a_plain, tree, overshoot_limit=1.5)
    assert lin_s.swapped and not lin_p.swapped
    for j in range(4):
        np.testing.assert_allclose(lin_s.A1[j], lin_p.A2[j], atol=1e-14)
        np.testing.assert_allclose(lin_s.A2[j], lin_p.A1[j], atol=1e-14)
    assert lin_s.A1[0][0] == 2.0 and lin_s.A2[0][0] == 1.0


def linear_problem_from(coeffs, alpha, beta):
    def f(t, ctx, y, z, u):
        cv = np.stack([0.1 * u, -0.05 * u], axis=1)
        return y @ alpha.T + z[:, :, 0] @ beta.T + cv

    return BSDEProblem(
        value_dim=2, f=f,
        terminal=lambda ctx: np.stack([ctx.b[:, 0], 0.5 * ctx.b[:, 0]], axis=1),
        phi=lambda y: coeffs.a1 * y[:, 0] + coeffs.a2 * y[:, 1],
        control_values=(0.0, 1.0), lipschitz_L=1.0)


def test_linear_comparison_exact_recursion():
    alpha = np.array([[0.2, -0.1], [0.3, 0.1]])
    beta = np.array([[0.1, 0.2], [-0.2, 0.15]])
    coeffs = LinearUtilityCoeffs(
        alpha=lambda t, b: alpha, beta=lambda t, b: beta,
        c=lambda t, b, u: np.stack([0.1 * np.asarray(u), -0.05 * np.asarray(u)],
                                   axis=-1),
        a1=0.5, a2=1.0, bound=0.3)
    tree = build_tree(TimeGrid(T=0.5, n=2), d=1)
    lin = build_linear_utility(coeffs, tree, overshoot_limit=1.0)
    problem = linear_problem_from(coeffs, alpha, beta)
    report = check_linear_comparison(lin, problem, tree, seed=3)
    assert report.pairs_checked == 5
    assert report.policies_per_pair == 2 ** 3
    assert report.violations == ()
    assert report.recursion_residual <= 1e-13
    assert report.min_monotone > 0


def test_make_comparison_pairs_premise():
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 2.0)
    tree = build_tree(TimeGrid(T=0.5, n=2), d=1)
    lin = build_linear_utility(coeffs, tree)
    problem = linear_problem_from(coeffs, np.zeros((2, 2)), np.zeros((2, 2)))
    for eta, eta_t in make_comparison_pairs(lin, problem, tree, count=3, seed=0):
        assert np.all(lin.utility.evaluate(2, eta) <= lin.utility.evaluate(2, eta_t) + 1e-12)


def test_tau_bound_zero_dynamics():
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), np.zeros((2, 2)), 1.0, 2.0)
    report = verify_tau_bound(coeffs, T=1.0, switch_indices=(1, 2), steps=16,
                              n_paths=200, seed=0)
    assert report.C_hat == 0.0 and report.m == 0
    for row in report.rows:
        assert row.frequency == 0.0 and row.passed and not row.vacuous
    assert all(r.passed for r in report.one_step)


def test_tau_bound_deterministic_ode_case():
    alpha = np.array([[0.0, 0.0], [1.0, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(alpha, np.zeros((2, 2)), 0.0, 1.0)
    report = verify_tau_bound(coeffs, T=1.0, switch_indices=(1, 2, 3), steps=64,
                              n_paths=100, seed=1)
    for row in report.rows:
        assert row.frequency == 0.0 and row.passed
    assert all(r.passed for r in report.one_step)
    assert report.overshoot == 0.0


def test_ensemble_switching_statistics():
    beta = np.array([[0.0, 0.0], [0.6, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), beta, 0.0, 1.0)
    grid = TimeGrid(T=4.0, n=4096)
    lin = build_linear_utility(coeffs, grid=grid, n_paths=300, seed=7)
    assert lin.overshoot <= 0.1
    total_switches = 0
    for sw, ahat in itertools.islice(zip(lin.switch_flags, lin.ahat), 1, None):
        total_switches += int(sw.sum())
        if sw.any():
            post = np.abs(ahat[sw])
            assert np.all((post >= 1 / 2.1 - 1e-12) & (post <= 0.5 + 1e-12))
        assert np.all(np.abs(ahat) <= 2.0 + lin.overshoot + 1e-12)
    assert total_switches > 0
    path = lin.path(0)
    assert len(path.times) == grid.n + 1


def test_tau_bound_with_switches():
    beta = np.array([[0.0, 0.0], [0.6, 0.0]])
    coeffs = LinearUtilityCoeffs.from_constants(np.zeros((2, 2)), beta, 0.0, 1.0)
    report = verify_tau_bound(coeffs, T=4.0, switch_indices=(1, 2, 3, 4), steps=4096,
                              n_paths=400, seed=11)
    assert report.delta > 0 and report.m >= 1
    assert any(r.frequency > 0 for r in report.rows)
    assert all(r.passed for r in report.rows)
    assert all(r.passed for r in report.one_step)


@pytest.mark.parametrize("seed", [0, 1])
def test_switch_events_and_tau_rows_match_dense_ensemble(seed):
    coeffs = switch_coeffs()
    T, n_paths, indices = 4.0, 300, tuple(range(1, 7))
    grid = TimeGrid(T=T, n=4096)
    lin = build_linear_utility(coeffs, grid=grid, n_paths=n_paths, seed=seed)
    flag_mat = np.stack(tuple(lin.switch_flags)[1:])
    steps, paths = np.nonzero(flag_mat)
    assert len(paths) > 0

    events = switch_events(coeffs, grid, n_paths, seed=seed)
    assert np.array_equal(events.level, steps + 1)
    assert np.array_equal(events.path, paths)
    assert events.overshoot == lin.overshoot
    assert np.array_equal(events.counts, flag_mat.sum(axis=0))
    for e in range(len(paths)):
        assert events.rank[e] == flag_mat[:steps[e], paths[e]].sum()

    for i, path in zip((3, 0), replay_paths(coeffs, grid, n_paths, [3, 0], seed=seed)):
        dense = lin.path(i)
        for field in ("times", "ahat", "parity", "A1", "A2", "is_switch"):
            assert np.array_equal(getattr(path, field), getattr(dense, field)), field
        assert path.switch_times == dense.switch_times
        assert path.overshoot == dense.overshoot

    # per-path switch levels and tau(i, k), written out path by path
    rep = verify_tau_bound(coeffs, T=T, switch_indices=indices, steps=grid.n,
                           n_paths=n_paths, seed=seed, pilot_paths=200)
    switch_level = [np.nonzero(flag_mat[:, i])[0] + 1 for i in range(n_paths)]
    times = grid.times()
    eps_t = 1e-12

    def tau(i, k):
        lv = switch_level[i]
        return times[lv[k - 1]] if len(lv) >= k else np.inf

    rows = []
    for nn in indices:
        hits = np.array([tau(i, nn) < T - eps_t for i in range(n_paths)])
        freq = float(hits.mean())
        se = float(np.sqrt(freq * (1 - freq) / n_paths))
        bound = min(1.0, (2 * nn) ** rep.m / 2 ** nn)
        rows.append(TauBoundRow(nn, freq, se, bound, bound >= 1.0,
                                bound >= 1.0 or freq + 3 * se <= bound))
    assert rep.rows == tuple(rows)

    one_step = []
    for k in range(max(len(lv) for lv in switch_level) + 1):
        base = ([i for i in range(n_paths) if tau(i, k) < T - eps_t] if k
                else list(range(n_paths)))
        if len(base) < 20:
            continue
        start = np.array([tau(i, k) if k else 0.0 for i in base])
        nxt = np.array([tau(i, k + 1) for i in base])
        freq = float((nxt < np.minimum(T - eps_t, start + rep.delta)).mean())
        se = (float(np.sqrt(freq * (1 - freq) / len(base)))
              or float(np.sqrt(0.25 / len(base))))
        one_step.append(OneStepRow(k, len(base), freq, freq <= 0.5 + 3 * se))
    assert len(one_step) >= 2
    assert rep.one_step == tuple(one_step)
    assert rep.overshoot == lin.overshoot


def test_verify_tau_bound_peak_memory_stays_small():
    # the dense (steps + 1) x paths ensemble would take ~470 MB here
    tracemalloc.start()
    try:
        verify_tau_bound(switch_coeffs(), T=4.0, switch_indices=(1, 2, 3),
                         steps=4096, n_paths=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# Frozen reference: the Euler step and the tau pilot written out as they were
# before the step reused its Riccati coefficients and shared unchanged state.


def _ref_poly_eval(coeff, x):
    out = np.zeros_like(np.broadcast_arrays(coeff[0], x)[1], dtype=float)
    for ck in coeff:
        out = out * x + ck
    return out


def _ref_euler_levels(alpha, beta, a1, a2, times, dt, n_paths, seed):
    """Yields (parity, anchor, ahat, switched, overshoot)."""
    sdt = np.sqrt(dt)
    rng = np.random.default_rng(np.random.Philox(seed))
    p = np.ones(n_paths, dtype=np.int64)
    an = np.full(n_paths, a2)
    ah = np.full(n_paths, a1 / a2)
    b_path = np.zeros(n_paths)
    yield p, an, ah, np.zeros(n_paths, dtype=bool), 0.0
    for j in range(len(times) - 1):
        al = np.asarray(alpha(times[j], b_path), dtype=float)
        be = np.asarray(beta(times[j], b_path), dtype=float)
        first = p == 1
        clamped = np.clip(ah, -2.0, 2.0)
        d1, s1 = riccati_polynomials(al, be, 1)
        d2, s2 = riccati_polynomials(al, be, 2)
        drift = np.where(first, _ref_poly_eval(d1, clamped), _ref_poly_eval(d2, clamped))
        vol = np.where(first, _ref_poly_eval(s1, clamped), _ref_poly_eval(s2, clamped))
        db = (2.0 * rng.integers(0, 2, size=n_paths) - 1.0) * sdt
        ah_next = ah + drift * dt + vol * db
        b_path = b_path + db
        sw = np.abs(ah_next) >= 2.0
        overshoot = float(np.max(np.where(sw, np.abs(ah_next) - 2.0, 0.0), initial=0.0))
        p = np.where(sw, 3 - p, p)
        an = np.where(sw, an * ah_next, an)
        safe = np.where(sw, ah_next, 1.0)
        ah = np.where(sw, 1.0 / safe, ah_next)
        yield p, an, ah, sw, overshoot


def _ref_pilot_C_hat(alpha, beta, a1, a2, times, grid_dt, seed, pilot_paths):
    rng = np.random.default_rng(np.random.Philox(seed + 10 ** 6))
    ah = np.full(pilot_paths, a1 / a2)
    sup_sq = np.zeros(pilot_paths)
    dt, sdt = grid_dt, np.sqrt(grid_dt)
    C_hat = 0.0
    for k in range(len(times) - 1):
        al = np.broadcast_to(np.asarray(alpha(times[k], np.zeros(1)), dtype=float),
                             (1, 2, 2))[0]
        be = np.broadcast_to(np.asarray(beta(times[k], np.zeros(1)), dtype=float),
                             (1, 2, 2))[0]
        d1, s1 = riccati_polynomials(al, be, 1)
        clamped = np.clip(ah, -2.0, 2.0)
        db = (2.0 * rng.integers(0, 2, size=pilot_paths) - 1.0) * sdt
        ah = ah + _ref_poly_eval(d1, clamped) * dt + _ref_poly_eval(s1, clamped) * db
        sup_sq = np.maximum(sup_sq, (ah - a1 / a2) ** 2)
        C_hat = max(C_hat, float(sup_sq.mean()) / times[k + 1])
    return C_hat


def _time_dependent_coeffs():
    """Piecewise-constant in t, written into one buffer per coefficient."""
    al_buf, be_buf = np.zeros((2, 2)), np.zeros((2, 2))

    def alpha(t, b):
        al_buf[1, 0] = 0.25 if t < 0.5 else 0.4 if t < 1.25 else 0.1
        al_buf[0, 0] = 0.05 if 0.75 <= t < 1.5 else 0.0
        return al_buf

    def beta(t, b):
        be_buf[1, 0] = 0.6 if t < 1.0 else 0.5
        return be_buf

    return LinearUtilityCoeffs(alpha=alpha, beta=beta, c=lambda t, b, u: np.zeros(2),
                               a1=0.0, a2=1.0, bound=0.6)


def _path_dependent_coeffs():
    """(m, 2, 2) coefficients that move with each path's Brownian value."""
    def alpha(t, b):
        out = np.zeros((np.size(b), 2, 2))
        out[:, 1, 0] = 0.25 + 0.1 * np.tanh(b)
        out[:, 0, 0] = 0.05 * np.cos(b)
        return out

    def beta(t, b):
        out = np.zeros((np.size(b), 2, 2))
        out[:, 1, 0] = 0.6
        out[:, 0, 1] = 0.02 * np.sin(b)
        return out

    return LinearUtilityCoeffs(alpha=alpha, beta=beta, c=lambda t, b, u: np.zeros(2),
                               a1=0.0, a2=1.0, bound=0.6)


def _mixed_lead_coeffs():
    """(m, 2, 2) coefficients whose leading regime-1 Riccati coefficients are
    zero (or -0.0) on the paths with b <= 0 and nonzero on the others."""
    def alpha(t, b):
        out = np.zeros((np.size(b), 2, 2))
        out[:, 1, 0] = 0.25
        return out

    def beta(t, b):
        out = np.zeros((np.size(b), 2, 2))
        out[:, 1, 0] = 0.6
        out[:, 0, 1] = np.where(b > 0, 0.05, -0.0)
        return out

    return LinearUtilityCoeffs(alpha=alpha, beta=beta, c=lambda t, b, u: np.zeros(2),
                               a1=0.0, a2=1.0, bound=0.6)


_COEFF_SETS = {
    "switch": switch_coeffs,
    # |a1| > |a2|: the construction runs in the swapped frame
    "swapped": lambda: LinearUtilityCoeffs.from_constants(
        [[0.0, 0.25], [0.0, 0.0]], [[0.0, 0.6], [0.0, 0.0]], 1.0, 0.5),
    "time": _time_dependent_coeffs,
    "path": _path_dependent_coeffs,
    "mixed": _mixed_lead_coeffs,
    # a geometric ratio from 1: thousands of 16,385 paths switch within 101 steps
    "fast": lambda: LinearUtilityCoeffs.from_constants(
        np.zeros((2, 2)), [[1.5, 0.0], [0.0, 0.0]], 1.0, 1.0),
}


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _case(name, seed, n_paths=1000, pilot_paths=100, steps=2048, id=None):
    return pytest.param(name, seed, n_paths, pilot_paths, steps,
                        id=id or f"{name}-{seed}")


# dt = 2 / 2048 throughout. The increments are read in blocks of an even number
# of steps (dynutil._increments); the last two cases have odd path counts and a
# step count that is no multiple of the block's, and the last one more paths
# than a block's float budget, so that each block holds two steps.
@pytest.mark.parametrize("name, seed, n_paths, pilot_paths, steps", [
    _case("switch", 0), _case("switch", 1), _case("swapped", 0), _case("time", 0),
    _case("path", 2), _case("mixed", 0),
    _case("switch", 3, 1025, 103, 2047, id="odd-paths"),
    _case("fast", 1, dynutil._DRAW_FLOATS + 1, dynutil._DRAW_FLOATS + 1, 101,
          id="two-step-blocks")])
def test_euler_ensemble_matches_frozen_reference(name, seed, n_paths, pilot_paths, steps):
    coeffs = _COEFF_SETS[name]()
    grid = TimeGrid(T=steps / 1024, n=steps)
    times = grid.times()
    alpha, beta, a1, a2, swapped = dynutil._normalize(coeffs)
    ref = list(_ref_euler_levels(alpha, beta, a1, a2, times, grid.dt, n_paths, seed))
    _, _, levels = dynutil._ensemble(coeffs, grid, n_paths, seed, 0.1)
    count = 0
    for j, (lv, (p, an, ah, sw, overshoot)) in enumerate(zip(levels(), ref)):
        for got, want in ((lv.parity, p), (lv.anchor, an), (lv.ahat, ah),
                          (lv.switched, sw)):
            assert _bits(got) == _bits(want), j
        assert _bits(lv.overshoot) == _bits(overshoot), j
        count += 1
    assert count == len(ref) == grid.n + 1
    flag_mat = np.stack([r[3] for r in ref[1:]])
    assert flag_mat.sum() > 20, flag_mat.sum()

    steps, paths = np.nonzero(flag_mat)
    events = switch_events(coeffs, grid, n_paths, seed=seed)
    assert np.array_equal(events.level, steps + 1)
    assert np.array_equal(events.path, paths)
    assert np.array_equal(events.counts, flag_mat.sum(axis=0))
    assert np.array_equal(events.rank, [flag_mat[:s, i].sum() for s, i in zip(steps, paths)])
    assert _bits(events.overshoot) == _bits(max(r[4] for r in ref))

    lin = build_linear_utility(coeffs, grid=grid, n_paths=n_paths, seed=seed)
    assert lin.swapped == swapped == (name == "swapped")
    weights = []
    for p, an, ah, *_ in ref:
        act = an * ah
        w1, w2 = np.where(p == 1, act, an), np.where(p == 1, an, act)
        weights.append((w2, w1) if swapped else (w1, w2))
    # the six fields in lock-step, one level of each at a time
    fields = zip(lin.parity, lin.anchor, lin.ahat, lin.switch_flags, lin.A1, lin.A2)
    count = 0
    for j, (got, (p, an, ah, sw, _), w) in enumerate(zip(fields, ref, weights)):
        for level, want in zip(got, (p, an, ah, sw, *w)):
            assert _bits(level) == _bits(want), j
        count += 1
    assert count == grid.n + 1
    assert _bits(lin.overshoot) == _bits(events.overshoot)

    for i, path in zip((7, 0), replay_paths(coeffs, grid, n_paths, [7, 0], seed=seed)):
        col = [np.array([r[k][i] for r in ref]) for k in range(4)]
        assert _bits(path.parity) == _bits(col[0])
        assert _bits(path.ahat) == _bits(col[2])
        assert _bits(path.is_switch) == _bits(col[3])
        w = [np.array([wj[k][i] for wj in weights]) for k in range(2)]
        assert _bits(path.A1) == _bits(w[0]) and _bits(path.A2) == _bits(w[1])

    rep = verify_tau_bound(coeffs, T=grid.T, switch_indices=(1, 2), steps=grid.n,
                           n_paths=n_paths, seed=seed, pilot_paths=pilot_paths)
    C_hat = _ref_pilot_C_hat(alpha, beta, a1, a2, times, grid.dt, seed, pilot_paths)
    assert _bits(rep.C_hat) == _bits(C_hat)
    assert _bits(rep.delta) == _bits(np.inf if C_hat == 0 else 1.0 / (4.0 * C_hat))


# the descending-read case below and the odd-paths frozen-reference case
@pytest.mark.parametrize("name, seed, n_paths, steps", [
    ("fast", 1, 20, 256), ("switch", 3, 1025, 2047)], ids=["fast", "odd-paths"])
def test_switch_record_is_the_dense_reads_bit_for_bit(name, seed, n_paths, steps):
    coeffs = _COEFF_SETS[name]()
    grid = TimeGrid(T=steps / 1024, n=steps)
    lin = build_linear_utility(coeffs, grid=grid, n_paths=n_paths, seed=seed)
    rec = lin.events
    levels = np.unique(rec.level)
    assert len(levels) >= 5
    switch_levels, before = [], None
    # the four fields in lock-step, keeping only the weights of the level before
    for j, (sw, ahat, a1, a2) in enumerate(zip(lin.switch_flags, lin.ahat, lin.A1,
                                               lin.A2)):
        if sw.any():
            switch_levels.append(j)
            at = rec.level == j
            assert np.array_equal(rec.path[at], np.flatnonzero(sw)), j
            for col, dense in ((rec.ahat, ahat), (rec.A1_before, before[0]),
                               (rec.A2_before, before[1]), (rec.A1, a1), (rec.A2, a2)):
                assert _bits(col[at]) == _bits(dense[sw]), j
        before = a1, a2
    assert switch_levels == list(levels)
    events = switch_events(coeffs, grid, n_paths, seed=seed)
    for field in dataclasses.fields(events):
        assert _bits(getattr(events, field.name)) == _bits(getattr(rec, field.name)), \
            field.name


def test_increments_equal_one_integers_draw_per_step():
    # one path: three blocks of increments, the last one odd
    sdt = np.sqrt(4.0 / 4096)
    steps = 2 * dynutil._DRAW_FLOATS + 3
    rng = np.random.default_rng(np.random.Philox(5))
    buffers, count = set(), 0
    for row in dynutil._increments(5, 1, steps, sdt):
        want = rng.integers(0, 2, size=1) * (2.0 * sdt) - sdt
        assert _bits(row) == _bits(want), count
        buffers.add(id(row.base))
        count += 1
    assert count == steps and len(buffers) == 1


def test_switch_events_peak_does_not_grow_with_the_horizon():
    # one draw over all 4096 steps of 2000 paths would take 32 MB of words
    grid = TimeGrid(T=4.0, n=4096)
    switch_events(switch_coeffs(), TimeGrid(T=0.5, n=512), 2000, seed=0)  # warm-up
    peaks = {}
    for steps in (512, 4096):
        tracemalloc.start()
        try:
            switch_events(switch_coeffs(), TimeGrid(T=steps * grid.dt, n=steps), 2000,
                          seed=0)
            _, peaks[steps] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the 660 switch events of the longer horizon take about 0.3 MB
    assert peaks[4096] < peaks[512] + 2 ** 20, peaks


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_COEFF = st.one_of(_SIGNED_ZERO, st.floats(-3.0, 3.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lead_eval_matches_horner_from_zeros(data):
    m = data.draw(st.integers(1, 5), label="paths")
    size = data.draw(st.integers(1, 5), label="coefficients")
    zeros = data.draw(st.integers(0, size), label="signed-zero prefix")
    per_path = data.draw(st.booleans(), label="per-path coefficients")
    width = m if per_path else 1
    rows = np.array([data.draw(st.lists(_SIGNED_ZERO if k < zeros else _COEFF,
                                        min_size=width, max_size=width))
                     for k in range(size)])
    coeff = rows if per_path else rows[:, 0]
    x = np.array(data.draw(st.lists(st.one_of(_SIGNED_ZERO, st.floats(-2.0, 2.0)),
                                    min_size=m, max_size=m)))
    start = dynutil._lead_start(coeff)
    got = dynutil._lead_eval((coeff, start), x, np.full(m, np.nan))
    assert _bits(got) == _bits(dynutil._poly_eval(coeff, x))
    lead = next((c for c in coeff if np.any(c != 0)), None)
    if lead is None or not np.all(lead != 0):
        assert start == -1


def test_lead_start_skips_only_coefficients_zero_on_every_path():
    (d1, s1), (d2, s2) = dynutil._RiccatiMemo((1, 2))(np.array([[0.0, 0.0], [0.25, 0.0]]),
                                                      np.array([[0.0, 0.0], [0.6, 0.0]]))
    # switch_coeffs: regime 1's drift and volatility are the constants 0.25, 0.6
    assert [d1[1], s1[1], d2[1], s2[1]] == [3, 2, 0, 0]
    assert (d1[0][3], s1[0][2]) == (0.25, 0.6)
    mixed = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, 1.0]])
    assert dynutil._lead_start(mixed) == -1
    assert dynutil._lead_start(np.array([[-0.0, 0.0], [0.0, 0.5], [1.0, 1.0]])) == -1
    assert dynutil._lead_start(np.array([[-0.0, 0.0], [2.0, -0.5], [0.0, 1.0]])) == 1
    assert dynutil._lead_start(np.zeros((3, 2))) == -1
    coeffs = _mixed_lead_coeffs()
    b = np.array([-1.0, 0.0, 1.0])
    polys = dynutil._RiccatiMemo((1,))(coeffs.alpha(0.0, b), coeffs.beta(0.0, b))
    assert [start for _, start in polys[0]] == [-1, -1]


def test_ensemble_state_is_read_only_and_shared():
    coeffs = switch_coeffs()
    grid = TimeGrid(T=4.0, n=4096)
    lin = build_linear_utility(coeffs, grid=grid, n_paths=50, seed=0)
    quiet = [j for j, f in enumerate(lin.switch_flags) if j and not f.any()]
    assert quiet and len(quiet) < grid.n
    j = quiet[-1]
    for field in ("parity", "anchor"):
        levels = tuple(getattr(lin, field))
        assert levels[j] is levels[j - 1], field
    for field in ("parity", "anchor", "ahat", "switch_flags", "A1", "A2"):
        with pytest.raises(ValueError, match="read-only"):
            tuple(getattr(lin, field))[j][0] = 1
    _, _, levels = dynutil._ensemble(coeffs, grid, 50, 0, 0.1)
    for lv in itertools.islice(levels(), 3):
        for arr in (lv.parity, lv.anchor, lv.ahat, lv.switched):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


@pytest.mark.parametrize("mode", ["tree", "ensemble"])
def test_every_array_of_a_linear_utility_is_read_only(mode):
    if mode == "tree":
        coeffs, _ = linear_setup()
        lin = build_linear_utility(coeffs, build_tree(TimeGrid(0.5, 3), d=1, mode="path"),
                                   overshoot_limit=1.0)
        # stored once: a write to a stored level could leave A1 and A2 stale
        assert type(lin.A1) is type(lin.A2) is tuple and len(lin.lam) == 3
    else:
        lin = build_linear_utility(_COEFF_SETS["fast"](), grid=TimeGrid(T=0.25, n=256),
                                   n_paths=20, seed=1)
    fields = ("A1", "A2", "ahat", "parity", "anchor", "switch_flags", "lam", "mu")
    for array in itertools.chain([lin.times], *(getattr(lin, f) for f in fields)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("paths, named", [
    ([-1], "[-1]"), ([10], "[10]"), ([3, 10, -2], "[10, -2]")],
    ids=["negative", "past-the-end", "mixed"])
def test_replay_paths_rejects_a_path_outside_the_ensemble(monkeypatch, paths, named):
    starts = _count_replays(monkeypatch)
    with pytest.raises(ValueError, match=f"path indices {re.escape(named)} outside 0..9"):
        replay_paths(switch_coeffs(), TimeGrid(4.0, 4096), 10, paths)
    assert starts == []


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_ensemble_peak_memory(seed):
    # every level's own parity, anchor and flags would take ~52 MB here
    tracemalloc.start()
    try:
        build_linear_utility(switch_coeffs(), grid=TimeGrid(T=4.0, n=4096),
                             n_paths=300, seed=seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_ensemble_weights_are_derived_not_stored():
    grid, n_paths = TimeGrid(T=4.0, n=4096), 2000
    tracemalloc.start()
    try:
        lin = build_linear_utility(switch_coeffs(), grid=grid, n_paths=n_paths, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = len(lin.events.level)
    levels = len(np.unique(lin.events.level))
    assert (levels, events) == (524, 647)
    # the build holds the switch record and O(paths) Euler state, nothing per
    # level: under 32 (n_paths,) arrays of state; one block of increments with
    # its raw words (2 x _DRAW_FLOATS floats); per switch level eight small
    # arrays with their headers (under 2 KiB); per event eight 8-byte columns,
    # twice while they are concatenated (128 B); and 1 MiB for the one-time
    # allocations of a first call in the process. That is 2.8 MiB here; one
    # (n_paths,) array at each of the 524 switch levels alone would be 8 MiB.
    bound = (32 * n_paths * 8 + 2 * dynutil._DRAW_FLOATS * 8 + 2048 * levels
             + 128 * events + 2 ** 20)
    assert peak < bound, (peak, bound)
    for weights in (lin.A1, lin.A2):
        count = 0
        # two iterations in lock-step: each replays the same bits
        for j, (level, again) in enumerate(zip(weights, weights)):
            assert _bits(level) == _bits(again), j
            assert not level.flags.writeable, j
            count += 1
        assert count == grid.n + 1


def _count_replays(monkeypatch):
    """A list that gains one entry each time an Euler ensemble starts."""
    starts, run = [], dynutil._euler_levels

    def counted(*args):
        starts.append(args)
        return run(*args)

    monkeypatch.setattr(dynutil, "_euler_levels", counted)
    return starts


def test_ensemble_record_reads_start_no_replay(monkeypatch, tmp_path):
    starts = _count_replays(monkeypatch)
    # dynamic-utility-linear reads only the switch record: its one Euler
    # ensemble run is the build's own pass
    cfg = validate_config({"experiment": "dynamic-utility-linear", "seed": 1,
                           "mc_paths": 200, "output_dir": str(tmp_path)})
    assert run_experiment(cfg).report["details"]["ensemble_switch_steps"] > 20
    assert len(starts) == 1
    grid = TimeGrid(T=4.0, n=4096)
    lin = build_linear_utility(switch_coeffs(), grid=grid, n_paths=200, seed=1)
    assert len(starts) == 2
    assert sum(1 for _ in lin.A1) == grid.n + 1
    assert len(starts) <= 3


def test_each_ensemble_field_iteration_is_one_euler_run(monkeypatch):
    # a geometric ratio from 1: some of 20 paths switch at 5 of 256 steps
    coeffs = _COEFF_SETS["fast"]()
    grid = TimeGrid(T=256 / 1024, n=256)
    _, swapped, levels = dynutil._ensemble(coeffs, grid, 20, 1, 0.1)
    direct = list(levels())
    switch_levels = [j for j, lv in enumerate(direct) if lv.switched.any()]
    assert len(switch_levels) == 5
    quiet = max(set(range(1, grid.n + 1)) - set(switch_levels))
    starts = _count_replays(monkeypatch)
    lin = build_linear_utility(coeffs, grid=grid, n_paths=20, seed=1)
    assert lin.utility is None
    reads = {"parity": lambda lv: lv.parity, "anchor": lambda lv: lv.anchor,
             "ahat": lambda lv: lv.ahat, "switch_flags": lambda lv: lv.switched,
             "A1": lambda lv: dynutil._weights(lv.parity, lv.anchor, lv.ahat, swapped)[0],
             "A2": lambda lv: dynutil._weights(lv.parity, lv.anchor, lv.ahat, swapped)[1]}
    for field, read in reads.items():
        before = len(starts)
        got = list(getattr(lin, field))
        assert len(starts) == before + 1, field
        assert len(got) == grid.n + 1, field
        for j, (level, lv) in enumerate(zip(got, direct)):
            assert not level.flags.writeable, (field, j)
            assert _bits(level) == _bits(read(lv)), (field, j)
        if field in ("parity", "anchor"):
            assert got[quiet] is got[quiet - 1], field


@pytest.mark.parametrize("bound", (np.nan, np.inf))
def test_a_non_finite_coefficient_bound_fails_validation(bound):
    # no coefficient entry compares above a NaN or an infinite bound
    coeffs, _ = linear_setup()
    tree = build_tree(TimeGrid(0.5, 3), d=1, mode="path")
    build_linear_utility(coeffs, tree, overshoot_limit=1.0)
    with pytest.raises(ProblemValidationError, match="bound .* is not finite"):
        build_linear_utility(dataclasses.replace(coeffs, bound=bound), tree,
                             overshoot_limit=1.0)
