"""Closed-form benchmark constructions, their self-checks, witnesses,
and consistency-restoration reports."""
import numpy as np
import pytest

from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import solve_bsde, static_value
from treebsde.benchmarks import (
    BenchmarkError,
    deterministic_discrete_optimum,
    deterministic_example,
    deterministic_witness_check,
    forward_states,
    mean_variance,
    mv_grid,
    mv_grid_argmax,
    mv_moment_recursion,
    mv_restoration_check,
    one_dimensional,
    onedim_restoration_check,
    onedim_witness_check,
    pa_closed_form,
    pa_restoration_check,
    pa_value,
    principal_agent,
    subtree_argmax,
)


# ---------------------------------------------------------------------------
# construction


def test_parameter_validation():
    with pytest.raises(BenchmarkError):
        mean_variance(0.0, -1.0, 1.0)
    with pytest.raises(BenchmarkError):
        mean_variance(0.0, 1.0, 0.0)
    with pytest.raises(BenchmarkError):
        one_dimensional(1.0, -2.0)
    with pytest.raises(BenchmarkError):
        principal_agent(1.0, 1.0, 0.5, 1.0)  # R must be negative
    with pytest.raises(BenchmarkError):
        principal_agent(-1.0, 1.0, -0.5, 1.0)
    with pytest.raises(BenchmarkError, match="witness interval"):
        deterministic_example(1.0)


# ---------------------------------------------------------------------------
# mean-variance


def test_mv_analytic_references():
    mv = mean_variance(0.5, 2.0, 1.0)
    assert mv.optimal_value == pytest.approx(0.5 + 1.0 * (np.e - 1.0))
    assert float(mv.analytic["c_process"](0.0, 0.5)) == pytest.approx(2.0)
    assert mv.analytic["feedback"](0.0, 0.5) == pytest.approx(2.0 * np.e)


def _mv_feedback_value(mv, tree, feedback):
    """phi_c at the root for a feedback control: forward states, then one
    backward solve of the carrier on the resulting terminal data."""
    xT = forward_states(tree, mv.forward, feedback)[-1]
    Y = solve_bsde(mv.problem, tree, eta=np.stack([xT, xT * xT], axis=1))
    return float(mv.problem.phi(Y[0])[0])


def test_mv_carrier_value_near_analytic():
    mv = mean_variance(0.0, 1.0, 1.0)
    tree = build_tree(TimeGrid(1.0, 12), d=1, mode="path")
    v = static_value(mv.problem, tree).value
    assert v == pytest.approx(mv.optimal_value, abs=0.1)
    # the carrier bakes the analytic feedback into its terminal map
    assert v == _mv_feedback_value(mv, tree, mv.analytic["feedback"])


def test_mv_tree_moments_match_recursion():
    """Dual route: the tree expectation of (X_T, X_T^2) equals the exact
    affine moment recursion with the same step count."""
    mv = mean_variance(0.0, 1.0, 1.0)
    tree = build_tree(TimeGrid(1.0, 6), d=1, mode="path")
    xT = forward_states(tree, mv.forward, mv.analytic["feedback"])[-1]
    p = tree.probs[tree.n]
    m1, m2 = mv_moment_recursion(0.0, 0.0, mv.analytic["a_star"], -1.0,
                                 0.0, 1.0, 6)
    assert float(np.sum(p * xT)) == pytest.approx(float(m1), abs=1e-12)
    assert float(np.sum(p * xT * xT)) == pytest.approx(float(m2), abs=1e-12)


def test_mv_time_zero_grid_argmax_is_analytic_cell():
    mv = mean_variance(0.0, 1.0, 1.0)
    cell = mv_grid_argmax(mv, 0.0, 0.0, 0.0, 12, 1.0)
    assert cell == (mv.analytic["a_star"], mv.analytic["b_star"])


def test_mv_analytic_feedback_near_grid_best_on_tree():
    mv = mean_variance(0.0, 1.0, 1.0)
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    va = static_value(mv.problem, tree).value
    best = -np.inf
    for a, b in zip(*mv_grid(mv)):
        best = max(best, _mv_feedback_value(
            mv, tree, lambda t, x, a=a, b=b: a + b * np.asarray(x)))
    assert 0.0 <= best - va <= 0.1


def test_mv_restoration_and_stale_control_group():
    mv = mean_variance(0.0, 1.0, 1.0)
    tree = build_tree(TimeGrid(1.0, 12), d=1, mode="path")
    rest = mv_restoration_check(mv, tree, levels=(2, 4, 6, 8), restored=True)
    assert rest.violations == 0 and rest.nodes_checked > 100
    stale = mv_restoration_check(mv, tree, levels=(2, 4, 6, 8), restored=False)
    assert stale.violations >= 1


def test_forward_states_needs_path_mode_and_checked_init():
    mv = mean_variance(0.0, 1.0, 1.0)
    rec = build_tree(TimeGrid(1.0, 4), d=1, mode="recombining")
    with pytest.raises(ValueError, match="path mode"):
        forward_states(rec, mv.forward, mv.analytic["feedback"])
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    with pytest.raises(ValueError, match="init length"):
        forward_states(tree, mv.forward, mv.analytic["feedback"],
                       level0=1, init=np.zeros(5))


def test_forward_states_accepts_per_level_controls():
    mv = mean_variance(0.0, 1.0, 1.0)
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    xs = forward_states(tree, mv.forward, lambda t, x: 1.0 if t < tree.dt / 2 else 0.0)
    sq = np.sqrt(tree.dt)
    np.testing.assert_allclose(
        xs[1], [0.5 - sq, 0.5 + sq])  # u=1: dx = dt +/- sqrt(dt)
    np.testing.assert_allclose(xs[2], np.repeat(xs[1], 2))  # u=0 freezes


# ---------------------------------------------------------------------------
# one-dimensional


def test_onedim_value_zero_at_c_equal_T():
    od = one_dimensional(2.4, 2.4)
    tree = build_tree(TimeGrid(2.4, 2), d=1, mode="path")
    sv = static_value(od.problem, tree)
    assert abs(sv.value) <= 1e-12
    assert all(s == 0 for s in sv.assignment)  # u = -1 on every slot


def test_onedim_classification_plus_one():
    od = one_dimensional(-2.4, 2.4)
    tree = build_tree(TimeGrid(2.4, 2), d=1, mode="path")
    sv = static_value(od.problem, tree)
    assert abs(sv.value) <= 1e-12
    idx_plus = od.problem.control_values.index(1.0)
    assert all(s == idx_plus for s in sv.assignment)


def test_onedim_witness_nodes_flip_to_plus_one():
    od = one_dimensional(2.4, 2.4)
    tree = build_tree(TimeGrid(2.4, 8), d=1, mode="path")
    rep = onedim_witness_check(od, tree)
    assert rep.nodes  # witness set non-empty at T = 2.4, n = 8
    assert {lvl for lvl, _ in rep.nodes} == {6, 7}
    assert rep.all_flip
    assert rep.min_margin >= 0.59


@pytest.mark.filterwarnings("ignore:dt = 0.4")
def test_onedim_restoration_and_stale_control_group():
    od = one_dimensional(2.4, 2.4)
    tree = build_tree(TimeGrid(2.4, 6), d=1, mode="path")
    rest = onedim_restoration_check(od, tree, levels=(4, 5), restored=True)
    assert rest.violations == 0 and rest.nodes_checked == 48
    stale = onedim_restoration_check(od, tree, levels=(4, 5), restored=False)
    assert stale.violations >= 1


# ---------------------------------------------------------------------------
# principal-agent


def test_pa_analytic_references():
    pa = principal_agent(1.0, 1.0, -0.5, 1.0)
    assert pa.analytic["u_star"] == pytest.approx(2.0 / 3.0)
    assert float(pa.analytic["r_process"](0.0, 0.0)) == pytest.approx(-0.5)
    pa2 = principal_agent(2.0, 1.0, -0.25, 1.0)
    assert pa2.analytic["u_star"] == pytest.approx(0.5)


def test_pa_probe_grid_prefers_analytic_action():
    for pa in (principal_agent(1.0, 1.0, -0.5, 1.0),
               principal_agent(2.0, 1.0, -0.25, 1.0)):
        tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
        us = pa.analytic["u_star"]
        vals = {u: float(pa_value(pa, tree, u)[0])
                for u in (us - 0.1, us, us + 0.1)}
        assert max(vals, key=vals.get) == us


def test_pa_restoration_and_stale_control_group():
    pa = principal_agent(1.0, 1.0, -0.5, 1.0)
    tree = build_tree(TimeGrid(1.0, 6), d=1, mode="path")
    rest = pa_restoration_check(pa, tree, level=3, restored=True)
    assert rest.all_match
    assert rest.argmax_matches == rest.argmax_total == 8
    assert rest.max_contract_deviation <= 1e-12
    stale = pa_restoration_check(pa, tree, level=3, restored=False)
    assert not stale.all_match
    assert stale.max_contract_deviation > 0.5


def test_pa_carrier_value_matches_closed_form_factorization():
    """Tree value of a constant action factorizes into per-step tilted factors:
    v = -exp(gamma_P (x_R + cost(u) T)) * g(u)^n with the agent's cost of the
    probed action, cost(u) = (gamma_A - 1) u^2 / 2, and
    g(u) = cosh(gp (1-u) s) - u s sinh(gp (1-u) s), s = sqrt(dt)."""
    tree = build_tree(TimeGrid(1.0, 5), d=1, mode="path")
    s = np.sqrt(tree.dt)
    unit = principal_agent(1.0, 1.0, -0.5, 1.0)
    # at gamma_A = 1 every action costs 0; at gamma_A = 2 u = 0.3 is off u*
    for pa, actions in ((unit, (0.5, unit.analytic["u_star"])),
                        (principal_agent(2.0, 1.0, -0.25, 1.0), (0.3,))):
        a = pa.analytic
        for u in actions:
            th = a["gamma_P"] * (1.0 - u) * s
            g = np.cosh(th) - u * s * np.sinh(th)
            cost = 0.5 * (a["gamma_A"] - 1.0) * u * u
            closed = -np.exp(a["gamma_P"] * (a["x_R"] + cost * 1.0)) * g ** 5
            assert float(pa_value(pa, tree, u)[0]) == pytest.approx(closed, rel=1e-12)
            assert pa_closed_form(pa, tree, u) == pytest.approx(closed, rel=1e-12)
    assert closed == pytest.approx(-2.163215, abs=1e-6)


def test_pa_terminal_closure_gives_the_pa_value_payout():
    pa = principal_agent(1.0, 1.0, -0.5, 1.0)
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    u = pa.analytic["u_star"]
    policy = tuple(np.full(tree.node_count(j), u) for j in range(tree.n))
    assert solve_bsde(pa.problem, tree, policy)[0][0, 0] == float(pa_value(pa, tree, u)[0])


# ---------------------------------------------------------------------------
# deterministic example


def test_deterministic_value_function():
    de = deterministic_example(2.0)
    v = de.analytic["value_at"]
    assert v(0.0) == 0.5
    assert v(1.0) == 0.5            # t = T - 1 boundary
    assert v(1.5) == pytest.approx(0.5 * 0.5 * (2.0 - 0.5))
    assert v(2.0) == pytest.approx(0.0)


def test_deterministic_discrete_optimum_frozen_values():
    assert deterministic_discrete_optimum(2.0, 64) == 0.515625
    assert deterministic_discrete_optimum(2.0, 256) == 0.50390625


def test_deterministic_enumeration_matches_discrete_formula():
    de = deterministic_example(2.0)
    tree = build_tree(TimeGrid(2.0, 8), d=1, mode="recombining")
    sv = static_value(de.problem, tree)
    assert sv.value == pytest.approx(deterministic_discrete_optimum(2.0, 8),
                                     abs=1e-14)
    assert not sv.heuristic


def test_deterministic_witness_margin():
    de = deterministic_example(2.0)
    tree = build_tree(TimeGrid(2.0, 12), d=1, mode="recombining")
    rep = deterministic_witness_check(de, tree, level=3)  # t = 0.5
    assert rep.all_flip
    assert rep.min_margin > 0
    assert rep.min_margin == pytest.approx(0.5 ** 2 / 2.0, abs=0.06)
    with pytest.raises(BenchmarkError, match="T - 1"):
        deterministic_witness_check(de, tree, level=9)  # t = 1.5 > T - 1


def test_subtree_argmax_cap(enumeration_cap):
    od = one_dimensional(2.4, 2.4)
    tree = build_tree(TimeGrid(2.4, 8), d=1, mode="path")
    with enumeration_cap(10), pytest.raises(BenchmarkError, match="cap"):
        subtree_argmax(od.problem, tree, 1, 0, lambda y: y[:, 0])
