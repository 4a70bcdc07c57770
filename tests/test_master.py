"""Forward value function, its concatenation identity, cylinder calculus,
stationarity residual, and the two-generator gap demonstration."""
import dataclasses

import numpy as np
import pytest

from treebsde import bsde, problems
from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import (
    BSDEProblem, EnumerationCapError, NodeContext, PolicySpace, StructureError,
    maximize_over_policies,
)
from treebsde.master import (
    CylinderFunctional,
    ForwardValue,
    InvalidCylinderError,
    check_forward_dpp,
    check_lipschitz,
    default_illposed_generators,
    eta_derivative,
    illposed_demo,
    master_residual,
    node_histories,
    path_derivative_probe,
)
from treebsde.problems import coupled_two_dim_problem, exp_cylinder


def drift_problem(control_values=(0.0, 1.0), deterministic=False):
    """f = u: value adds the integral of the control."""
    return BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=control_values,
        lipschitz_L=1.0,
        deterministic_controls=deterministic,
        phi_lipschitz=1.0,
    )


def test_forward_value_level_zero_is_phi():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    p = drift_problem()
    eta = np.array([[0.7]])
    assert ForwardValue(p, tree).value(0, eta) == p.phi(eta)[0]


def test_forward_value_terminal_level_is_static_value():
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    p = drift_problem()
    ctx = NodeContext(level=3, b=tree.values[3], tree=tree)
    xi = np.asarray(p.terminal(ctx), dtype=float)
    direct, _, _, _ = maximize_over_policies(
        p, tree, lambda y: p.phi(y), start_level=0)
    assert ForwardValue(p, tree).value(3, xi) == direct[0]


def test_forward_dpp_exact_scalar():
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    p = drift_problem()
    ctx = NodeContext(level=3, b=tree.values[3], tree=tree)
    eta = np.asarray(p.terminal(ctx), dtype=float)
    rep = check_forward_dpp(p, tree, 1, 3, eta)
    assert rep.residual <= 1e-12


def test_forward_dpp_exact_two_dim_three_controls():
    tree = build_tree(TimeGrid(0.8, 2), d=1, mode="path")
    p = coupled_two_dim_problem()
    ctx = NodeContext(level=2, b=tree.values[2], tree=tree)
    eta = np.asarray(p.terminal(ctx), dtype=float)
    rep = check_forward_dpp(p, tree, 1, 2, eta)
    assert rep.residual <= 1e-12


def test_forward_dpp_deterministic_controls_recombining():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="recombining")
    p = drift_problem(deterministic=True)
    ctx = NodeContext(level=4, b=tree.values[4], tree=tree)
    eta = np.asarray(p.terminal(ctx), dtype=float)
    rep = check_forward_dpp(p, tree, 2, 4, eta)
    assert rep.residual <= 1e-12


def test_forward_dpp_degenerate_endpoints():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    p = drift_problem()
    ctx = NodeContext(level=2, b=tree.values[2], tree=tree)
    eta = np.asarray(p.terminal(ctx), dtype=float)
    assert check_forward_dpp(p, tree, 2, 2, eta).residual == 0.0
    assert check_forward_dpp(p, tree, 0, 2, eta).residual <= 1e-12
    with pytest.raises(ValueError):
        check_forward_dpp(p, tree, 2, 1, eta)


def test_forward_dpp_segment_over_cap_raises_enumeration_cap_error(enumeration_cap):
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    p = drift_problem()
    ctx = NodeContext(level=3, b=tree.values[3], tree=tree)
    eta = np.asarray(p.terminal(ctx), dtype=float)
    # the 2^6 segment policies on [1, 3) are refused before the direct side
    with enumeration_cap(10), pytest.raises(EnumerationCapError,
                                            match="64 policies exceed cap 10"):
        check_forward_dpp(p, tree, 1, 3, eta)


def test_lipschitz_ratio_within_bound():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    p = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: 0.5 * y + u[:, None],
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: -np.abs(1.0 + y[:, 0]),
        control_values=(-1.0, 1.0),
        lipschitz_L=1.0, phi_lipschitz=1.0,
    )
    rng = np.random.default_rng(np.random.Philox(5))
    m = tree.node_count(2)
    pairs = [(rng.normal(size=(m, 1)), rng.normal(size=(m, 1))) for _ in range(40)]
    same = rng.normal(size=(m, 1))
    pairs.append((same, same.copy()))
    rep = check_lipschitz(p, tree, 2, pairs)
    assert rep.pairs_checked == 40
    assert rep.skipped == 1
    assert rep.passed
    assert rep.max_ratio <= rep.bound


@pytest.mark.filterwarnings("ignore:dt = .* exceeds the comparison-preserving bound")
def test_lipschitz_with_no_pair_checked_does_not_pass():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    same = np.ones((tree.node_count(2), 1))
    rep = check_lipschitz(problems.scalar_drift_problem(), tree, 2, [(same, same.copy())])
    assert (rep.pairs_checked, rep.skipped, rep.max_ratio, rep.passed) == (0, 1, 0.0, False)


@pytest.mark.filterwarnings("ignore:dt = .* exceeds the comparison-preserving bound")
@pytest.mark.parametrize("case", ("all-nan", "one-nan", "inf-side"))
def test_lipschitz_fails_a_pair_it_cannot_measure(case):
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    m = tree.node_count(2)
    zero, one = np.zeros((m, 1)), np.ones((m, 1))
    one_nan = zero.copy()
    one_nan[1] = np.nan
    bad = {"all-nan": (np.full((m, 1), np.nan),) * 2, "one-nan": (one_nan, one),
           "inf-side": (np.full((m, 1), np.inf), one)}[case]
    # the measurable pair alone has ratio 1, well inside the bound
    rep = check_lipschitz(problems.scalar_drift_problem(), tree, 2, [(zero, one), bad])
    assert (rep.pairs_checked, rep.skipped, rep.passed) == (2, 0, False)
    np.testing.assert_equal(rep.max_ratio, np.inf if case == "inf-side" else np.nan)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _illposed_problem(index):
    return BSDEProblem(value_dim=1, f=default_illposed_generators()[index],
                       terminal=lambda ctx: ctx.b[:, :1].copy(), phi=lambda y: y[:, 0],
                       control_values=(0.0,), lipschitz_L=1.0)


def _floored(problem):
    """problem with phi floored to halves: many policies tie at the maximum."""
    return dataclasses.replace(problem, phi=lambda y: np.floor(2.0 * y[:, 0]))


# problem, tree mode, tree steps, level of the terminal data
FORWARD_CASES = {
    "scalar-drift": (problems.scalar_drift_problem, "path", 3, 2),
    "scalar-drift-ties": (lambda: _floored(problems.scalar_drift_problem()), "path", 3, 2),
    "coupled-two-dim": (coupled_two_dim_problem, "path", 2, 2),
    "level-controls": (problems.level_controls_problem, "recombining", 6, 4),
    "illposed-f1": (lambda: _illposed_problem(0), "path", 4, 2),
    "illposed-f2": (lambda: _illposed_problem(1), "path", 4, 2),
}


@pytest.mark.filterwarnings("ignore:dt = .* exceeds the comparison-preserving bound")
@pytest.mark.parametrize("pairs_per_chunk", [1, 3, 8, 4096])
@pytest.mark.parametrize("case", FORWARD_CASES)
def test_stacked_forward_values_match_the_per_eta_search_and_the_per_policy_route(
        case, pairs_per_chunk, monkeypatch):
    ctor, mode, n, level = FORWARD_CASES[case]
    problem, tree = ctor(), build_tree(TimeGrid(1.0, n), d=1, mode=mode)
    m, dpr = tree.node_count(level), problem.value_dim
    # child floats of one pair at the widest level, node_count(level - 1) rows
    monkeypatch.setattr(bsde, "_CHUNK_FLOATS",
                        pairs_per_chunk * tree.node_count(level - 1) * 2 * dpr)
    rng = np.random.default_rng(np.random.Philox(11))
    # the last two stacks make phi NaN, then -inf or NaN, under every policy
    etas = np.concatenate([rng.normal(size=(5, m, dpr)), np.full((1, m, dpr), np.nan),
                           np.full((1, m, dpr), -np.inf)])
    space = PolicySpace(problem, tree, 0, level)
    bsde.probe_lipschitz(problem, tree)  # its calls are not the solve's
    calls, f = [], problem.f
    problem.f = lambda *args: calls.append(1) or f(*args)
    best, first = bsde._search(problem, space, problem.phi, etas)
    searched = len(calls)
    chunks = [(lo, len(y)) for lo, (y, *_), _ in bsde._solve_chunks(problem, space, etas)]
    assert searched == len(chunks) * level  # one problem.f call per level per chunk
    assert max(p for _, p in chunks) <= pairs_per_chunk
    assert [lo for lo, _ in chunks] == np.cumsum([0] + [p for _, p in chunks[:-1]]).tolist()
    assert sum(p for _, p in chunks) == len(etas) * space.size
    assert _bits(ForwardValue(problem, tree).values(level, etas)) == _bits(best[:, 0])
    assert best[-2:, 0].tolist() == [-np.inf, -np.inf] and first[-2:, 0].tolist() == [-1, -1]
    for eta, top, index in zip(etas, best, first):
        one = bsde._search(problem, space, problem.phi, eta)
        assert _bits(one[0]) == _bits(top) and _bits(one[1]) == _bits(index)
        vals, assigns, _, _ = maximize_over_policies(
            problem, tree, lambda y: problem.phi(y), terminal_level=level, eta=eta)
        assert _bits(vals) == _bits(top)
        assert assigns == [space.assignment(index[0]) if index[0] >= 0 else None]


def test_stacked_forward_values_refuse_over_cap_before_any_generator_call(enumeration_cap):
    problem = problems.scalar_drift_problem()
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    calls, f = [], problem.f
    problem.f = lambda *args: calls.append(1) or f(*args)
    etas = np.zeros((2, tree.node_count(3), 1))
    with enumeration_cap(10), pytest.raises(EnumerationCapError,
                                            match="128 policies exceed cap 10"):
        ForwardValue(problem, tree).values(3, etas)
    assert calls == []


def test_lipschitz_requires_declared_phi_constant():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    p = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0,),
        lipschitz_L=1.0,
    )
    with pytest.raises(ValueError, match="phi_lipschitz"):
        check_lipschitz(p, tree, 1, [])


def quadratic_cylinder():
    return CylinderFunctional(
        value=lambda t, path: path[:, -1, 0] ** 2,
        d_t=lambda t, path: np.zeros(path.shape[0]),
        d_b=lambda t, path: 2.0 * path[:, -1, :],
        d_bb=lambda t, path: 2.0 * np.ones((path.shape[0], 1, 1, 1)),
        name="b_squared",
    )


def test_path_probe_quadratic_exact_zero():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    assert path_derivative_probe(quadratic_cylinder(), tree) == 0.0


def test_path_probe_time_linear_cross_term():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    cyl = CylinderFunctional(
        value=lambda t, path: t * path[:, -1, 0],
        d_t=lambda t, path: path[:, -1, 0],
        d_b=lambda t, path: np.full((path.shape[0], 1, 1), t)[..., 0],
        d_bb=lambda t, path: np.zeros((path.shape[0], 1, 1, 1)),
        name="t_times_b",
    )
    # residual is exactly dt * |dB| = dt^{3/2}
    assert path_derivative_probe(cyl, tree) == pytest.approx(tree.dt ** 1.5, rel=1e-12)


def test_path_probe_cubic_residual_scale():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    cyl = CylinderFunctional(
        value=lambda t, path: path[:, -1, 0] ** 3,
        d_t=lambda t, path: np.zeros(path.shape[0]),
        d_b=lambda t, path: 3.0 * path[:, -1, :] ** 2,
        d_bb=lambda t, path: 6.0 * path[:, -1, 0].reshape(-1, 1, 1, 1),
        name="b_cubed",
    )
    assert path_derivative_probe(cyl, tree) == pytest.approx(tree.dt ** 1.5, rel=1e-12)


def broken_cylinder():
    return CylinderFunctional(
        value=lambda t, path: path[:, -1, 0] ** 2,
        d_t=lambda t, path: np.zeros(path.shape[0]),
        d_b=lambda t, path: np.zeros((path.shape[0], 1, 1)),  # missing 2B term
        d_bb=lambda t, path: 2.0 * np.ones((path.shape[0], 1, 1, 1)),
        name="broken",
    )


def test_path_probe_rejects_wrong_derivative():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    with pytest.raises(InvalidCylinderError, match="broken"):
        path_derivative_probe(broken_cylinder(), tree, threshold=1e-9)


@pytest.mark.parametrize("n", (4, 8, 16))
def test_path_probe_passes_the_exp_cylinder_on_a_recombining_tree(n):
    # a recombining path is the current-value slot plus one step; on the
    # levels master_residual probes at level n // 2 the residual is
    # O(dt^{3/2}), far below the default threshold (9.0 or more here)
    tree = build_tree(TimeGrid(1.0, n), d=1, mode="recombining")
    assert 0.0 < path_derivative_probe(exp_cylinder(), tree, levels=range(n // 2)) < 0.05


def test_path_probe_rejects_wrong_derivative_on_a_recombining_tree():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="recombining")
    with pytest.raises(InvalidCylinderError, match="broken"):
        path_derivative_probe(broken_cylinder(), tree, threshold=1e-9)


def test_master_residual_probes_the_cylinder_on_a_recombining_tree():
    # at n = 64 the missing 2B dB term reaches 2 * 31/8 * 1/8 = 0.97 below
    # level 32, above the default threshold 100 * dt^{3/2} * 2 = 0.39
    tree = build_tree(TimeGrid(1.0, 64), d=1, mode="recombining")
    with pytest.raises(InvalidCylinderError, match="broken"):
        master_residual(control_free_problem(), tree, broken_cylinder(), level=32)


def test_node_histories_path_and_recombining():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    hist = node_histories(tree, 2)
    assert hist.shape == (4, 3, 1)
    sq = np.sqrt(tree.dt)
    # node 3 = (+, +)
    np.testing.assert_allclose(hist[3, :, 0], [0.0, sq, 2 * sq])
    # node 1 = (-, +)
    np.testing.assert_allclose(hist[1, :, 0], [0.0, -sq, 0.0])
    rec = build_tree(TimeGrid(1.0, 2), d=1, mode="recombining")
    assert node_histories(rec, 2).shape == (3, 1, 1)


def control_free_problem():
    return BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0,),
        lipschitz_L=1.0, phi_lipschitz=1.0,
    )


def test_eta_derivative_quadratic_phi_closed_form():
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    p = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0] ** 2,
        control_values=(0.0,),
        lipschitz_L=1.0,
    )
    fv = ForwardValue(p, tree)
    rng = np.random.default_rng(np.random.Philox(2))
    eta = rng.normal(size=(tree.node_count(1), 1))
    D = eta_derivative(fv, 1, eta)
    mean = float(np.sum(tree.probs[1][:, None] * eta))
    np.testing.assert_allclose(D, 2.0 * mean * np.ones_like(D), atol=1e-10)


def test_master_residual_drift_only_linear_case():
    """Control-free, linear phi, exp cylinder: residual is O(dt) and the
    defect halves with dt (ratio in [1.5, 3] across three refinements)."""
    p = control_free_problem()
    res = []
    for n in (4, 8, 16):
        tree = build_tree(TimeGrid(1.0, n), d=1, mode="recombining")
        rep = master_residual(p, tree, exp_cylinder(), level=n // 2)
        assert rep.sup_term == 0.0
        res.append(abs(rep.residual))
    assert res[0] > res[1] > res[2] > 0
    for a, b in zip(res, res[1:]):
        assert 1.5 <= a / b <= 3.0


def test_master_residual_exact_cancellation_with_controls():
    """f = u, U = {0, 1}, phi = id, eta = B: sup-term 1 cancels the left
    time-difference exactly (up to derivative-probe rounding)."""
    p = drift_problem(control_values=(0.0, 1.0))
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    cyl = CylinderFunctional(
        value=lambda t, path: path[:, -1, 0],
        d_t=lambda t, path: np.zeros(path.shape[0]),
        d_b=lambda t, path: np.ones((path.shape[0], 1, 1)),
        d_bb=lambda t, path: np.zeros((path.shape[0], 1, 1, 1)),
        name="b_itself",
    )
    rep = master_residual(p, tree, cyl, level=2)
    assert rep.drift_term == 0.0
    assert rep.sup_term == pytest.approx(1.0, abs=1e-9)
    assert rep.left_time_term == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.residual) <= 1e-9


def test_master_residual_needs_positive_level():
    p = control_free_problem()
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    with pytest.raises(ValueError, match="level >= 1"):
        master_residual(p, tree, exp_cylinder(), level=0)


@pytest.mark.parametrize("mode", ("path", "recombining"))
def test_master_residual_names_a_value_dimension_mismatch(mode):
    # exp_cylinder has d' = 1, the coupled problem d' = 2
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode=mode)
    with pytest.raises(InvalidCylinderError,
                       match="'exp_b': value has value dimension 1, the problem's is 2"):
        master_residual(coupled_two_dim_problem(), tree, exp_cylinder(), level=2)


def test_illposed_demo_gap_equals_horizon():
    tree = build_tree(TimeGrid(1.0, 4), d=1, mode="path")
    rep = illposed_demo(tree)
    assert rep.psi_1 == 0.0
    assert rep.psi_2 == 1.0
    assert rep.gap == 1.0
    assert rep.sup_terms_identical
    assert rep.z_dependent
    assert rep.witness


def test_illposed_demo_control_group_same_generator():
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    f1, _ = default_illposed_generators()
    rep = illposed_demo(tree, f1=f1, f2=f1)
    assert rep.gap == 0.0
    assert not rep.z_dependent
    assert not rep.witness


def test_illposed_demo_rejects_disagreement_at_zero():
    tree = build_tree(TimeGrid(1.0, 3), d=1, mode="path")
    f1, _ = default_illposed_generators()

    def f_bad(t, ctx, y, z, u):
        return y  # differs from f1 at z = 0

    with pytest.raises(StructureError, match="z = 0"):
        illposed_demo(tree, f1=f1, f2=f_bad)
