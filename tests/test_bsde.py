import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebsde import bsde, problems
from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import (
    BSDEProblem, ControlPolicy, EnumerationCapError, PolicySpace, ProblemValidationError,
    StructureError, envelope_bsde, monotone_step_bound, reachable_set,
    solve_bsde, static_value, maximize_over_policies,
)
from treebsde.benchmarks import (
    deterministic_discrete_optimum, deterministic_example, one_dimensional, subtree_argmax,
)


def zero_f(t, ctx, y, z, u):
    return np.zeros_like(y)


def make_problem(f, terminal, phi=lambda y: y[:, 0], U=(0.0,), L=0.0, dpr=1, **kw):
    return BSDEProblem(value_dim=dpr, f=f, terminal=terminal, phi=phi,
                       control_values=tuple(U), lipschitz_L=L, **kw)


def test_martingale_representation_of_b():
    tree = build_tree(TimeGrid(1.0, 4), 1, "path")
    prob = make_problem(zero_f, lambda ctx: ctx.b[:, :1])
    sol = solve_bsde(prob, tree)
    assert abs(sol.Y[0][0, 0]) < 1e-14
    for Z in sol.Z:
        np.testing.assert_allclose(Z, 1.0, atol=1e-13)


def test_identity_z_multidim():
    tree = build_tree(TimeGrid(1.0, 3), 2, "path")
    prob = make_problem(zero_f, lambda ctx: ctx.b, dpr=2)
    sol = solve_bsde(prob, tree)
    for Z in sol.Z:
        np.testing.assert_allclose(
            Z, np.broadcast_to(np.eye(2), Z.shape), atol=1e-13)


def test_constant_terminal():
    tree = build_tree(TimeGrid(1.0, 3), 1, "recombining")
    prob = make_problem(zero_f, lambda ctx: np.full((ctx.b.shape[0], 1), 2.5))
    sol = solve_bsde(prob, tree)
    for Y in sol.Y:
        np.testing.assert_array_equal(Y, 2.5)
    for Z in sol.Z:
        np.testing.assert_array_equal(Z, 0.0)


def test_terminal_consistency_bitwise():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")
    eta = np.random.default_rng(1).normal(size=(tree.node_count(3), 1))
    prob = make_problem(zero_f, None)
    sol = solve_bsde(prob, tree, terminal_level=3, eta=eta)
    assert sol.Y[3] is not eta or np.shares_memory(sol.Y[3], eta) or True
    np.testing.assert_array_equal(sol.Y[3], eta.reshape(-1, 1))


def test_backward_recursion_holds():
    tree = build_tree(TimeGrid(1.0, 4), 1, "path")

    def f(t, ctx, y, z, u):
        return 0.5 * np.sin(y) + 0.25 * np.cos(z[:, :, 0]) + u[:, None]

    prob = make_problem(f, lambda ctx: ctx.b[:, :1] ** 2, U=(0.0, 1.0), L=0.75)
    pol = ControlPolicy.constant(tree, 1.0)
    sol = solve_bsde(prob, tree, pol)
    dt = tree.dt
    for j in range(4):
        cv = tree.child_values(j, sol.Y[j + 1])
        P = cv.mean(axis=1)
        lhs = sol.Y[j]
        rhs = P + f(tree.grid.times()[j], None, P, sol.Z[j],
                    np.full(P.shape[0], 1.0)) * dt
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_flow_concatenation_identity():
    tree = build_tree(TimeGrid(1.0, 5), 1, "path")

    def f(t, ctx, y, z, u):
        return np.tanh(y) * 0.4 + 0.2 * z[:, :, 0] + u[:, None]

    prob = make_problem(f, lambda ctx: np.abs(ctx.b[:, :1]), U=(-1.0, 1.0), L=0.6)
    rng = np.random.default_rng(5)
    pol = ControlPolicy(tuple(
        rng.choice([-1.0, 1.0], size=tree.node_count(j)) for j in range(5)))
    full = solve_bsde(prob, tree, pol)
    k = 3
    two_stage = solve_bsde(prob, tree, pol, terminal_level=k, eta=full.Y[k])
    np.testing.assert_allclose(two_stage.Y[0], full.Y[0], atol=1e-12)


def test_stability_bound():
    tree = build_tree(TimeGrid(1.0, 6), 1, "path")
    L = 0.5

    def f(t, ctx, y, z, u):
        return 0.3 * y + 0.2 * z[:, :, 0]

    prob = make_problem(f, None, L=L)
    rng = np.random.default_rng(9)
    eta = rng.normal(size=(tree.node_count(6), 1))
    delta = rng.normal(size=(tree.node_count(6), 1)) * 0.1
    s0 = solve_bsde(prob, tree, terminal_level=6, eta=eta)
    s1 = solve_bsde(prob, tree, terminal_level=6, eta=eta + delta)
    l2 = lambda v, k: np.sqrt((tree.probs[k] * (v[:, 0] ** 2)).sum())
    C = 2.0 * (1.0 + L)
    bound = np.exp(C * L * tree.grid.T) * l2(delta, 6)
    assert abs(s1.Y[0][0, 0] - s0.Y[0][0, 0]) <= bound + 1e-14


def test_comparison_one_dim():
    L = 1.0
    n = 8  # dt = 0.125 < monotone_step_bound(1) ~ 0.38
    tree = build_tree(TimeGrid(1.0, n), 1, "path")
    assert tree.dt <= monotone_step_bound(L) / 2

    def f(t, ctx, y, z, u):
        return 0.6 * y - 0.4 * z[:, :, 0]

    prob = make_problem(f, None, L=L)
    rng = np.random.default_rng(11)
    eta = rng.normal(size=(tree.node_count(n), 1))
    etap = eta + np.abs(rng.normal(size=eta.shape))
    s0 = solve_bsde(prob, tree, terminal_level=n, eta=eta)
    s1 = solve_bsde(prob, tree, terminal_level=n, eta=etap)
    for j in range(n + 1):
        assert np.all(s1.Y[j] >= s0.Y[j] - 1e-14)


def test_monotone_warning_when_dt_large():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")  # dt = 1

    def f(t, ctx, y, z, u):
        return 2.0 * y

    prob = make_problem(f, lambda ctx: ctx.b[:, :1], L=2.0)
    with pytest.warns(UserWarning, match="comparison"):
        solve_bsde(prob, tree)


def test_lipschitz_probe_failure():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")

    def f(t, ctx, y, z, u):
        return 3.0 * y

    prob = make_problem(f, lambda ctx: ctx.b[:, :1], L=0.5)
    with pytest.raises(ProblemValidationError, match="Lipschitz"):
        solve_bsde(prob, tree)


def test_static_value_one_step():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")

    def f(t, ctx, y, z, u):
        return u[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)),
                        U=(-1.0, 1.0))
    res = static_value(prob, tree)
    assert res.value == pytest.approx(1.0)
    assert res.assignment == (1,)
    assert not res.heuristic


def test_static_value_tie_break_lexicographic():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")

    def f(t, ctx, y, z, u):
        return (u ** 2)[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)),
                        U=(-1.0, 0.5, 1.0))
    res = static_value(prob, tree)
    # u=-1 and u=+1 tie at value 1; smallest index wins
    assert res.assignment == (0,)
    # the same first-assignment rule for per-node maxima below the root ...
    tree2 = build_tree(TimeGrid(1.0, 2), 1, "path")
    vals, assigns, count, _ = maximize_over_policies(
        prob, tree2, lambda y: y[:, 0], start_level=1)
    assert count == 9
    np.testing.assert_array_equal(vals, [0.5, 0.5])
    assert assigns == [(0, 0), (0, 0)]
    # ... and for a single node's subtree, whose only slot is the node itself
    best, assign = subtree_argmax(prob, tree2, 1, 1, lambda y: y[:, 0])
    assert best == 0.5
    assert assign == (0,)
    assert PolicySpace(prob, tree2, 1, node=1).size == 3


def test_static_value_control_free():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")
    prob = make_problem(zero_f, lambda ctx: ctx.b[:, :1] ** 2)
    res = static_value(prob, tree)
    assert res.value == pytest.approx(1.0)


def test_static_value_sup_dominates_members():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")

    def f(t, ctx, y, z, u):
        return u[:, None] * (1.0 + 0.1 * np.sin(ctx.b[:, :1]))

    prob = make_problem(f, lambda ctx: -np.abs(ctx.b[:, :1]), U=(-1.0, 0.0, 1.0), L=0.0)
    res = static_value(prob, tree)
    rng = np.random.default_rng(2)
    for _ in range(10):
        pol = ControlPolicy(tuple(
            rng.choice([-1.0, 0.0, 1.0], size=tree.node_count(j)) for j in range(3)))
        y0 = solve_bsde(prob, tree, pol).Y[0]
        assert res.value >= prob.phi(y0)[0] - 1e-14


def test_enumeration_cap(enumeration_cap):
    tree = build_tree(TimeGrid(1.0, 4), 1, "path")
    calls = []

    def f(t, ctx, y, z, u):
        calls.append(t)
        return u[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(0.0, 1.0))
    with enumeration_cap(10), pytest.raises(EnumerationCapError, match="cap"):
        static_value(prob, tree)
    assert calls == []  # raised before the Lipschitz probe and any solve


def test_static_value_enumeration_probes_the_declared_lipschitz_constant():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")
    prob = make_problem(lambda t, ctx, y, z, u: 3.0 * y + u[:, None],
                        lambda ctx: ctx.b[:, :1], U=(0.0, 1.0), L=0.5)
    with pytest.raises(ProblemValidationError, match="Lipschitz"):
        static_value(prob, tree)
    assert not prob._lip_checked


def test_static_value_enumeration_warns_above_the_monotone_step_bound():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")  # dt = 1
    prob = make_problem(lambda t, ctx, y, z, u: 2.0 * y + u[:, None],
                        lambda ctx: ctx.b[:, :1], U=(0.0, 1.0), L=2.0)
    with pytest.warns(UserWarning, match="comparison"):
        static_value(prob, tree)


def test_static_value_frontier_warns_above_the_monotone_step_bound():
    # d' = 1 at dt = 0.5 > 0.382 = monotone_step_bound(1): adapted controls warn
    # through the enumeration, and the frontier runs the same scheme
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")
    for deterministic in (False, True):
        prob = make_problem(lambda t, ctx, y, z, u: y + u[:, None],
                            lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(0.0, 1.0),
                            L=1.0, deterministic_controls=deterministic)
        with pytest.warns(UserWarning, match="comparison") as rec:
            res = static_value(prob, tree)
        assert (res.value, res.assignment) == (1.25, (1,) * (2 if deterministic else 3))
    assert bsde._probe_deterministic(prob, tree.grid.times()[:tree.n])
    assert rec[0].filename == __file__


def test_step_size_warnings_name_the_calling_line():
    # dt = 0.5 > 0.382 = monotone_step_bound(1) on every route; each call makes
    # a fresh problem, since the probe runs once per problem
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")

    def prob(deterministic=False):
        return make_problem(lambda t, ctx, y, z, u: y + u[:, None],
                            lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(0.0, 1.0),
                            L=1.0, deterministic_controls=deterministic)

    routes = {
        "solve_bsde": lambda: solve_bsde(prob(), tree),
        "static_value enumeration": lambda: static_value(prob(), tree),
        "static_value frontier": lambda: static_value(prob(True), tree),
        "subtree_argmax": lambda: subtree_argmax(prob(), tree, 1, 1, lambda y: y[:, 0]),
        "envelope_bsde": lambda: envelope_bsde(prob(), tree),
    }
    for name, call in routes.items():
        with pytest.warns(UserWarning, match="comparison") as rec:
            call()
        assert {r.filename for r in rec} == {__file__}, name


def test_static_value_enumeration_rejects_a_generator_of_the_wrong_shape():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")
    prob = make_problem(lambda t, ctx, y, z, u: np.zeros((y.shape[0], 2)),
                        lambda ctx: ctx.b[:, :1], U=(0.0, 1.0))
    with pytest.raises(ValueError, match=r"generator returned shape \(\d+, 2\), expected \(\d+, 1\)"):
        static_value(prob, tree)


def brute_force(prob, tree):
    vals, assigns, _, _ = maximize_over_policies(prob, tree, lambda y: prob.phi(y))
    return vals[0], assigns[0]


@pytest.mark.parametrize("cap", [10 ** 6, 50])  # 50 < 2^n: prune along the cone
@pytest.mark.parametrize("mode", ["recombining", "path"])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_frontier_matches_enumeration_on_the_deterministic_benchmark(n, mode, cap,
                                                                    enumeration_cap):
    bench = deterministic_example(2.0)
    tree = build_tree(TimeGrid(2.0, n), 1, mode)
    with enumeration_cap(cap):
        res = static_value(bench.problem, tree)
    value, assignment = brute_force(bench.problem, tree)
    assert res.value == value  # bit for bit
    assert res.assignment == assignment


@pytest.mark.parametrize("cap", [10 ** 6, 4])
def test_frontier_ties_keep_the_first_assignment(cap, enumeration_cap):
    # phi = y1 = T for every control sequence; (0, 0, 0) reaches the smallest
    # y2, so a pruning that kept each point's own assignment would return a
    # dominating later sequence
    def f(t, ctx, y, z, u):
        return np.stack([np.ones_like(u), -u], axis=1)

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 2)), U=(1.0, -1.0),
                        L=1.0, dpr=2, deterministic_controls=True)
    tree = build_tree(TimeGrid(1.0, 3), 1, "recombining")
    with enumeration_cap(cap):
        res = static_value(prob, tree)
    assert res.assignment == (0, 0, 0)
    assert (res.value, res.assignment) == brute_force(prob, tree)


def test_frontier_prunes_along_the_probed_cone():
    # bumping y1 and y2 together passes the (+, +) probe at dt = 1/128 and
    # would give 0.0078125; one coordinate at a time selects (+, -)
    bench = deterministic_example(2.0)
    res = static_value(bench.problem, build_tree(TimeGrid(2.0, 256), 1, "recombining"))
    assert res.value == 0.50390625 == deterministic_discrete_optimum(2.0, 256)


@pytest.mark.parametrize("cap", [10 ** 6, 100])
def test_frontier_probes_the_cone_at_the_attainable_points(cap, enumeration_cap):
    # phi = -(y - 5)^2 rises near the origin but peaks inside the attainable
    # range [0, 10]: a cone probed near 0 would keep only the largest point
    # per level and return phi(10) = -25
    prob = make_problem(lambda t, ctx, y, z, u: 10.0 * u[:, None] * np.ones_like(y),
                        lambda ctx: np.zeros((ctx.b.shape[0], 1)),
                        phi=lambda y: -(y[:, 0] - 5.0) ** 2, U=(0.0, 1.0),
                        deterministic_controls=True)
    tree = build_tree(TimeGrid(1.0, 10), 1, "recombining")
    with enumeration_cap(cap):
        res = static_value(prob, tree)
    assert res.value == 0.0
    assert (res.value, res.assignment) == brute_force(prob, tree)


def test_frontier_skips_a_node_dependence_under_a_later_control():
    # f vanishes on every node under U[0] = 0 but not under u = 1: the kernel,
    # which evaluates f at b = 0, must not be used
    def f(t, ctx, y, z, u):
        return u[:, None] * ctx.b[:, :1] ** 2

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(0.0, 1.0),
                        deterministic_controls=True)
    tree = build_tree(TimeGrid(1.0, 3), 1, "recombining")
    res = static_value(prob, tree)
    assert res.value > 0.0
    assert (res.value, res.assignment) == brute_force(prob, tree)


def test_frontier_without_a_cone_only_deduplicates_and_keeps_the_cap(enumeration_cap):
    # phi peaks at y = 0.3, inside the attainable range, so no sign vector
    # passes the probes and every distinct point is kept
    def f(t, ctx, y, z, u):
        return ((1.0 + t) * u)[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)),
                        phi=lambda y: -(y[:, 0] - 0.3) ** 2, U=(0.0, 1.0),
                        deterministic_controls=True)
    tree = build_tree(TimeGrid(1.0, 10), 1, "recombining")
    with enumeration_cap(100), pytest.raises(
            EnumerationCapError, match="attainable points at level .* exceed cap 100"):
        static_value(prob, tree)
    res = static_value(prob, tree)
    assert (res.value, res.assignment) == brute_force(prob, tree)


def drift_problem(phi, deterministic):
    """f = u on U = {0, 1} from Y_n = 0, so Y_0 = dt * (controls used); the
    frontier serves it when deterministic, the enumeration otherwise."""
    return make_problem(lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
                        lambda ctx: np.zeros((ctx.b.shape[0], 1)), phi=phi,
                        U=(0.0, 1.0), deterministic_controls=deterministic)


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "minus-inf"])
@pytest.mark.parametrize("deterministic", [False, True], ids=["enumeration", "frontier"])
def test_static_value_names_a_missing_maximum(deterministic, bad):
    prob = drift_problem(lambda y: np.full(len(y), bad), deterministic)
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")
    with pytest.raises(bsde.NoMaximumError,
                       match=r"^phi\(Y_0\) is NaN or -inf under every policy$"):
        static_value(prob, tree)


@pytest.mark.parametrize("deterministic", [False, True], ids=["enumeration", "frontier"])
def test_static_value_never_picks_a_nan_value(deterministic):
    # phi is NaN at the largest Y_0, 1; the next one is 0.5 under one control
    # per level and 0.75 under adapted controls
    prob = drift_problem(lambda y: np.where(y[:, 0] > 0.9, np.nan, y[:, 0]),
                         deterministic)
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")
    res = static_value(prob, tree)
    assert res.value == (0.5 if deterministic else 0.75)
    assert (res.value, res.assignment) == brute_force(prob, tree)


def test_deterministic_controls_match_adapted_for_deterministic_problem():
    grid = TimeGrid(1.0, 3)
    tree = build_tree(grid, 1, "path")

    def f(t, ctx, y, z, u):
        return np.stack([(1.0 - t) * u], axis=-1) if y.ndim == 1 else ((1.0 - t) * u)[:, None]

    term = lambda ctx: np.zeros((ctx.b.shape[0], 1))
    adapted = make_problem(f, term, U=(0.0, 1.0))
    determ = make_problem(f, term, U=(0.0, 1.0), deterministic_controls=True)
    va = static_value(adapted, tree).value
    vd = static_value(determ, tree).value
    assert va == pytest.approx(vd, abs=1e-14)


# ---------------------------------------------------------------------------
# batch solves against one solve_bsde per policy, across the problem catalogue


def _problems_in(built):
    if isinstance(built, BSDEProblem):
        return [built]
    if isinstance(built, tuple):
        return [p for item in built for p in _problems_in(item)]
    return []


CONSTRUCTORS = dict(inspect.getmembers(problems, inspect.isfunction))
CONSTRUCTORS = {name: ctor for name, ctor in CONSTRUCTORS.items()
                if ctor.__module__ == problems.__name__
                and not inspect.signature(ctor).parameters}  # not benchmark
CONSTRUCTORS["one_dimensional"] = lambda: one_dimensional(2.4, 2.4).problem
CATALOGUE = [(name, i) for name, ctor in sorted(CONSTRUCTORS.items())
             for i in range(len(_problems_in(ctor())))]
# linear_setup's generator multiplies by @ (BLAS), whose rounding depends on
# the row count: values may move in the last bits, the argmax may not
BLAS = {("linear_setup", 0)}
BLAS_RTOL = 8 * np.finfo(float).eps


def _catalogue_tree(problem, mode, d, n, budget=4000):
    """The tree of mode and d with the most steps up to n whose policies fit budget."""
    while n > 1 and PolicySpace(problem, build_tree(TimeGrid(1.0, n), d, mode)).size > budget:
        n -= 1
    return build_tree(TimeGrid(1.0, n), d, mode)


def _reachable_by_solves(problem, tree, level):
    """reachable_set by one solve_bsde per policy and a first-appearance dedup."""
    m = tree.node_count(level)
    if problem.deterministic_controls:
        groups = [(PolicySpace(problem, tree, level), range(m))]
    else:
        groups = [(PolicySpace(problem, tree, level, node=i), (i,)) for i in range(m)]
    buckets = [[] for _ in range(m)]
    for space, nodes in groups:
        for _, pol in space.policies():
            y = solve_bsde(problem, tree, pol).Y[level]
            for i in nodes:
                buckets[i].append(y[i])
    out = []
    for rows in buckets:
        seen = {}
        for row in rows:
            seen.setdefault(tuple(np.round(row / 1e-10).astype(np.int64)), row)
        out.append(np.array(list(seen.values())))
    return out


@pytest.mark.filterwarnings("ignore:dt = .* exceeds the comparison-preserving bound")
@pytest.mark.parametrize("mode,d,n", [("path", 1, 3), ("recombining", 1, 3),
                                      ("path", 2, 2), ("recombining", 2, 2)])
@pytest.mark.parametrize("name,index", CATALOGUE, ids=[f"{n}-{i}" for n, i in CATALOGUE])
def test_batch_solves_match_one_solve_per_policy(name, index, mode, d, n):
    problem = _problems_in(CONSTRUCTORS[name]())[index]
    tree = _catalogue_tree(problem, mode, d, n)
    vals, assigns, count, _ = maximize_over_policies(
        problem, tree, lambda y: np.asarray(problem.phi(y), dtype=float).reshape(-1))
    space = PolicySpace(problem, tree)
    best, first = bsde._search(problem, space, problem.phi)
    got = (float(best[0]), space.assignment(first[0]), space.size)
    assert got[1:] == (tuple(assigns[0]), count)
    if (name, index) in BLAS:
        assert got[0] == pytest.approx(vals[0], rel=BLAS_RTOL, abs=BLAS_RTOL)
    else:
        assert got[0] == vals[0]
    if not problem.deterministic_controls:  # static_value's enumeration route
        sv = static_value(problem, tree)
        assert (sv.value, sv.assignment, sv.enumerated) == got
        # the winning policy's own solve gives the per-policy maximum
        assert problem.phi(solve_bsde(problem, tree, sv.policy).Y[0])[0] == vals[0]
    if tree.mode == "recombining" and not problem.deterministic_controls:
        return  # adapted reachable sets search path-mode subtrees
    for level in (0, 1):
        batch = reachable_set(problem, tree, level)
        ref = _reachable_by_solves(problem, tree, level)
        assert len(batch) == len(ref)
        for b, r in zip(batch, ref):
            if (name, index) in BLAS:
                np.testing.assert_allclose(b, r, rtol=BLAS_RTOL, atol=BLAS_RTOL)
            else:
                np.testing.assert_array_equal(b, r)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


SEARCH_OBJECTIVES = {
    "plain": lambda y: y[:, 0],
    "ties": lambda y: np.floor(2.0 * y[:, 0]),
    "nan": lambda y: np.where(y[:, 0] > 1.0, np.nan, y[:, 0]),
    "void": lambda y: np.where(y[:, 0] > 1.0, np.nan, -np.inf),
}


@pytest.mark.parametrize("chunk_floats", [1, 64, 1 << 13])
@pytest.mark.parametrize("objective", SEARCH_OBJECTIVES)
def test_batched_search_matches_the_per_policy_search_on_subtrees(objective, chunk_floats,
                                                                  monkeypatch):
    # u = -1 and u = 1 tie exactly; a chunk of one float holds one assignment
    monkeypatch.setattr(bsde, "_CHUNK_FLOATS", chunk_floats)
    obj = SEARCH_OBJECTIVES[objective]
    prob = make_problem(lambda t, ctx, y, z, u: (u ** 2)[:, None] + 0.5 * z[:, :, 0],
                        lambda ctx: ctx.b[:, :1], U=(-1.0, 0.5, 1.0), L=0.5)
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")
    # the problem's terminal data at n, then the caller's at level 2 < n
    caller = 1.5 * tree.values[2][:, :1] + 0.2
    cases = [(level, 3, None) for level in range(3)] + [(level, 2, caller) for level in (0, 1)]
    for level, k, eta in cases:
        vals, assigns, _, _ = maximize_over_policies(prob, tree, obj, start_level=level,
                                                     terminal_level=k, eta=eta)
        slots = PolicySpace(prob, tree, level, k).slots
        for node in range(tree.node_count(level)):
            space = PolicySpace(prob, tree, level, k, node=node)
            best, first = bsde._search(prob, space, obj, eta)
            assert _bits(best) == _bits(vals[node:node + 1])
            if assigns[node] is None:
                assert first.tolist() == [-1]
                continue
            # the first level-wide winner holds U[0] on every slot off the subtree
            want = tuple(assigns[node][slots.index(s)] for s in space.slots)
            assert space.assignment(first[0]) == want
            assert sum(assigns[node]) == sum(want)
            if eta is not None:
                continue  # subtree_argmax searches from the problem's terminal data
            assert subtree_argmax(prob, tree, level, node, obj) == (vals[node], want)


@pytest.mark.parametrize("chunk_floats", [1, 64, 1 << 13])
@pytest.mark.parametrize("objective", SEARCH_OBJECTIVES)
def test_batched_search_matches_the_per_policy_search_on_a_recombining_tree(
        objective, chunk_floats, monkeypatch):
    monkeypatch.setattr(bsde, "_CHUNK_FLOATS", chunk_floats)
    obj = SEARCH_OBJECTIVES[objective]
    prob = problems.level_controls_problem()
    tree = build_tree(TimeGrid(1.0, 4), 1, "recombining")
    # the problem's terminal data at n, then the caller's at level 3 < n
    caller = 1.5 * tree.values[3][:, :1] - 0.1
    cases = [(level, 4, None) for level in range(4)] + [(level, 3, caller) for level in (1, 2)]
    for level, k, eta in cases:
        vals, assigns, _, _ = maximize_over_policies(prob, tree, obj, start_level=level,
                                                     terminal_level=k, eta=eta)
        space = PolicySpace(prob, tree, level, k)
        best, first = bsde._search(prob, space, obj, eta)
        assert _bits(best) == _bits(vals)
        assert [space.assignment(i) if i >= 0 else None for i in first] == assigns
        if eta is not None:
            continue  # subtree_argmax searches from the problem's terminal data
        for node in range(tree.node_count(level)):  # subtree_argmax reads row node
            assert subtree_argmax(prob, tree, level, node, obj) == (vals[node], assigns[node])


def test_reachable_set_solves_only_each_subtree():
    # level 2 of a 4-step path tree: each of the 4 nodes' subtree spaces has
    # 1 + 2 slot nodes and 2^3 policies, 96 generator rows in all; solving the
    # full levels 2 and 3 for every subtree takes 4 * 8 * (4 + 8) = 384
    problem = problems.scalar_drift_problem()
    tree = build_tree(TimeGrid(1.0, 4), 1, "path")
    bsde.probe_lipschitz(problem, tree)  # its calls are not the solve's
    rows, f = [], problem.f

    def counted(t, ctx, y, z, u):
        rows.append(len(y))
        return f(t, ctx, y, z, u)

    problem.f = counted
    points = reachable_set(problem, tree, 2)
    assert sum(rows) == 96
    ref = _reachable_by_solves(problem, tree, 2)
    assert len(points) == len(ref) == 4
    for got, want in zip(points, ref):
        np.testing.assert_array_equal(got, want)


def test_reachable_set_control_free_singleton():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")
    prob = make_problem(zero_f, lambda ctx: ctx.b[:, :1] ** 2)
    rs = reachable_set(prob, tree, 1)
    for i, pts in enumerate(rs):
        assert pts.shape == (1, 1)
    sol = solve_bsde(prob, tree)
    for i, pts in enumerate(rs):
        assert abs(pts[0, 0] - sol.Y[1][i, 0]) < 1e-12


def test_reachable_set_one_step():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")

    def f(t, ctx, y, z, u):
        return u[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(-1.0, 1.0))
    rs = reachable_set(prob, tree, 0)
    np.testing.assert_allclose(np.sort(rs[0].ravel()), [-1.0, 1.0])


def test_reachable_set_dedup():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")

    def f(t, ctx, y, z, u):
        return (u ** 2)[:, None]

    prob = make_problem(f, lambda ctx: np.zeros((ctx.b.shape[0], 1)), U=(-1.0, 1.0))
    rs = reachable_set(prob, tree, 0)
    assert rs[0].shape[0] == 1  # all policies give the same value


def test_envelope_sup_of_uz():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")

    def f(t, ctx, y, z, u):
        return u[:, None] * z[:, :, 0]

    prob = make_problem(f, lambda ctx: ctx.b[:, :1],
                        U=(-1.0, -0.5, 0.0, 0.5, 1.0), L=1.0)
    bar, residual = envelope_bsde(prob, tree)
    assert residual <= 1e-10  # consistent


def test_envelope_decreasing_phi_flags_violation():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")

    def f(t, ctx, y, z, u):
        return u[:, None] * z[:, :, 0]

    prob = make_problem(f, lambda ctx: ctx.b[:, :1], phi=lambda y: -y[:, 0],
                        U=(-1.0, 0.0, 1.0), L=1.0)
    with pytest.raises(StructureError):
        envelope_bsde(prob, tree)
    bar, residual = envelope_bsde(prob, tree, skip_probes=True)
    assert not residual <= 1e-10  # not consistent
    assert residual > 1e-6


def test_envelope_control_free_zero_residual():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")

    def f(t, ctx, y, z, u):
        return 0.5 * y

    prob = make_problem(f, lambda ctx: ctx.b[:, :1] ** 2, U=(0.0,), L=0.5)
    bar, residual = envelope_bsde(prob, tree)
    assert residual <= 1e-14


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5))
def test_comparison_property_random_linear(seed, a, b):
    L = abs(a) + abs(b) + 1e-9
    n = 6
    tree = build_tree(TimeGrid(min(1.0, monotone_step_bound(L) * n / 4.0), n), 1, "path")

    def f(t, ctx, y, z, u):
        return a * y + b * z[:, :, 0]

    prob = make_problem(f, None, L=L)
    rng = np.random.default_rng(seed)
    eta = rng.normal(size=(tree.node_count(n), 1))
    etap = eta + np.abs(rng.normal(size=eta.shape))
    s0 = solve_bsde(prob, tree, terminal_level=n, eta=eta)
    s1 = solve_bsde(prob, tree, terminal_level=n, eta=etap)
    for j in range(n + 1):
        assert np.all(s1.Y[j] >= s0.Y[j] - 1e-12)
