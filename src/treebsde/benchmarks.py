"""Four closed-form benchmark problems with analytic optimal controls and
consistency-restoring parameter processes.

Each constructor returns a BenchmarkProblem: a tree-ready BSDEProblem carrier
plus analytic references (optimal control, value where known, restoring
process, inconsistency witness) that pass self-checks at construction.
treebsde.problems.benchmark builds each at the one parameter point every run
uses.

Two instances (mean_variance, principal_agent) control the *forward* dynamics;
they carry a ForwardSDE component and evaluation helpers here rather than
widening the core backward-solver contract. Their carrier BSDEProblem bakes
the analytic optimal control into the terminal map so the generic solver
reproduces the analytic value with no example-specific shortcut:
static_value(bench.problem, tree) is the mean-variance tree value.

The probability-distortion example of the literature is not covered: it ranks
outcomes through a distorted (Choquet) expectation, and that
nonlinear-expectation machinery is outside this library's scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from treebsde.lattice import ScenarioTree
from treebsde.bsde import (
    BSDEProblem,
    EnumerationCapError,
    PolicySpace,
    _search,
    solve_bsde,
    static_value,
)


class BenchmarkError(ValueError):
    """Invalid benchmark parameters."""


@dataclass(frozen=True)
class ForwardSDE:
    """Controlled forward Euler dynamics dX = drift(t,x,u) dt + diffusion(t,x,u) dB."""

    x0: float
    drift: object
    diffusion: object


@dataclass(frozen=True)
class BenchmarkProblem:
    identifier: str
    problem: BSDEProblem
    forward: ForwardSDE | None
    optimal_value: float | None
    analytic: dict = field(default_factory=dict)


def forward_states(tree: ScenarioTree, sde: ForwardSDE, control,
                   level0: int = 0, init=None):
    """Per-node forward states on a path tree from level0 to the horizon.

    control is a feedback callable u(t, x) -> scalar or (m_j,) array of the
    controls at level j's nodes. Returns a list of (m_j,) arrays.
    """
    if tree.mode != "path":
        raise ValueError("controlled forward dynamics need path mode "
                         "(states are path-dependent)")
    n, dt = tree.n, tree.dt
    times = tree.grid.times()
    x = (np.full(tree.node_count(level0), float(sde.x0))
         if init is None else np.asarray(init, dtype=float).reshape(-1).copy())
    if x.shape[0] != tree.node_count(level0):
        raise ValueError("init length does not match the level0 node count")
    out = [x]
    for j in range(level0, n):
        u = np.broadcast_to(np.asarray(control(times[j], x), dtype=float), x.shape)
        drift = np.asarray(sde.drift(times[j], x, u), dtype=float)
        diff = np.asarray(sde.diffusion(times[j], x, u), dtype=float)
        nxt = (x[:, None] + drift[:, None] * dt
               + diff[:, None] * tree.increments[None, :, 0]).reshape(-1)
        out.append(nxt)
        x = nxt
    return out


def subtree_argmax(problem: BSDEProblem, tree: ScenarioTree, level: int,
                   node: int, objective):
    """Exact max of objective(Y_level[node]) over the node's subtree policies.

    objective maps (k, d') values to (k,), like phi. Returns (best value, best
    assignment), or (-inf, None) when every value is NaN or -inf. Deterministic
    controls search the level's whole space and read row node, so recombining
    trees work; adapted ones search the node's subtree (path mode only).
    """
    if problem.deterministic_controls:
        space, row = PolicySpace(problem, tree, level), node
    else:
        space, row = PolicySpace(problem, tree, level, node=node), 0
    try:
        best, first = _search(problem, space, objective)
    except EnumerationCapError as exc:
        raise BenchmarkError(f"subtree argmax: {exc}") from None
    return float(best[row]), space.assignment(first[row]) if first[row] >= 0 else None


# ---------------------------------------------------------------------------
# mean-variance


def mv_moment_recursion(m1, m2, a, b, t0: float, T: float, steps: int):
    """Exact first/second moments of X under affine feedback u = a + b x.

    One step: X' = X + u dt + u dB with E dB = 0, dB^2 = dt, so
    m1' = (1 + b dt) m1 + a dt and
    m2' = m2 (1 + 2 b dt + b^2 q) + m1 (2 a dt + 2 a b q) + a^2 q, q = dt^2 + dt.
    a, b may be arrays (broadcast against m1/m2) for grid searches.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = (T - t0) / steps
    q = dt * dt + dt
    m1 = np.asarray(m1, dtype=float) + np.zeros_like(np.asarray(a, dtype=float))
    m2 = np.asarray(m2, dtype=float) + np.zeros_like(m1)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for _ in range(steps):
        m2 = (m2 * (1.0 + 2.0 * b * dt + b * b * q)
              + m1 * (2.0 * a * dt + 2.0 * a * b * q) + a * a * q)
        m1 = (1.0 + b * dt) * m1 + a * dt
    return m1, m2


def _mv_phi(c_eff, m1, m2):
    return m1 + m1 * m1 / (2.0 * c_eff) - m2 / (2.0 * c_eff)


def mean_variance(x0: float, c: float, T: float) -> BenchmarkProblem:
    """Mean minus variance-penalty objective with controlled forward state.

    Forward dX = u dt + u dB, terminal data (X_T, X_T^2), utility
    phi_c(y) = y1 + y1^2/(2c) - y2/(2c). The analytic feedback is affine,
    u*(s, x) = x0 - x + c e^T, with value x0 + (c/2)(e^T - 1). Re-optimizing at
    t > 0 with the stale parameter c shifts the optimal feedback intercept by
    c(e^T - e^{T-t}) - (X*_t - x0); the restoring parameter process
    c_t = c e^t - e^{t-T} (X*_t - x0), c_0 = c, restores the time-0 feedback
    exactly.
    """
    if not (c > 0 and T > 0):
        raise BenchmarkError(f"need c > 0 and T > 0, got c={c}, T={T}")
    a_star = x0 + c * math.exp(T)
    value = x0 + 0.5 * c * (math.exp(T) - 1.0)

    def feedback(t, x):
        return a_star - np.asarray(x)

    sde = ForwardSDE(x0=x0, drift=lambda t, x, u: u, diffusion=lambda t, x, u: u)

    def c_process(t, x_star):
        return c * np.exp(t) - np.exp(t - T) * (np.asarray(x_star) - x0)

    def terminal(ctx):
        if ctx.tree is None:
            raise ValueError("mean-variance terminal data needs the tree context")
        xT = forward_states(ctx.tree, sde, feedback)[-1]
        return np.stack([xT, xT * xT], axis=1)

    problem = BSDEProblem(
        value_dim=2,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=terminal,
        phi=lambda y: _mv_phi(c, y[:, 0], y[:, 1]),
        control_values=(0.0,),
        lipschitz_L=1.0,
    )
    bench = BenchmarkProblem(
        identifier="mean_variance", problem=problem, forward=sde,
        optimal_value=value,
        analytic={"x0": x0, "c": c, "T": T, "a_star": a_star, "b_star": -1.0,
                  "feedback": feedback, "c_process": c_process},
    )
    _mv_self_check(bench)
    return bench


def _mv_self_check(bench: BenchmarkProblem) -> None:
    a = bench.analytic
    x0, c, T = a["x0"], a["c"], a["T"]
    if abs(float(a["c_process"](0.0, x0)) - c) > 1e-12:
        raise BenchmarkError("restoring process fails c_0 = c")
    if abs(a["feedback"](0.0, x0) - c * math.exp(T)) > 1e-12:
        raise BenchmarkError("analytic feedback fails u*(0, x0) = c e^T")
    m1, m2 = mv_moment_recursion(x0, x0 * x0, a["a_star"], -1.0, 0.0, T, 4096)
    if abs(_mv_phi(c, m1, m2) - bench.optimal_value) > 1e-3 * (1 + abs(bench.optimal_value)):
        raise BenchmarkError("fine-step moment recursion does not reproduce the value")


def mv_grid(bench: BenchmarkProblem):
    """The 21 x 21 affine-feedback (intercept, slope) grid of unit spacing
    centred on the analytic optimum, flattened."""
    a = bench.analytic
    offs = np.arange(-10.0, 11.0)
    A, B = np.meshgrid(a["a_star"] + offs, a["b_star"] + offs, indexing="ij")
    return A.ravel(), B.ravel()


def mv_grid_argmax(bench: BenchmarkProblem, m1_0, m2_0, t0: float, steps: int,
                   c_eff: float):
    """Argmax cell of the affine-feedback grid by exact moment recursion."""
    A, B = mv_grid(bench)
    m1, m2 = mv_moment_recursion(m1_0, m2_0, A, B, t0, bench.analytic["T"], steps)
    k = int(np.argmax(_mv_phi(c_eff, m1, m2)))
    return float(A[k]), float(B[k])


@dataclass(frozen=True)
class RestorationReport:
    nodes_checked: int
    violations: int


def mv_restoration_check(bench: BenchmarkProblem, tree: ScenarioTree,
                         levels=(2, 4, 6, 8), restored: bool = True) -> RestorationReport:
    """Per-node affine-grid argmax of the time-t problem vs the time-0 argmax,
    at the nodes whose state lies within 2 of x0.

    With the restoring parameter c_t the argmax cell coincides at every tested
    node; with the stale constant c it drifts by at least one cell somewhere.
    A node whose argmax cell differs from the time-0 cell is a violation.
    """
    a = bench.analytic
    x0, c = a["x0"], a["c"]
    n = tree.n
    xs = forward_states(tree, bench.forward, a["feedback"])
    cell0 = mv_grid_argmax(bench, x0, x0 * x0, 0.0, n, c)
    checked = violations = 0
    for k in levels:
        if not 0 < k < n:
            raise BenchmarkError(f"levels must lie strictly inside (0, {n})")
        t = tree.grid.times()[k]
        for i in np.nonzero(np.abs(xs[k] - x0) <= 2.0)[0]:
            x = float(xs[k][i])
            c_eff = float(a["c_process"](t, x)) if restored else c
            cell = mv_grid_argmax(bench, x, x * x, t, n - k, c_eff)
            checked += 1
            violations += cell != cell0
    return RestorationReport(nodes_checked=checked, violations=violations)


# ---------------------------------------------------------------------------
# one-dimensional


def one_dimensional(c: float, T: float) -> BenchmarkProblem:
    """f = u, terminal B_T, utility -|c + y|, controls {-1, -1/2, 0, 1/2, 1}.

    For c >= T the optimal control is u = -1 throughout (value 0 at c = T);
    for c <= -T it is u = +1. The restoring parameter c_t = T - t - B_t makes
    u = -1 optimal at every node (the node value of B cancels). On the witness
    set {B_t <= t - 2T} the stale utility re-optimizes to u = +1 while the
    time-0 optimum uses -1.
    """
    if not T > 0:
        raise BenchmarkError(f"need T > 0, got {T}")
    problem = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: -np.abs(c + y[:, 0]),
        control_values=(-1.0, -0.5, 0.0, 0.5, 1.0),
        lipschitz_L=1.0,
        phi_lipschitz=1.0,
    )
    value = -max(abs(c) - T, 0.0)
    bench = BenchmarkProblem(
        identifier="one_dim", problem=problem, forward=None,
        optimal_value=value,
        analytic={"c": c, "T": T,
                  "c_process": lambda t, b: T - t - np.asarray(b),
                  "witness_set": lambda t, b: np.asarray(b) <= t - 2.0 * T},
    )
    _onedim_self_check(bench)
    return bench


def _onedim_self_check(bench: BenchmarkProblem) -> None:
    a = bench.analytic
    c, T = a["c"], a["T"]
    u_grid = np.asarray(bench.problem.control_values)
    best = float(np.max(-np.abs(c + u_grid * T)))
    if abs(c) >= T and abs(best - bench.optimal_value) > 1e-12:
        raise BenchmarkError("constant-control scan disagrees with the value")
    if abs(c - T) < 1e-12 and abs(float(a["c_process"](0.0, 0.0)) - c) > 1e-12:
        raise BenchmarkError("restoring process fails c_0 = c at c = T")


@dataclass(frozen=True)
class WitnessReport:
    nodes: tuple            # (level, node) pairs in the witness set
    all_flip: bool
    min_margin: float


def onedim_witness_check(bench: BenchmarkProblem, tree: ScenarioTree) -> WitnessReport:
    """Every witness-set node strictly prefers u = +1 over the restriction of
    the time-0 optimal control u = -1 under the stale utility."""
    a = bench.analytic
    c = a["c"]
    n = tree.n
    times = tree.grid.times()
    U = bench.problem.control_values
    # the time-0 optimum u = U[0] = -1, solved once for every witness node
    ref = solve_bsde(bench.problem, tree)
    found = []
    min_margin = np.inf
    all_flip = True
    for k in range(1, n):
        mask = a["witness_set"](times[k], tree.values[k][:, 0])
        for i in np.nonzero(mask)[0]:
            best, assign = subtree_argmax(
                bench.problem, tree, k, int(i),
                lambda y: -np.abs(c + y[:, 0]))
            ref_val = -abs(c + float(ref[k][i, 0]))
            flips = all(U[s] == 1.0 for s in assign)
            all_flip = all_flip and flips and best > ref_val
            min_margin = min(min_margin, best - ref_val)
            found.append((k, int(i)))
    if not found:
        min_margin = 0.0
    return WitnessReport(nodes=tuple(found),
                         all_flip=bool(found) and all_flip,
                         min_margin=float(min_margin))


def onedim_restoration_check(bench: BenchmarkProblem, tree: ScenarioTree,
                             levels, restored: bool = True) -> RestorationReport:
    """Per-node subtree argmax under Phi(t, y) = -|c_t + y| (or the stale c).

    The time-0 optimum at c = T is u = -1 on every slot; restoration holds when
    every node's argmax assignment is exactly that restriction.
    """
    a = bench.analytic
    c = a["c"]
    times = tree.grid.times()
    checked = violations = 0
    for k in levels:
        for i in range(tree.node_count(k)):
            b = float(tree.values[k][i, 0])
            c_eff = float(a["c_process"](times[k], b)) if restored else c
            _, assign = subtree_argmax(
                bench.problem, tree, k, i,
                lambda y: -np.abs(c_eff + y[:, 0]))
            checked += 1
            if any(s != 0 for s in assign):
                violations += 1
    return RestorationReport(nodes_checked=checked, violations=violations)


# ---------------------------------------------------------------------------
# principal-agent


def principal_agent(gamma_A: float, gamma_P: float, R: float,
                    T: float) -> BenchmarkProblem:
    """Contract FBSDE: forward agent value with controlled drift/volatility,
    backward principal value whose generator carries the u Z drift term.

    u* = (1 + gamma_P) / (1 + gamma_A + gamma_P) is the constant optimal
    action; the optimal contract is x_R + u* B_T + ((gamma_A - 1)/2) u*^2 T
    with x_R = -(1/gamma_A) ln(-R). The restoring market value
    R_t = R exp(-gamma_A [u* B_t + ((gamma_A - 1)/2) u*^2 t]) makes the
    re-optimized contract coincide with the time-0 contract; re-optimizing with
    the stale R restarts the agent value at x_R instead of its running value,
    which changes the delivered contract by u* B_t + cost t.
    """
    if not (gamma_A > 0 and gamma_P > 0):
        raise BenchmarkError("need gamma_A > 0 and gamma_P > 0")
    if not R < 0:
        raise BenchmarkError(f"the market value R must be negative, got {R}")
    if not T > 0:
        raise BenchmarkError(f"need T > 0, got {T}")
    u_star = (1.0 + gamma_P) / (1.0 + gamma_A + gamma_P)
    x_R = -math.log(-R) / gamma_A
    cost = 0.5 * (gamma_A - 1.0) * u_star * u_star

    sde = ForwardSDE(
        x0=x_R,
        drift=lambda t, x, u: 0.5 * (gamma_A - 1.0) * u * u,
        diffusion=lambda t, x, u: u,
    )

    def r_process(t, b):
        return R * np.exp(-gamma_A * (u_star * np.asarray(b)
                                      + 0.5 * (gamma_A - 1.0) * u_star ** 2 * t))

    def terminal(ctx):
        if ctx.tree is None:
            raise ValueError("the contract terminal data needs the tree context")
        return _pa_payout(ctx.tree, sde, gamma_P, u_star)

    problem = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * z[:, :, 0],
        terminal=terminal,
        phi=lambda y: y[:, 0],
        control_values=(u_star,),
        lipschitz_L=1.0,
    )
    bench = BenchmarkProblem(
        identifier="principal_agent", problem=problem, forward=sde,
        optimal_value=None,
        analytic={"gamma_A": gamma_A, "gamma_P": gamma_P, "R": R, "T": T,
                  "u_star": u_star, "x_R": x_R, "cost_rate": cost,
                  "r_process": r_process},
    )
    _pa_self_check(bench)
    return bench


def _pa_self_check(bench: BenchmarkProblem) -> None:
    a = bench.analytic
    gamma_A, R, u_star = a["gamma_A"], a["R"], a["u_star"]
    if abs(float(a["r_process"](0.0, 0.0)) - R) > 1e-14:
        raise BenchmarkError("restoring process fails R_0 = R")
    rng = np.random.default_rng(np.random.Philox(7))
    for _ in range(8):
        t = float(rng.uniform(0, a["T"]))
        b = float(rng.normal())
        lhs = -math.log(-float(a["r_process"](t, b))) / gamma_A
        rhs = a["x_R"] + u_star * b + a["cost_rate"] * t
        if abs(lhs - rhs) > 1e-12:
            raise BenchmarkError("market-value process breaks the payout identity")


def _pa_payout(tree: ScenarioTree, sde: ForwardSDE, gamma_P: float, u,
               level: int = 0, init=None) -> np.ndarray:
    """Leaf payout utility -exp(-gamma_P (B_T - X_T)), (leaves, 1), with the
    agent value X run forward under the constant action u from init at level
    (the participation level x_R = sde.x0 when None)."""
    yA = forward_states(tree, sde, lambda t, x: u, level0=level, init=init)[-1]
    pay = tree.values[tree.n][:, 0] - yA
    return (-np.exp(-gamma_P * pay))[:, None]


def pa_value(bench: BenchmarkProblem, tree: ScenarioTree, u, level: int = 0,
             start=None) -> np.ndarray:
    """Per-node principal values at a level for a constant action u.

    Forward agent value from `start` (per-node array or the participation
    level x_R), terminal payout utility, backward with the u Z drift; value at
    a node depends only on its subtree, so one full-tree solve serves all nodes.
    """
    payout = _pa_payout(tree, bench.forward, bench.analytic["gamma_P"], u, level, start)
    carrier = BSDEProblem(
        value_dim=1, f=bench.problem.f, terminal=bench.problem.terminal,
        phi=bench.problem.phi, control_values=(float(u),),
        lipschitz_L=bench.problem.lipschitz_L)
    # u is the carrier's U[0], so solve_bsde's default policy
    return solve_bsde(carrier, tree, eta=payout)[level][:, 0]


def pa_closed_form(bench: BenchmarkProblem, tree: ScenarioTree, u) -> float:
    """Root principal value of the constant action u on a path tree, in closed
    form: each step of the u Z drift tilts the payout utility by one factor,
    v = -exp(gamma_P (x_R + cost(u) T)) g^n with
    g = cosh(gamma_P (1 - u) s) - u s sinh(gamma_P (1 - u) s), s = sqrt(dt)."""
    a = bench.analytic
    gamma_P, s = a["gamma_P"], math.sqrt(tree.dt)
    th = gamma_P * (1.0 - u) * s
    g = math.cosh(th) - u * s * math.sinh(th)
    cost = 0.5 * (a["gamma_A"] - 1.0) * u * u
    return -math.exp(gamma_P * (a["x_R"] + cost * tree.grid.T)) * g ** tree.n


@dataclass(frozen=True)
class ContractReport:
    argmax_matches: int
    argmax_total: int
    max_contract_deviation: float
    all_match: bool


def pa_restoration_check(bench: BenchmarkProblem, tree: ScenarioTree,
                         level: int, restored: bool = True) -> ContractReport:
    """Time-t re-optimization over the action probe grid u* + (-0.1, 0, 0.1)
    plus delivered-contract comparison against the time-0 optimum's continuation.

    Restored market value: per-node argmax is u* and the re-optimized contract
    agrees with the time-0 contract's restriction to 1e-12. Stale constant
    R: the contract deviates by |u* B_t + cost t| > 0 off the diagonal.
    """
    a = bench.analytic
    u_star = a["u_star"]
    candidates = (u_star - 0.1, u_star, u_star + 0.1)
    times = tree.grid.times()
    t = times[level]
    b_lvl = tree.values[level][:, 0]
    if restored:
        starts = -np.log(-np.asarray(a["r_process"](t, b_lvl))) / a["gamma_A"]
    else:
        starts = np.full(tree.node_count(level), a["x_R"])
    vals = np.stack([pa_value(bench, tree, u, level=level, start=starts)
                     for u in candidates])
    argmax = np.argmax(vals, axis=0)
    star_idx = int(np.argmin(np.abs(np.asarray(candidates) - u_star)))
    matches = int(np.sum(argmax == star_idx))

    # delivered contract under the re-optimized start vs the time-0 contract
    reopt = forward_states(tree, bench.forward, lambda tt, x: u_star,
                           level0=level, init=starts)[-1]
    original = forward_states(tree, bench.forward, lambda tt, x: u_star)[-1]
    max_dev = float(np.max(np.abs(reopt - original)))
    return ContractReport(
        argmax_matches=matches, argmax_total=int(argmax.size),
        max_contract_deviation=max_dev,
        all_match=(matches == argmax.size) and max_dev <= 1e-12)


# ---------------------------------------------------------------------------
# deterministic example


def deterministic_problem() -> BSDEProblem:
    """The deterministic example's carrier on any horizon: f = (u - y2, u),
    terminal 0, utility y1, controls {0, 1} as deterministic functions of time."""
    def f(t, ctx, y, z, u):
        out = np.empty_like(y)
        out[:, 0] = u - y[:, 1]
        out[:, 1] = u
        return out

    return BSDEProblem(
        value_dim=2,
        f=f,
        terminal=lambda ctx: np.zeros((ctx.b.shape[0], 2)),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 1.0),
        lipschitz_L=1.0,
        deterministic_controls=True,
        phi_lipschitz=1.0,
    )


def deterministic_example(T: float) -> BenchmarkProblem:
    """The deterministic_problem carrier on [0, T] with its closed form.

    Closed form: the time-t optimal control is the indicator of [t, (1+t) ^ T]
    and V_t = integral of (1 + t - s) over that window (1/2 for t <= T - 1).
    Re-optimizing at t in (0, T-1) turns the control on over the witness
    interval (1, 1+t), where the time-0 optimum is 0, with margin t^2/2; that
    interval needs T > 1. Freezing the weight (1 + t - s) at t = 0 pins the
    value integrand to the initial window and restores consistency.
    """
    if not T > 1:
        raise BenchmarkError(
            f"need T > 1 (the witness interval (1, 1+t) is empty otherwise), got {T}")

    def value_at(t):
        if t <= T - 1.0:
            return 0.5
        return 0.5 * (T - t) * (2.0 - (T - t))

    bench = BenchmarkProblem(
        identifier="deterministic", problem=deterministic_problem(), forward=None,
        optimal_value=0.5,
        analytic={"T": T, "value_at": value_at},
    )
    _deterministic_self_check(bench)
    return bench


def _deterministic_self_check(bench: BenchmarkProblem) -> None:
    a = bench.analytic
    s = np.linspace(0.0, 1.0, 20001)
    quad = float(np.trapezoid(1.0 - s, s))
    if abs(quad - bench.optimal_value) > 1e-6:
        raise BenchmarkError("quadrature of the closed form misses 1/2")
    T = a["T"]
    left = a["value_at"](T - 1.0)
    if abs(left - 0.5) > 1e-14:
        raise BenchmarkError("value function discontinuous at T - 1")


def deterministic_discrete_optimum(T: float, n: int) -> float:
    """Scheme-level optimum of the deterministic example on an n-step grid.

    The discrete value of a control sequence is sum_m u_m dt (1 - (m - j) dt)
    at j = 0; the optimum turns on exactly the slots with m dt < 1.
    """
    dt = T / n
    k = sum(1 for m in range(n) if m * dt < 1.0)
    return dt * k - dt * dt * k * (k - 1) / 2.0


def deterministic_witness_check(bench: BenchmarkProblem, tree: ScenarioTree,
                                level: int) -> WitnessReport:
    """Time-t re-optimization differs from the time-0 optimum's restriction
    with a strict margin (continuous analogue t^2/2)."""
    a = bench.analytic
    T = a["T"]
    n = tree.n
    t = tree.grid.times()[level]
    if not 0.0 < t < T - 1.0:
        raise BenchmarkError("pick a level with 0 < t < T - 1")
    sv = static_value(bench.problem, tree)
    winner = PolicySpace(bench.problem, tree).policy(sv.assignment)
    ref = float(solve_bsde(bench.problem, tree, winner)[level][0, 0])  # all nodes equal
    best, assign = subtree_argmax(bench.problem, tree, level, 0,
                                  lambda y: y[:, 0])
    margin = best - ref
    # the re-optimized sequence must switch on inside (1, 1+t)
    times = tree.grid.times()[:n]
    on = [bench.problem.control_values[s] for s in assign]
    flipped = any(u == 1.0 and 1.0 < times[level + j] < 1.0 + t
                  for j, u in enumerate(on))
    return WitnessReport(nodes=((level, 0),),
                         all_flip=bool(flipped and margin > 0),
                         min_margin=float(margin))
