"""Forward value function over (time, terminal-data) pairs and its calculus.

Psi(t, eta) = max over policies on [0, t) of phi(Y_0) with terminal data eta at
level t. With the same eta on every node, Psi(t, .) is also the dynamic
utility Phi_t of a deterministic generator; ForwardValue is the one place
either is computed. This module provides:

  * ForwardValue: enumeration-exact evaluation of Psi for a stack of eta at
    once, on the batched search of bsde;
  * check_forward_dpp: the concatenation identity
      Psi(t2, eta) = max over [t1,t2)-policies of Psi(t1, Y_{t1}(t2, eta)),
    an exact identity under full enumeration, run one solve_bsde per policy
    (bsde.maximize_over_policies), the route the benchmark counts;
  * check_lipschitz: |Psi(t,a) - Psi(t,b)| <= e^{2(1+L)LT} Lip(phi) ||a-b||
    in the tree-L2 norm, every pair's values from one ForwardValue.values;
  * CylinderFunctional / path_derivative_probe: caller-supplied closed-form
    path functionals with their time/path derivatives, validated by the
    discrete pathwise Ito identity on tree transitions (dB^2 = dt exactly)
    in either tree mode;
  * master_residual: after the path-derivative probe, the stationarity defect
      D-_t Psi - <D_eta Psi, induced-dt eta + 1/2 tr d_bb eta>
               - sup_u <D_eta Psi, f(t, eta, d_b eta, u)>
    where D-_t freezes the path at the previous level (keeping the functional's
    time slot), D_eta is probed by per-node central bumps (one
    ForwardValue.values call), and the induced time-derivative of a
    fixed-slot cylinder is zero;
  * illposed_demo: two generators agreeing at z = 0 whose sup-terms coincide
    bit-wise under a shared derivative input while their forward values differ
    by a positive gap — one equation, two value functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from treebsde.lattice import ScenarioTree, node_histories
from treebsde.bsde import (
    BSDEProblem,
    NodeContext,
    PolicySpace,
    StructureError,
    _search,
    maximize_over_policies,
    solve_bsde,
)


class InvalidCylinderError(ValueError):
    """Supplied path derivatives fail the discrete pathwise Ito probe, or a
    cylinder's value dimension is not the problem's."""


@dataclass
class ForwardValue:
    """Evaluator for Psi(t, eta) on a fixed problem and tree: one bsde._search
    over the policies on [0, t) solves a whole stack of eta."""

    problem: BSDEProblem
    tree: ScenarioTree

    def values(self, level: int, etas) -> np.ndarray:
        """Psi(level, eta) for each eta of a stack (S, m_level, d'), S floats."""
        etas = np.asarray(etas, dtype=float).reshape(
            len(etas), self.tree.node_count(level), self.problem.value_dim)
        best, _ = _search(self.problem, PolicySpace(self.problem, self.tree, 0, level),
                          self.problem.phi, etas)
        return best[:, 0]

    def value(self, level: int, eta) -> float:
        return float(self.values(level, [eta])[0])


@dataclass(frozen=True)
class ForwardDppReport:
    residual: float


def check_forward_dpp(problem: BSDEProblem, tree: ScenarioTree, t1: int, t2: int,
                      eta) -> ForwardDppReport:
    """Residual of the forward concatenation identity between levels t1 < t2,
    zero to rounding under full enumeration.

    Every Psi here runs one solve_bsde per policy, through
    maximize_over_policies, as does the segment loop: the benchmark counts
    this route's solves and policies. ForwardValue gives the same floats."""
    if not 0 <= t1 <= t2 <= tree.n:
        raise ValueError(f"need 0 <= t1 <= t2 <= n, got {t1}, {t2}")
    segment = PolicySpace(problem, tree, t1, t2).policies()

    def psi(level, values):
        vals, _, _, _ = maximize_over_policies(
            problem, tree, lambda y: np.asarray(problem.phi(y), dtype=float).reshape(-1),
            start_level=0, terminal_level=level, eta=values)
        return float(vals[0])

    eta = np.asarray(eta, dtype=float).reshape(tree.node_count(t2), problem.value_dim)
    direct = psi(t2, eta)
    best = -np.inf
    for _, pol in segment:
        sol = solve_bsde(problem, tree, pol, terminal_level=t2, eta=eta)
        best = max(best, psi(t1, sol.Y[t1]))
    return ForwardDppReport(residual=abs(direct - best))


@dataclass(frozen=True)
class LipschitzReport:
    pairs_checked: int
    skipped: int
    max_ratio: float
    bound: float
    passed: bool


def check_lipschitz(problem: BSDEProblem, tree: ScenarioTree, level: int,
                    pairs) -> LipschitzReport:
    """max |Psi(t,a) - Psi(t,b)| / ||a-b||_L2(tree) against e^{2(1+L)LT} Lip(phi).

    Pairs closer than 1e-14 are skipped; both sides of every other pair come
    from one ForwardValue.values call. With no pair checked, nothing passes;
    a pair it cannot measure, whose distance or ratio is not finite, fails the
    check and shows as max_ratio."""
    if problem.phi_lipschitz is None:
        raise ValueError("check_lipschitz needs problem.phi_lipschitz declared")
    probs = tree.probs[level]
    L = problem.lipschitz_L
    bound = float(np.exp(2.0 * (1.0 + L) * L * tree.grid.T) * problem.phi_lipschitz)
    m, dpr = tree.node_count(level), problem.value_dim
    ab = np.asarray(pairs, dtype=float).reshape(-1, 2, m, dpr)
    # one sum per pair keeps each distance's summation order, and so its bits
    dist = np.sqrt(np.array([np.sum(probs[:, None] * (a - b) ** 2) for a, b in ab]))
    checked = ~(dist < 1e-14)
    psi = ForwardValue(problem, tree).values(level, ab[checked].reshape(-1, m, dpr))
    dist = dist[checked]
    with np.errstate(invalid="ignore"):  # a NaN pair's two Psi values are -inf
        ratios = np.where(np.isfinite(dist), np.abs(psi[0::2] - psi[1::2]) / dist, dist)
    unmeasured = ratios[~np.isfinite(ratios)]
    max_ratio = float(unmeasured[0]) if unmeasured.size else max([0.0, *ratios.tolist()])
    count = int(checked.sum())
    return LipschitzReport(pairs_checked=count, skipped=len(ab) - count,
                           max_ratio=max_ratio, bound=bound,
                           passed=count > 0 and max_ratio <= bound * (1 + 1e-9))


# ---------------------------------------------------------------------------
# cylinder functionals and path derivatives


@dataclass(frozen=True)
class CylinderFunctional:
    """Closed-form eta(t, path) with caller-supplied derivatives.

    value(t, path) -> (m, d'), d_t likewise, d_b(t, path) -> (m, d', d),
    d_bb(t, path) -> (m, d', d, d). path has shape (m, k+1, d): the node
    history up to the current level (on recombining trees the current-value
    slot, plus one step in path_derivative_probe, so only path[:, -1, :] may
    be read there).
    """

    value: object
    d_t: object
    d_b: object
    d_bb: object
    name: str = "cylinder"


def _cyl_shapes(cyl: CylinderFunctional, t: float, path: np.ndarray, dpr: int):
    """value, d_t, d_b and d_bb at the m nodes of path, shaped (m, dpr, ...);
    InvalidCylinderError when one holds other than dpr values per node."""
    m, d = path.shape[0], path.shape[2]
    out = []
    for name, fn, tail in (("value", cyl.value, ()), ("d_t", cyl.d_t, ()),
                           ("d_b", cyl.d_b, (d,)), ("d_bb", cyl.d_bb, (d, d))):
        arr = np.asarray(fn(t, path), dtype=float)
        per_value = m * int(np.prod(tail))
        if arr.size != per_value * dpr:
            raise InvalidCylinderError(
                f"cylinder '{cyl.name}': {name} has value dimension "
                f"{arr.size / per_value:g}, the problem's is {dpr}")
        out.append(arr.reshape((m, dpr) + tail))
    return tuple(out)


def path_derivative_probe(cyl: CylinderFunctional, tree: ScenarioTree,
                          value_dim: int = 1, levels=None,
                          threshold: float | None = None) -> float:
    """Max residual of eta(t+dt, path+) - eta(t, path) against the supplied
    dt/db/dbb expansion over tree transitions (using dB dB^T = inc inc^T,
    whose diagonal is exactly dt). The paths are node_histories', so on a
    recombining tree a path is the current-value slot plus one step.

    Exactly zero for polynomial functionals of degree <= 2 in the path values;
    O(dt^{3/2}) for smooth ones. Residuals above the threshold raise an
    invalid-cylinder error.
    """
    dt = tree.dt
    times = tree.grid.times()
    inc = tree.increments
    levels = range(tree.n) if levels is None else levels
    max_res = 0.0
    scale = 1.0
    for j in levels:
        path = node_histories(tree, j)
        m = path.shape[0]
        val, dt_v, db, dbb = _cyl_shapes(cyl, times[j], path, value_dim)
        scale = max(scale, float(np.abs(dt_v).max()), float(np.abs(db).max()),
                    float(np.abs(dbb).max()))
        for c in range(inc.shape[0]):
            step = inc[c]
            nxt = np.concatenate(
                [path, (path[:, -1, :] + step)[:, None, :]], axis=1)
            val_n = np.asarray(cyl.value(times[j + 1], nxt),
                               dtype=float).reshape(m, value_dim)
            quad = 0.5 * np.einsum("mvab,a,b->mv", dbb, step, step)
            pred = val + dt_v * dt + np.einsum("mva,a->mv", db, step) + quad
            max_res = max(max_res, float(np.abs(val_n - pred).max()))
    if threshold is None:
        threshold = max(100.0 * dt ** 1.5 * scale, 1e-9)
    if max_res > threshold:
        raise InvalidCylinderError(
            f"cylinder '{cyl.name}': pathwise expansion residual {max_res:.3e} "
            f"exceeds threshold {threshold:.3e}")
    return max_res


# ---------------------------------------------------------------------------
# master residual


@dataclass(frozen=True)
class MasterResidual:
    residual: float
    left_time_term: float   # D-_t Psi with the path frozen at level t-1
    drift_term: float       # <D_eta Psi, 1/2 tr d_bb eta> (induced dt-term is 0)
    sup_term: float         # sup over node-wise controls of <D_eta Psi, f>


def eta_derivative(fv: ForwardValue, level: int, eta: np.ndarray) -> np.ndarray:
    """Riesz density of D_eta Psi w.r.t. the tree-L2 pairing, by central bumps.

    Bump size is 1e-4 * (1 + |eta|) per node/component; the slope divided by
    the node probability gives the density. All 2 m d' bumped eta are one
    ForwardValue.values call.
    """
    h = 1e-4 * (1.0 + np.abs(eta))
    k = np.arange(eta.size)
    bumped = np.repeat(eta[None], 2 * eta.size, axis=0).reshape(2, eta.size, eta.size)
    bumped[0, k, k] += h.ravel()
    bumped[1, k, k] -= h.ravel()
    up, dn = fv.values(level, bumped.reshape(-1, *eta.shape)).reshape(2, *eta.shape)
    return (up - dn) / (2 * h) / fv.tree.probs[level][:, None]


def _sup_term(f, control_values, tree: ScenarioTree, level: int, t: float,
              eta: np.ndarray, z: np.ndarray, D: np.ndarray) -> float:
    """The controlled term sum over nodes of probs * max_u <D, f(t, eta, z, u)>."""
    m = tree.node_count(level)
    ctx = NodeContext(level=level, b=tree.values[level], tree=tree)
    best = np.full(m, -np.inf)
    for u in control_values:
        fval = np.asarray(f(t, ctx, eta, z, np.full(m, u)), dtype=float)
        best = np.maximum(best, np.sum(D * fval, axis=1))
    return float(np.sum(tree.probs[level] * best))


def master_residual(problem: BSDEProblem, tree: ScenarioTree,
                    cyl: CylinderFunctional, level: int) -> MasterResidual:
    """Stationarity defect of the forward value along the cylinder at a level.

    The left time-difference freezes the path one level back while keeping the
    functional's time slot, so the induced time-derivative contribution of the
    cylinder is identically zero and the drift term carries only the
    second-order path derivative. The control term takes per-node maxima of
    <D_eta Psi, f(t, eta, d_b eta, u)> over the finite control set. The
    cylinder's derivatives must first pass path_derivative_probe.
    """
    if level < 1:
        raise ValueError("the left time-difference needs level >= 1")
    path_derivative_probe(cyl, tree, value_dim=problem.value_dim,
                          levels=range(min(level, tree.n)))
    dt = tree.dt
    t_now = tree.grid.times()[level]
    fv = ForwardValue(problem, tree)

    hist_now = node_histories(tree, level)
    eta_now, _, db, dbb = _cyl_shapes(cyl, t_now, hist_now, problem.value_dim)
    psi_now = fv.value(level, eta_now)

    hist_prev = node_histories(tree, level - 1)
    frozen = np.concatenate([hist_prev, hist_prev[:, -1:, :]], axis=1) \
        if tree.mode == "path" else hist_prev
    eta_frozen = np.asarray(cyl.value(t_now, frozen), dtype=float).reshape(
        tree.node_count(level - 1), problem.value_dim)
    psi_prev = fv.value(level - 1, eta_frozen)
    left_term = (psi_now - psi_prev) / dt

    D = eta_derivative(fv, level, eta_now)
    probs = tree.probs[level]
    # induced drift: 1/2 trace of the second path derivative (dt-term is 0)
    half_trace = 0.5 * np.einsum("mvaa->mv", dbb)
    drift_term = float(np.sum(probs[:, None] * D * half_trace))

    sup_term = _sup_term(problem.f, problem.control_values, tree, level, t_now,
                         eta_now, db, D)

    return MasterResidual(
        residual=float(left_term - drift_term - sup_term),
        left_time_term=float(left_term), drift_term=drift_term,
        sup_term=sup_term)


# ---------------------------------------------------------------------------
# ill-posedness demonstration


@dataclass(frozen=True)
class IllposedReport:
    psi_1: float
    psi_2: float
    gap: float
    sup_term_1: float
    sup_term_2: float
    sup_terms_identical: bool
    z_dependent: bool
    witness: bool


def _shares_at_zero_z(f1, f2, tree: ScenarioTree, dpr: int, seed: int = 0,
                      control_values=(0.0,)) -> None:
    rng = np.random.default_rng(np.random.Philox(seed))
    ctx = NodeContext(level=0, b=tree.values[0], tree=tree)
    m = ctx.b.shape[0]
    z0 = np.zeros((m, dpr, tree.d))
    for _ in range(8):
        y = rng.normal(size=(m, dpr))
        u = np.full(m, control_values[rng.integers(len(control_values))])
        t = float(rng.uniform(0, tree.grid.T))
        a = np.asarray(f1(t, ctx, y, z0, u), dtype=float)
        b = np.asarray(f2(t, ctx, y, z0, u), dtype=float)
        if not np.array_equal(a, b):
            raise StructureError("generators disagree at z = 0")


def _is_z_dependent(f2, tree: ScenarioTree, dpr: int, control_values,
                    seed: int = 0) -> bool:
    rng = np.random.default_rng(np.random.Philox(seed + 1))
    ctx = NodeContext(level=0, b=tree.values[0], tree=tree)
    m = ctx.b.shape[0]
    for _ in range(8):
        y = rng.normal(size=(m, dpr))
        z = rng.normal(size=(m, dpr, tree.d))
        u = np.full(m, control_values[0])
        a = np.asarray(f2(0.0, ctx, y, np.zeros_like(z), u))
        b = np.asarray(f2(0.0, ctx, y, z, u))
        if np.max(np.abs(a - b)) > 1e-12:
            return True
    return False


def default_illposed_generators():
    """f1 = 0 and f2 = first z column: equal at z = 0, different value functions."""
    def f1(t, ctx, y, z, u):
        return np.zeros_like(y)

    def f2(t, ctx, y, z, u):
        return z[:, :, 0]

    return f1, f2


def illposed_demo(tree: ScenarioTree, f1=None, f2=None) -> IllposedReport:
    """Two generators sharing their z = 0 restriction: the candidate stationarity
    equation that only sees f(.,.,0,.) assigns both the same sup-term (verified
    bit-wise under a shared derivative input) even though their forward values
    differ (default pair: gap = horizon exactly on the tree).

    Both problems have terminal data B_n, utility y, the single control 0 and
    Lipschitz constant 1. The sup-terms are taken at level max(1, n // 2), and
    the pair is a witness when f2 depends on z and the gap is at least 1e-6.
    """
    if f1 is None or f2 is None:
        f1, f2 = default_illposed_generators()
    dpr = 1
    control_values = (0.0,)
    _shares_at_zero_z(f1, f2, tree, dpr, control_values=control_values)
    z_dep = _is_z_dependent(f2, tree, dpr, control_values)

    def make(fgen):
        return BSDEProblem(value_dim=dpr, f=fgen,
                           terminal=lambda ctx: ctx.b[:, :1].copy(),
                           phi=lambda y: y[:, 0], control_values=control_values,
                           lipschitz_L=1.0)

    p1, p2 = make(f1), make(f2)
    n = tree.n
    ctx_n = NodeContext(level=n, b=tree.values[n], tree=tree)
    xi = np.asarray(p1.terminal(ctx_n), dtype=float).reshape(tree.node_count(n), dpr)
    fv1 = ForwardValue(p1, tree)
    fv2 = ForwardValue(p2, tree)
    psi1 = fv1.value(n, xi)
    psi2 = fv2.value(n, xi)
    gap = abs(psi2 - psi1)

    lvl = max(1, n // 2)
    hist = node_histories(tree, lvl)
    eta = hist[:, -1, :dpr].reshape(tree.node_count(lvl), dpr)
    D = eta_derivative(fv1, lvl, eta)  # shared derivative input
    t_here = tree.grid.times()[lvl]
    z0 = np.zeros((tree.node_count(lvl), dpr, tree.d))
    s1, s2 = (_sup_term(f, control_values, tree, lvl, t_here, eta, z0, D)
              for f in (f1, f2))
    return IllposedReport(
        psi_1=psi1, psi_2=psi2, gap=gap, sup_term_1=s1, sup_term_2=s2,
        sup_terms_identical=(s1 == s2) and np.float64(s1).tobytes() == np.float64(s2).tobytes(),
        z_dependent=z_dep, witness=bool(gap >= 1e-6 and z_dep))
