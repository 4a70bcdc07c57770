"""Controlled multidimensional BSDEs on scenario trees.

Explicit backward scheme on the +/-sqrt(dt) tree:

    Z_j = E_j[Y_{j+1} dB^T] / dt
    Y_j = E_j[Y_{j+1}] + f(t_j, node, E_j[Y_{j+1}], Z_j, u_j) * dt

The static problem sup_u phi(Y^u_0) is solved exactly: by policy enumeration,
or by the deterministic frontier kernel where Y is the same on every node.

Policy enumeration contract. Every loop over tree policies in the package runs
through PolicySpace, which fixes:

  * slots: one decision slot per (level, node) on [start_level, terminal_level),
    level-major then node-ascending; one slot per level under
    deterministic_controls;
  * subtrees: given a node, only that path-mode node's descendants are slots, and
    every other slot (including all levels before start_level) is pinned to U[0];
  * order: assignments (one index into control_values per slot) run
    lexicographically, so a max over them that keeps strict improvements only
    returns the first (smallest) assignment on exact ties;
  * cap: more than cap assignments raises EnumerationCapError before any solve;
  * cost: static_value's enumeration and reachable_set run chunked batch solves
    (_solve_chunks: one generator call per level for a chunk of assignments
    stacked along the node axis, at most _CHUNK_FLOATS child floats per chunk).
    maximize_over_policies, master.check_forward_dpp and
    dynutil.check_linear_comparison still run one solve_bsde per policy: the
    benchmark's counters count solves per policy on that path.

Deterministic frontier contract. static_value and dynutil.deterministic_phi
use the kernel _frontier when the problem sets deterministic_controls, its
terminal data is node-constant and _probe_deterministic (every control, 8
levels) finds f independent of z and of the node. The kernel moves the
attainable Y values back one level at a time (Z = 0, one f call per level and
control, steps y + f*dt as in solve_bsde) and drops exact duplicates: exact
while the |U|^k policies fit under cap. Above cap it prunes points dominated
along the first s in product((1, -1)) order that each level's own points
respect under one-coordinate bumps by s_i times their spread (step maps move
along s, phi does not fall; a failing s restarts the sweep, none passing means
dedup only). Slots 0, 1, ... take the first control whose best completion over
the stored level sets reaches the value, so ties keep the lexicographically
first assignment. More than cap points at a level raise EnumerationCapError.

For d'=1 the scheme is monotone (hence order-preserving in the terminal data) when
1 - L*dt - L*sqrt(dt) >= 0; the sqrt(dt) term enters through the z-slot. This is
sharper than the dt < 1/(2L) rule of thumb and is what solve_bsde warns about.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from treebsde.lattice import ScenarioTree, TreeRandomVariable


class ProblemValidationError(ValueError):
    """Declared problem structure failed a probe."""


class EnumerationCapError(ValueError):
    """Policy space larger than the enumeration cap."""


@dataclass
class NodeContext:
    """What the generator sees at one level: current Brownian values per node."""

    level: int
    b: np.ndarray  # (m, d)
    tree: ScenarioTree | None = None


@dataclass
class BSDEProblem:
    """Generator f(t, ctx, y, z, u) -> (m, d'), terminal xi(ctx) -> (m, d'), utility phi.

    f must be vectorized over nodes: y has shape (m, d'), z has shape (m, d', d),
    u is an (m,) array of control values from the finite set control_values.
    f must treat rows independently and read node data only through ctx.b (phi
    likewise maps rows to values): the batch solves stack many policies along
    the node axis, so row r need not be node r of ctx.level.
    lipschitz_L is the declared Lipschitz constant in (y, z), validated by probes.
    deterministic_controls restricts policies to functions of time only (one control
    value per level), matching problems whose admissible class is deterministic.
    """

    value_dim: int
    f: object
    terminal: object
    phi: object
    control_values: tuple
    lipschitz_L: float
    deterministic_controls: bool = False
    phi_lipschitz: float | None = None
    _lip_checked: bool = field(default=False, repr=False)


@dataclass(frozen=True)
class ControlPolicy:
    """One control value per node per level (levels 0..k-1 for a solve up to k)."""

    levels: tuple  # level j -> (m_j,) array of control values

    @staticmethod
    def constant(tree: ScenarioTree, value: float, last_level: int | None = None) -> "ControlPolicy":
        k = tree.n if last_level is None else last_level
        return ControlPolicy(tuple(
            np.full(tree.node_count(j), float(value)) for j in range(k)
        ))


def monotone_step_bound(L: float) -> float:
    """Largest dt with 1 - L*dt - L*sqrt(dt) >= 0 (comparison-preserving scheme)."""
    if L <= 0:
        return np.inf
    x = (-L + np.sqrt(L * L + 4 * L)) / (2 * L)  # x = sqrt(dt)
    return x * x


def probe_lipschitz(problem: BSDEProblem, tree: ScenarioTree) -> None:
    """24 seeded finite-difference probes of |f(y,z) - f(y',z')| <= L(|y-y'| + |z-z'|)
    at points of scale 2 with steps a tenth of that."""
    rng = np.random.default_rng(np.random.Philox(0))
    dpr, d = problem.value_dim, tree.d
    lvl = 0
    ctx = NodeContext(level=lvl, b=tree.values[lvl], tree=tree)
    m = ctx.b.shape[0]
    t = 0.0
    scale = 2.0
    for _ in range(24):
        y = rng.normal(size=(m, dpr)) * scale
        z = rng.normal(size=(m, dpr, d)) * scale
        dy = rng.normal(size=(m, dpr)) * scale * 0.1
        dz = rng.normal(size=(m, dpr, d)) * scale * 0.1
        u = np.full(m, problem.control_values[rng.integers(len(problem.control_values))])
        f0 = np.asarray(problem.f(t, ctx, y, z, u))
        f1 = np.asarray(problem.f(t, ctx, y + dy, z + dz, u))
        lhs = np.linalg.norm(f1 - f0, axis=-1)
        rhs = problem.lipschitz_L * (
            np.linalg.norm(dy, axis=-1) + np.linalg.norm(dz.reshape(m, -1), axis=-1)
        )
        if np.any(lhs > rhs * (1 + 1e-9) + 1e-12):
            raise ProblemValidationError(
                f"Lipschitz probe failed: |df| = {float(lhs.max()):.3e} exceeds "
                f"L*(|dy|+|dz|) with declared L = {problem.lipschitz_L}"
            )
    problem._lip_checked = True


@dataclass(frozen=True)
class BSDESolution:
    """Y per level 0..terminal_level, Z per level 0..terminal_level-1."""

    Y: tuple   # level -> (m, d')
    Z: tuple   # level -> (m, d', d)


def solve_bsde(problem: BSDEProblem, tree: ScenarioTree,
               policy: ControlPolicy | None = None,
               terminal_level: int | None = None,
               terminal_rv: TreeRandomVariable | None = None) -> BSDESolution:
    """Backward induction on [0, terminal_level] under the given policy.

    Default terminal data is problem.terminal evaluated at the last level; pass
    (terminal_level, terminal_rv) to solve from intermediate data eta at level k.
    """
    n, dpr = tree.n, problem.value_dim
    k = n if terminal_level is None else terminal_level
    if not 0 <= k <= n:
        raise ValueError(f"terminal level {k} outside 0..{n}")
    _check_scheme(problem, tree, stacklevel=3)
    if terminal_rv is not None:
        if terminal_rv.level != k:
            raise ValueError(f"terminal_rv at level {terminal_rv.level}, expected {k}")
        eta = np.asarray(terminal_rv.values, dtype=float).reshape(tree.node_count(k), dpr)
    else:
        eta = _terminal(problem, tree, k)
    if policy is None:
        policy = ControlPolicy.constant(tree, problem.control_values[0], last_level=k)
    if len(policy.levels) < k:
        raise ValueError(f"policy covers {len(policy.levels)} levels, need {k}")

    times = tree.grid.times()
    Ys = [None] * (k + 1)
    Zs = [None] * k
    Ys[k] = eta
    cur = eta
    for j in range(k - 1, -1, -1):
        cur, Zs[j] = _step(problem, tree, j, times[j], tree.child_values(j, cur),
                           np.asarray(policy.levels[j], dtype=float), tree.values[j])
        Ys[j] = cur
    return BSDESolution(Y=tuple(Ys), Z=tuple(Zs))


def _check_scheme(problem: BSDEProblem, tree: ScenarioTree, stacklevel: int) -> None:
    """Run the Lipschitz probe once per problem; warn (at the caller stacklevel
    frames up) when dt exceeds the comparison-preserving bound for d' = 1."""
    if not problem._lip_checked:
        probe_lipschitz(problem, tree)
    if problem.value_dim == 1:
        bound = monotone_step_bound(problem.lipschitz_L)
        if tree.dt > bound * (1 + 1e-12):
            warnings.warn(
                f"dt = {tree.dt:.4g} exceeds the comparison-preserving bound {bound:.4g} "
                f"(1 - L*dt - L*sqrt(dt) < 0); order preservation not guaranteed",
                stacklevel=stacklevel,
            )


def _terminal(problem: BSDEProblem, tree: ScenarioTree, k: int) -> np.ndarray:
    """problem.terminal at level k as an (m_k, d') array."""
    ctx = NodeContext(level=k, b=tree.values[k], tree=tree)
    return np.asarray(problem.terminal(ctx), dtype=float).reshape(
        tree.node_count(k), problem.value_dim)


def _step(problem: BSDEProblem, tree: ScenarioTree, j: int, t: float,
          cv: np.ndarray, u: np.ndarray, b: np.ndarray):
    """(Y_j, Z_j) from child values cv (rows, 2^d, d'), controls u and ctx.b rows b."""
    dt, inc = tree.dt, tree.increments   # inc (2^d, d)
    P = cv.mean(axis=1)                  # E_j[Y_{j+1}]
    Z = np.einsum("mcv,ci->mvi", cv, inc) / (inc.shape[0] * dt)
    fv = np.asarray(problem.f(t, NodeContext(level=j, b=b, tree=tree), P, Z, u), dtype=float)
    if fv.shape != P.shape:
        raise ValueError(f"generator returned shape {fv.shape}, expected {P.shape}")
    return P + fv * dt, Z


# ---------------------------------------------------------------------------
# policy enumeration


class PolicySpace:
    """The policy enumerator (contract in the module docstring).

    Policies act on levels 0..terminal_level-1; slots cover [start_level,
    terminal_level), restricted to the descendants of (start_level, node) when a
    node is given and controls are adapted.
    """

    def __init__(self, problem: BSDEProblem, tree: ScenarioTree, start_level: int = 0,
                 terminal_level: int | None = None, node: int | None = None):
        k = tree.n if terminal_level is None else terminal_level
        self.tree = tree
        self.control_values = problem.control_values
        self.start_level = start_level
        self.terminal_level = k
        if problem.deterministic_controls:
            self.slots = tuple((j, None) for j in range(start_level, k))
        elif node is None:
            self.slots = tuple((j, i) for j in range(start_level, k)
                               for i in range(tree.node_count(j)))
        else:
            self.slots = tuple((j, i) for j in range(start_level, k)
                               for i in tree.descendants(start_level, node, j))
        self.size = len(self.control_values) ** len(self.slots)

    def check_cap(self, cap: int) -> None:
        if self.size > cap:
            raise EnumerationCapError(f"{self.size} policies exceed cap {cap}")

    def digits(self, lo: int, hi: int) -> np.ndarray:
        """Assignments lo..hi-1 in lexicographic order, shape (hi - lo, slots):
        the base-|U| digits of each index, the first slot most significant."""
        base = len(self.control_values)
        weights = base ** np.arange(len(self.slots) - 1, -1, -1, dtype=np.int64)
        return np.arange(lo, hi, dtype=np.int64)[:, None] // weights % base

    def policy(self, assignment) -> ControlPolicy:
        """Materialize one assignment; non-slot entries hold U[0]."""
        U = self.control_values
        levels = [np.full(self.tree.node_count(j), float(U[0]))
                  for j in range(self.terminal_level)]
        for (j, i), a in zip(self.slots, assignment):
            if i is None:
                levels[j][:] = U[a]
            else:
                levels[j][i] = U[a]
        return ControlPolicy(tuple(levels))

    def policies(self, cap: int):
        """Lazy (assignment, policy) pairs in lexicographic order, cap-checked first."""
        self.check_cap(cap)
        choices = range(len(self.control_values))
        return ((a, self.policy(a))
                for a in itertools.product(choices, repeat=len(self.slots)))


# Child floats (assignments x nodes x 2^d x d' at the widest level) per chunk of
# a batch solve. At 64 KB per array the temporaries stay near 1 MB, as with
# duality's steering chunks; larger chunks raise peak memory more than they
# save time.
_CHUNK_FLOATS = 1 << 13


def _solve_chunks(problem: BSDEProblem, space: PolicySpace, cap: int):
    """(first assignment index, Y at space.start_level of shape (p, m, d')) for
    consecutive chunks of p assignments of space, in lexicographic order.

    solve_bsde's scheme under every assignment of a chunk at once: the
    (assignment, node) pairs are flattened into the node axis, with ctx.b tiled,
    so each level costs one problem.f call per chunk. Controls are
    space.policy's. More than cap assignments raise EnumerationCapError before
    any generator call; the probe and the step-size warning are solve_bsde's.
    """
    space.check_cap(cap)
    tree, start, k = space.tree, space.start_level, space.terminal_level
    _check_scheme(problem, tree, stacklevel=4)
    dpr, nc = problem.value_dim, 2 ** tree.d
    widest = max((tree.node_count(j) * nc for j in range(start, k)), default=1) * dpr
    chunk = min(space.size, max(1, _CHUNK_FLOATS // widest))
    U = np.asarray(space.control_values, dtype=float)
    # per level, each node's slot; non-slot nodes read an extra all-zero digit
    col = {j: np.full(tree.node_count(j), len(space.slots)) for j in range(start, k)}
    for s, (j, i) in enumerate(space.slots):
        col[j][slice(None) if i is None else i] = s
    eta = np.tile(_terminal(problem, tree, k), (chunk, 1))
    bs = {j: np.tile(tree.values[j], (chunk, 1)) for j in range(start, k)}
    times = tree.grid.times()
    for lo in range(0, space.size, chunk):
        p = min(chunk, space.size - lo)
        digits = np.pad(space.digits(lo, lo + p), ((0, 0), (0, 1)))
        cur = eta[:p * tree.node_count(k)]
        for j in range(k - 1, start - 1, -1):
            m = tree.node_count(j)
            u = U[digits[:, col[j]]]  # (p, m)
            if tree.mode == "path":  # children of flat row r are rows r*2^d + c
                cv = cur.reshape(p * m, nc, dpr)
            else:
                cv = cur.reshape(p, -1, dpr)[:, tree.child_index[j]].reshape(p * m, nc, dpr)
            cur, _ = _step(problem, tree, j, times[j], cv, u.reshape(-1), bs[j][:p * m])
        yield lo, cur.reshape(p, -1, dpr)


@dataclass(frozen=True)
class StaticValue:
    value: float
    policy: ControlPolicy
    assignment: tuple
    enumerated: int
    heuristic: bool


def maximize_over_policies(problem: BSDEProblem, tree: ScenarioTree,
                           objective, start_level: int = 0,
                           terminal_level: int | None = None,
                           terminal_rv: TreeRandomVariable | None = None,
                           cap: int = 10 ** 6, node: int | None = None):
    """Per-node max at start_level of objective(Y_{start_level}) over segment policies,
    or over the subtree policies of one node at start_level when node is given.

    objective maps (m, d') -> (m,). Returns (per-node max values, per-node argmax
    assignments, enumerated count, False: no maximum is heuristic).
    """
    k = tree.n if terminal_level is None else terminal_level
    space = PolicySpace(problem, tree, start_level, k, node=node)
    m0 = tree.node_count(start_level)
    best = np.full(m0, -np.inf)
    best_assign = [None] * m0
    for assignment, pol in space.policies(cap):
        sol = solve_bsde(problem, tree, pol, terminal_level=k, terminal_rv=terminal_rv)
        vals = np.asarray(objective(sol.Y[start_level]), dtype=float)
        improved = vals > best
        if improved.any():
            for i in np.nonzero(improved)[0]:
                best_assign[i] = assignment
            best = np.where(improved, vals, best)
    return best, best_assign, space.size, False


def static_value(problem: BSDEProblem, tree: ScenarioTree,
                 cap: int = 10 ** 6) -> StaticValue:
    """V_0 = max over policies of phi(Y^u_0); the module docstring says by which route."""
    space = PolicySpace(problem, tree)
    eta = _terminal(problem, tree, tree.n)
    if (problem.deterministic_controls and np.all(eta == eta[0])
            and _probe_deterministic(problem, tree.grid.times()[:tree.n], tree.d)):
        if not problem._lip_checked:
            probe_lipschitz(problem, tree)
        value, assignment, count = _frontier(
            problem, eta[0], tree.grid.times()[:tree.n], tree.dt, tree.d, cap)
    else:
        value, assignment, count = _enumerate_static(problem, space, cap)
    return StaticValue(value=value, policy=space.policy(assignment), assignment=assignment,
                       enumerated=count, heuristic=False)


def _enumerate_static(problem: BSDEProblem, space: PolicySpace, cap: int):
    """(max phi(Y_0), first maximizing assignment, policy count) over space by
    batch solves. Strict improvements across chunks and the first index within
    one give maximize_over_policies' winner: ties keep the first assignment and
    a NaN value never wins."""
    best, first = -np.inf, None
    for lo, y0 in _solve_chunks(problem, space, cap):
        vals = np.asarray(problem.phi(y0[:, 0]), dtype=float).reshape(-1)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, first = vals[i], lo + i
    return float(best), tuple(space.digits(first, first + 1)[0].tolist()), space.size


# ---------------------------------------------------------------------------
# deterministic frontier


def _probe_deterministic(problem: BSDEProblem, times, d: int = 1, seed: int = 0) -> bool:
    """Whether f, probed with every control at 8 levels of times, ignores z and the node."""
    rng = np.random.default_rng(np.random.Philox(seed))
    u = np.asarray(problem.control_values, dtype=float)
    m, dpr = len(u), problem.value_dim
    for j in np.linspace(0, len(times) - 1, 8).astype(int):
        y, z = rng.normal(size=(m, dpr)), rng.normal(size=(m, dpr, d))
        ctx0 = NodeContext(level=j, b=np.zeros((m, d)))
        ctxb = NodeContext(level=j, b=rng.normal(size=(m, d)))
        f0 = np.asarray(problem.f(times[j], ctx0, y, np.zeros_like(z), u))
        fz = np.asarray(problem.f(times[j], ctx0, y, z, u))
        fb = np.asarray(problem.f(times[j], ctxb, y, np.zeros_like(z), u))
        if np.max(np.abs(fz - f0)) > 1e-12 or np.max(np.abs(fb - f0)) > 1e-12:
            return False
    return True


def _frontier(problem: BSDEProblem, y, times, dt: float, d: int, cap: int):
    """(max phi(Y_0), first maximizing assignment, points evaluated) over one control
    per level on [0, k), k = len(times), from Y_k = y; see the module docstring."""
    U, dpr, k = problem.control_values, problem.value_dim, len(times)

    def step(j, pts, u):
        m = len(pts)
        fv = problem.f(times[j], NodeContext(level=j, b=np.zeros((m, d))), pts,
                       np.zeros((m, dpr, d)), np.full(m, float(u)))
        return pts + np.asarray(fv, dtype=float) * dt

    def phi(pts):
        return np.asarray(problem.phi(pts), dtype=float).reshape(-1)

    def respects(j, pts, s):  # the cone probe of the module docstring
        base = np.tile(pts, (dpr, 1))
        bumped = base + np.repeat(np.diag(np.ptp(pts, axis=0) * s), len(pts), axis=0)
        if j == 0:
            return bool(np.all(phi(bumped) >= phi(base) - 1e-12))
        return all(np.all((step(j - 1, bumped, u) - step(j - 1, base, u)) * s >= -1e-12)
                   for u in U)

    # prune only above the enumeration cap, along the first sign that passes
    signs = list(itertools.product((1.0, -1.0), repeat=dpr)) if len(U) ** k > cap else []
    for s in [np.array(s) for s in signs] + [None]:
        levels = [None] * k + [np.asarray(y, dtype=float).reshape(1, dpr)]
        for j in range(k - 1, -1, -1):
            cand = np.concatenate([step(j, levels[j + 1], u) for u in U])
            pts = cand[np.sort(np.unique(cand, axis=0, return_index=True)[1])]
            if s is not None:  # keep the points no other point matches or beats along s
                if not respects(j, pts, s):
                    break
                q, block = pts * s, max(1, 2 ** 20 // pts.size)
                pts = pts[np.concatenate([np.all(q >= q[a:a + block, None], axis=2).sum(axis=1) == 1
                                          for a in range(0, len(q), block)])]
            if len(pts) > cap:
                raise EnumerationCapError(
                    f"{len(pts)} attainable points at level {j} exceed cap {cap}")
            levels[j] = pts
        else:  # no probe failed
            break
    value = float(np.max(phi(levels[0])))
    assignment = []
    for j in range(k):
        cur = np.concatenate([step(j, levels[j + 1], u) for u in U])
        for i in range(j - 1, -1, -1):
            cur = step(i, cur, U[assignment[i]])
        best = phi(cur).reshape(len(U), -1).max(axis=1)
        assignment.append(int(np.flatnonzero(best == value)[0]))
    return value, tuple(assignment), len(U) * sum(len(pts) for pts in levels[1:])


@dataclass(frozen=True)
class ReachableSet:
    level: int
    points: tuple  # node -> (r, d') array of attainable Y values, deduplicated


def reachable_set(problem: BSDEProblem, tree: ScenarioTree, level: int) -> ReachableSet:
    """Attainable {Y^u_level(node)} over policies on [level, n], deduplicated at 1e-10.

    Deterministic controls solve each policy of the level once for all nodes;
    adapted ones search each node's subtree (path mode only, else ModeError)."""
    m = tree.node_count(level)
    if problem.deterministic_controls:
        groups = [(PolicySpace(problem, tree, level), range(m))]
    else:
        groups = [(PolicySpace(problem, tree, level, node=i), (i,)) for i in range(m)]
    buckets = [[] for _ in range(m)]
    for space, nodes in groups:
        for _, y in _solve_chunks(problem, space, 10 ** 6):
            for i in nodes:
                buckets[i].append(y[:, i])
    return ReachableSet(level=level,
                        points=tuple(_dedup(np.concatenate(b)) for b in buckets))


def _dedup(arr: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Deduplicate rows within tol (round-based), preserving first appearance order."""
    arr = arr.reshape(len(arr), -1)
    keys = np.round(arr / tol).astype(np.int64)
    return arr[np.sort(np.unique(keys, axis=0, return_index=True)[1])]


# ---------------------------------------------------------------------------
# envelope BSDE (time-consistent monotone structures)


class StructureError(ValueError):
    """Declared monotone structure failed a probe."""


@dataclass(frozen=True)
class EnvelopeReport:
    max_residual: float
    consistent: bool


def envelope_bsde(problem: BSDEProblem, tree: ScenarioTree, skip_probes: bool = False):
    """Solve with the enveloped generator fbar = sup_u f and report |V_t - phi(Ybar_t)|,
    consistent when its max over levels is at most 1e-10.

    Scalar only: d' = 1 (StructureError otherwise) and phi increasing, checked
    by 16 seeded probes. V_t is computed by brute-force per-node maximization of
    phi(Y^u_t) over subtree policies.

    skip_probes computes the report even when phi fails its probes; the
    resulting consistent=False then documents the DPP violation.
    """
    rng = np.random.default_rng(np.random.Philox(0))
    dpr, m = problem.value_dim, tree.node_count(0)
    for _ in range(0 if skip_probes else 16):
        y = rng.normal(size=(m, dpr))
        bump = np.abs(rng.normal(size=(m, dpr)))
        if np.any(problem.phi(y + bump) < problem.phi(y) - 1e-12):
            raise StructureError("phi monotonicity probe failed (phi not increasing)")
    if dpr != 1:
        raise StructureError("the envelope needs d' = 1")

    U = problem.control_values

    def fbar(t, ctx_, y, z, u_ignored):
        stack = np.stack([
            np.asarray(problem.f(t, ctx_, y, z, np.full(y.shape[0], uv)))
            for uv in U
        ])
        return stack.max(axis=0)  # per-component sup over the finite U

    env = BSDEProblem(
        value_dim=dpr, f=fbar, terminal=problem.terminal, phi=problem.phi,
        control_values=(U[0],), lipschitz_L=problem.lipschitz_L,
        _lip_checked=True,
    )
    bar = solve_bsde(env, tree)
    # --- brute-force V_t per node and compare with phi(Ybar_t); at t = n both
    # sides are the terminal data
    max_res = 0.0
    for t in range(tree.n):
        vals, _, _, _ = maximize_over_policies(
            problem, tree, lambda y: np.asarray(problem.phi(y)).reshape(-1),
            start_level=t)
        max_res = max(max_res, float(np.max(np.abs(
            vals - np.asarray(problem.phi(bar.Y[t])).reshape(-1)))))
    return bar, EnvelopeReport(max_residual=max_res, consistent=max_res <= 1e-10)
