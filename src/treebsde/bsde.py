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
  * cap: more than ENUMERATION_CAP assignments raise EnumerationCapError
    before any solve;
  * cost: _search (static_value's enumeration, envelope_bsde,
    benchmarks.subtree_argmax, dynutil.check_comparison, master.ForwardValue),
    reachable_set and dynutil.check_linear_comparison run the kernel
    _solve_chunks, from the problem's terminal data, the caller's, or a stack
    of the caller's: one generator call per level for a chunk of (terminal
    array, assignment) pairs stacked along the node axis, at most
    _CHUNK_FLOATS child floats per chunk; a subtree space solves only its
    node's descendant rows. Only master.check_forward_dpp still runs one
    solve_bsde per policy, through maximize_over_policies and its own segment
    loop: the benchmark's counters count solves per policy on that path.
    The dynamic utility Phi_t of a deterministic generator is the forward
    value Psi(t, .) of master.ForwardValue, so it is computed in one place.

Deterministic frontier contract. static_value uses the kernel _frontier when
the problem sets deterministic_controls, its terminal data is node-constant
and _probe_deterministic (every control, 8 levels) finds f independent of z
and of the node. The kernel moves the attainable Y values back one level at a
time (Z = 0, one f call per level and control, steps y + f*dt as in
solve_bsde) and drops exact duplicates: exact
while the |U|^k policies fit under ENUMERATION_CAP. Above it, the kernel prunes
points dominated along the first s in product((1, -1)) order that each level's
own points respect under one-coordinate bumps by s_i times their spread (step
maps move along s, phi does not fall; a failing s restarts the sweep, none
passing means dedup only). Slots 0, 1, ... take the first control whose best
completion over the stored level sets reaches the value, so ties keep the
lexicographically first assignment. More than ENUMERATION_CAP points at a level
raise EnumerationCapError. static_value's frontier route runs solve_bsde's
Lipschitz probe and step-size warning, as its enumeration does.

For d'=1 the scheme is monotone (hence order-preserving in the terminal data) when
1 - L*dt - L*sqrt(dt) >= 0; the sqrt(dt) term enters through the z-slot. This is
sharper than the dt < 1/(2L) rule of thumb and is what solve_bsde warns about.
"""
from __future__ import annotations

import itertools
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from treebsde.lattice import ScenarioTree


class ProblemValidationError(ValueError):
    """Declared problem structure failed a probe."""


class EnumerationCapError(ValueError):
    """More candidates than ENUMERATION_CAP."""


# The most candidates any enumeration of the package takes: tree policies,
# steering assignments (duality), attainable frontier points at one level.
ENUMERATION_CAP = 10 ** 6


def _check_cap(count: int, what: str) -> None:
    """EnumerationCapError when count exceeds ENUMERATION_CAP, which is read
    at each call, so one patch of the constant reaches every enumeration."""
    if count > ENUMERATION_CAP:
        raise EnumerationCapError(f"{count} {what} exceed cap {ENUMERATION_CAP}")


class NoMaximumError(ValueError):
    """phi(Y_0) is NaN or -inf under every policy, so no policy attains a maximum."""


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


def monotone_step_bound(L: float) -> float:
    """Largest dt with 1 - L*dt - L*sqrt(dt) >= 0 (comparison-preserving scheme)."""
    if L <= 0:
        return np.inf
    x = (-L + np.sqrt(L * L + 4 * L)) / (2 * L)  # x = sqrt(dt)
    return x * x


def probe_lipschitz(problem: BSDEProblem, tree: ScenarioTree) -> None:
    """24 seeded finite-difference probes of |f(y,z) - f(y',z')| <= L(|y-y'| + |z-z'|)
    at points of scale 2 with steps a tenth of that; a non-finite L fails
    without a probe, as every comparison with NaN is False."""
    if not np.isfinite(problem.lipschitz_L):
        raise ProblemValidationError(
            f"declared Lipschitz constant L = {problem.lipschitz_L} is not finite")
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


def solve_bsde(problem: BSDEProblem, tree: ScenarioTree, policy=None,
               terminal_level: int | None = None, eta=None) -> tuple:
    """Y on levels 0..terminal_level, a tuple of (m_j, d') arrays, by backward
    induction under policy: one (m_j,) array of control values per level
    j < terminal_level, U[0] everywhere when None.

    Default terminal data is problem.terminal evaluated at the last level; pass
    terminal_level k and eta, the (m_k, d') array at level k, to solve from
    intermediate data.
    """
    n, dpr = tree.n, problem.value_dim
    k = n if terminal_level is None else terminal_level
    if not 0 <= k <= n:
        raise ValueError(f"terminal level {k} outside 0..{n}")
    if policy is None:
        policy = [np.full(tree.node_count(j), float(problem.control_values[0]))
                  for j in range(k)]
    if len(policy) < k:
        raise ValueError(f"policy covers {len(policy)} levels, need {k}")
    for j in range(k):
        if np.shape(policy[j]) != (tree.node_count(j),):
            raise ValueError(f"policy level {j} has shape {np.shape(policy[j])}, "
                             f"need ({tree.node_count(j)},), one control per node")
    _check_scheme(problem, tree)
    if eta is None:
        eta = _terminal(problem, tree, k)
    else:
        eta = np.asarray(eta, dtype=float).reshape(tree.node_count(k), dpr)

    times = tree.grid.times()
    Ys = [None] * k + [eta]
    for j in range(k - 1, -1, -1):
        Ys[j] = _step(problem, tree, j, times[j], tree.child_values(j, Ys[j + 1]),
                      np.asarray(policy[j], dtype=float), tree.values[j])
    return tuple(Ys)


_PACKAGE_DIR = os.path.dirname(__file__)


def _check_scheme(problem: BSDEProblem, tree: ScenarioTree) -> None:
    """Run the Lipschitz probe once per problem; warn when dt exceeds the
    comparison-preserving bound for d' = 1, at the innermost frame outside the
    package, so the warning names the caller's line."""
    if not problem._lip_checked:
        probe_lipschitz(problem, tree)
    if problem.value_dim == 1:
        bound = monotone_step_bound(problem.lipschitz_L)
        if tree.dt > bound * (1 + 1e-12):
            # level 2 is this function's caller; the walk runs only on a warning
            frame, level = sys._getframe(1), 2
            while (frame.f_back is not None
                   and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"dt = {tree.dt:.4g} exceeds the comparison-preserving bound {bound:.4g} "
                f"(1 - L*dt - L*sqrt(dt) < 0); order preservation not guaranteed",
                stacklevel=level,
            )


def _terminal(problem: BSDEProblem, tree: ScenarioTree, k: int) -> np.ndarray:
    """problem.terminal at level k as an (m_k, d') array."""
    ctx = NodeContext(level=k, b=tree.values[k], tree=tree)
    return np.asarray(problem.terminal(ctx), dtype=float).reshape(
        tree.node_count(k), problem.value_dim)


def _step(problem: BSDEProblem, tree: ScenarioTree, j: int, t: float,
          cv: np.ndarray, u: np.ndarray, b: np.ndarray):
    """Y_j from child values cv (rows, 2^d, d'), controls u and ctx.b rows b;
    Z_j, (rows, d', d), is computed for f."""
    dt, inc = tree.dt, tree.increments   # inc (2^d, d)
    P = cv.mean(axis=1)                  # E_j[Y_{j+1}]
    Z = np.einsum("mcv,ci->mvi", cv, inc) / (inc.shape[0] * dt)
    fv = np.asarray(problem.f(t, NodeContext(level=j, b=b, tree=tree), P, Z, u), dtype=float)
    if fv.shape != P.shape:
        raise ValueError(f"generator returned shape {fv.shape}, expected {P.shape}")
    return P + fv * dt


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
        self.node = node
        if problem.deterministic_controls:
            self.slots = tuple((j, None) for j in range(start_level, k))
        elif node is None:
            self.slots = tuple((j, i) for j in range(start_level, k)
                               for i in range(tree.node_count(j)))
        else:
            self.slots = tuple((j, i) for j in range(start_level, k)
                               for i in tree.descendants(start_level, node, j))
        self.size = len(self.control_values) ** len(self.slots)

    def check_cap(self) -> None:
        _check_cap(self.size, "policies")

    def digits(self, lo: int, hi: int) -> np.ndarray:
        """Assignments lo..hi-1 in lexicographic order, shape (hi - lo, slots):
        the base-|U| digits of each index, the first slot most significant."""
        base = len(self.control_values)
        weights = base ** np.arange(len(self.slots) - 1, -1, -1, dtype=np.int64)
        return np.arange(lo, hi, dtype=np.int64)[:, None] // weights % base

    def assignment(self, index: int) -> tuple:
        """Assignment number index of the lexicographic order."""
        return tuple(self.digits(index, index + 1)[0].tolist())

    def policy(self, assignment) -> tuple:
        """One assignment as solve_bsde's policy, a tuple of (m_j,) control
        arrays for levels 0..terminal_level-1; non-slot entries hold U[0]."""
        U = self.control_values
        levels = [np.full(self.tree.node_count(j), float(U[0]))
                  for j in range(self.terminal_level)]
        for (j, i), a in zip(self.slots, assignment):
            if i is None:
                levels[j][:] = U[a]
            else:
                levels[j][i] = U[a]
        return tuple(levels)

    def policies(self):
        """Lazy (assignment, policy) pairs in lexicographic order, cap-checked first."""
        self.check_cap()
        choices = range(len(self.control_values))
        return ((a, self.policy(a))
                for a in itertools.product(choices, repeat=len(self.slots)))


# Child floats (assignments x nodes x 2^d x d' at the widest level) per chunk of
# a batch solve, and steered floats per chunk of duality's steering starts. At
# 64 KB per array the temporaries stay near 1 MB; larger chunks raise peak
# memory more than they save time.
_CHUNK_FLOATS = 1 << 13


def _solve_chunks(problem: BSDEProblem, space: PolicySpace, eta=None):
    """(first pair index, Y, u) for consecutive chunks of p (terminal array,
    assignment) pairs, solved from eta at space.terminal_level: the (m_k, d')
    terminal data (problem.terminal's when None), or a stack of S of them,
    (S, m_k, d'). Pair q solves stack q // space.size under assignment
    q % space.size, so from one terminal array q is the assignment index. A
    chunk holds whole stacks, or consecutive assignments of one stack. Y[i]
    and u[i] are Y, (p, m, d'), and the controls, (p, m), at level
    space.start_level + i, with m that level's rows (its subtree rows for a
    node's subtree space; stacks are needed only for full spaces).

    solve_bsde's scheme under every pair of a chunk at once: the (pair, node)
    rows are flattened into the node axis, with ctx.b tiled, so each level
    costs one problem.f call per chunk. A subtree space solves only its node's
    descendants (path mode only). Controls are space.policy's. More than
    ENUMERATION_CAP assignments raise EnumerationCapError before any generator
    call; the probe and the step-size warning are solve_bsde's.
    """
    space.check_cap()
    tree, start, k = space.tree, space.start_level, space.terminal_level
    _check_scheme(problem, tree)
    dpr, nc = problem.value_dim, 2 ** tree.d
    # the node rows each level solves: all, or the subtree's
    rows = {j: range(tree.node_count(j)) if space.node is None
            else tree.descendants(start, space.node, j) for j in range(start, k + 1)}
    if eta is None:
        eta = _terminal(problem, tree, k)
    eta = np.asarray(eta, dtype=float).reshape(
        -1, tree.node_count(k), dpr)[:, rows[k].start:rows[k].stop]
    widest = max((len(rows[j]) * nc for j in range(start, k)), default=1) * dpr
    per = max(1, _CHUNK_FLOATS // widest)  # pairs per chunk at most
    # a chunk: g stacks (whole ones when g > 1) under `chunk` consecutive assignments
    chunk, g = min(per, space.size), max(1, min(len(eta), per // space.size))
    U = np.asarray(space.control_values, dtype=float)
    # per level, each row's slot; non-slot rows read an extra all-zero digit
    col = {j: np.full(len(rows[j]), len(space.slots)) for j in range(start, k)}
    for s, (j, i) in enumerate(space.slots):
        col[j][slice(None) if i is None else i - rows[j].start] = s
    bs = {j: np.tile(tree.values[j][rows[j].start:rows[j].stop], (g * chunk, 1))
          for j in range(start, k)}
    times = tree.grid.times()
    for s0, a in itertools.product(range(0, len(eta), g), range(0, space.size, chunk)):
        ys, us = [np.repeat(eta[s0:s0 + g], min(chunk, space.size - a), axis=0)], []
        lo, p = s0 * space.size + a, len(ys[0])
        # the lowest base-|U| digits of pair q are those of assignment q % size
        digits = np.pad(space.digits(lo, lo + p), ((0, 0), (0, 1)))
        for j in range(k - 1, start - 1, -1):
            m = len(rows[j])
            us.append(U[digits[:, col[j]]])  # (p, m)
            if tree.mode == "path":  # children of flat row r are rows r*2^d + c
                cv = ys[-1].reshape(p * m, nc, dpr)
            else:
                cv = ys[-1][:, tree.child_index[j]].reshape(p * m, nc, dpr)
            y = _step(problem, tree, j, times[j], cv, us[-1].reshape(-1), bs[j][:p * m])
            ys.append(y.reshape(p, m, dpr))
        yield lo, ys[::-1], us[::-1]


@dataclass(frozen=True)
class StaticValue:
    value: float
    assignment: tuple
    enumerated: int
    heuristic: bool


def maximize_over_policies(problem: BSDEProblem, tree: ScenarioTree,
                           objective, start_level: int = 0,
                           terminal_level: int | None = None, eta=None):
    """Per-node max at start_level of objective(Y_{start_level}) over segment
    policies from the terminal array eta at terminal_level (as solve_bsde's),
    one solve_bsde per policy. Its one caller is
    master.check_forward_dpp: the benchmark counts that route's solves and
    policies through this function, so it stays until those counters read the
    batched _search.

    objective maps (m, d') -> (m,). Returns (per-node max values, per-node argmax
    assignments, enumerated count, False: no maximum is heuristic).
    """
    k = tree.n if terminal_level is None else terminal_level
    space = PolicySpace(problem, tree, start_level, k)
    m0 = tree.node_count(start_level)
    best = np.full(m0, -np.inf)
    best_assign = [None] * m0
    for assignment, pol in space.policies():
        Y = solve_bsde(problem, tree, pol, terminal_level=k, eta=eta)
        vals = np.asarray(objective(Y[start_level]), dtype=float)
        improved = vals > best
        if improved.any():
            for i in np.nonzero(improved)[0]:
                best_assign[i] = assignment
            best = np.where(improved, vals, best)
    return best, best_assign, space.size, False


def static_value(problem: BSDEProblem, tree: ScenarioTree) -> StaticValue:
    """V_0 = max over policies of phi(Y^u_0) and the first assignment reaching
    it, whose policy is PolicySpace(problem, tree).policy(assignment); the
    module docstring says by which route.

    A NaN value never wins; NoMaximumError when phi(Y^u_0) is NaN or -inf under
    every policy."""
    space = PolicySpace(problem, tree)
    eta = _terminal(problem, tree, tree.n)
    if (problem.deterministic_controls and np.all(eta == eta[0])
            and _probe_deterministic(problem, tree.grid.times()[:tree.n], tree.d)):
        _check_scheme(problem, tree)
        value, assignment, count = _frontier(
            problem, eta[0], tree.grid.times()[:tree.n], tree.dt, tree.d)
    else:
        best, first = _search(problem, space, problem.phi)
        if first[0] < 0:
            raise NoMaximumError("phi(Y_0) is NaN or -inf under every policy")
        value, assignment, count = float(best[0]), space.assignment(first[0]), space.size
    return StaticValue(value=value, assignment=assignment, enumerated=count,
                       heuristic=False)


def _search(problem: BSDEProblem, space: PolicySpace, objective, eta=None):
    """(max of objective(Y), index of the first assignment reaching it) per
    start-level row of _solve_chunks from the terminal data eta: two (m,)
    arrays, or two (S, m) arrays, one row per stack, when eta is a stack of S;
    -1 marks a row no assignment wins.

    objective maps (k, d') -> (k,), like phi, its rows in (pair, node) order.
    Within each stack, strict improvements across chunks and the first index
    within one give maximize_over_policies' winner: ties keep the first
    assignment, a NaN value counts as -inf, and a row whose every value is -inf
    has no winner."""
    stacked, size = np.ndim(eta) == 3, space.size
    m = space.tree.node_count(space.start_level) if space.node is None else 1
    best = np.full((len(eta) if stacked else 1, m), -np.inf)
    first = np.full(best.shape, -1)
    for lo, (y, *_), _ in _solve_chunks(problem, space, eta):
        vals = np.asarray(objective(y.reshape(-1, y.shape[-1])), dtype=float)
        vals = vals.reshape(-1, min(len(y), size), m)  # (stacks, assignments, m)
        vals = np.where(np.isnan(vals), -np.inf, vals)
        i = np.argmax(vals, axis=1)
        top = vals[np.arange(len(vals))[:, None], i, np.arange(m)]
        s = slice(lo // size, lo // size + len(vals))
        better = top > best[s]
        best[s] = np.where(better, top, best[s])
        first[s] = np.where(better, lo % size + i, first[s])
    return (best, first) if stacked else (best[0], first[0])


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


def _frontier(problem: BSDEProblem, y, times, dt: float, d: int):
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

    def score(pts):  # as in the enumeration, a NaN value never wins
        vals = phi(pts)
        return np.where(np.isnan(vals), -np.inf, vals)

    def respects(j, pts, s):  # the cone probe of the module docstring
        base = np.tile(pts, (dpr, 1))
        bumped = base + np.repeat(np.diag(np.ptp(pts, axis=0) * s), len(pts), axis=0)
        if j == 0:
            return bool(np.all(phi(bumped) >= phi(base) - 1e-12))
        return all(np.all((step(j - 1, bumped, u) - step(j - 1, base, u)) * s >= -1e-12)
                   for u in U)

    # prune only above the enumeration cap, along the first sign that passes
    signs = (list(itertools.product((1.0, -1.0), repeat=dpr))
             if len(U) ** k > ENUMERATION_CAP else [])
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
            _check_cap(len(pts), f"attainable points at level {j}")
            levels[j] = pts
        else:  # no probe failed
            break
    value = float(np.max(score(levels[0])))
    if value == -np.inf:
        raise NoMaximumError("phi(Y_0) is NaN or -inf under every policy")
    assignment = []
    for j in range(k):
        cur = np.concatenate([step(j, levels[j + 1], u) for u in U])
        for i in range(j - 1, -1, -1):
            cur = step(i, cur, U[assignment[i]])
        best = score(cur).reshape(len(U), -1).max(axis=1)
        assignment.append(int(np.flatnonzero(best == value)[0]))
    return value, tuple(assignment), len(U) * sum(len(pts) for pts in levels[1:])


def reachable_set(problem: BSDEProblem, tree: ScenarioTree, level: int) -> tuple:
    """Attainable {Y^u_level(node)} over policies on [level, n], deduplicated at
    1e-10: one (r, d') array of points per node of the level.

    Deterministic controls solve each policy of the level once for all nodes;
    adapted ones search each node's subtree (path mode only, else ModeError)."""
    m = tree.node_count(level)
    if problem.deterministic_controls:
        groups = [(PolicySpace(problem, tree, level), range(m))]
    else:
        groups = [(PolicySpace(problem, tree, level, node=i), (i,)) for i in range(m)]
    buckets = [[] for _ in range(m)]
    for space, nodes in groups:
        for _, (y, *_), _ in _solve_chunks(problem, space):
            for c, i in enumerate(nodes):
                buckets[i].append(y[:, c])
    return tuple(_dedup(np.concatenate(b)) for b in buckets)


def _dedup(arr: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Deduplicate rows within tol (round-based), preserving first appearance order."""
    arr = arr.reshape(len(arr), -1)
    keys = np.round(arr / tol).astype(np.int64)
    return arr[np.sort(np.unique(keys, axis=0, return_index=True)[1])]


# ---------------------------------------------------------------------------
# envelope BSDE (time-consistent monotone structures)


class StructureError(ValueError):
    """Declared monotone structure failed a probe."""


def envelope_bsde(problem: BSDEProblem, tree: ScenarioTree, skip_probes: bool = False):
    """(Ybar, max residual): solve_bsde's Y tuple under the enveloped generator
    fbar = sup_u f, and the max over levels t < n and nodes of |V_t - phi(Ybar_t)|.
    The envelope is consistent when that residual is at most 1e-10.

    Scalar only: d' = 1 (StructureError otherwise) and phi increasing, checked
    by 16 seeded probes. V_t is the per-node max of phi(Y^u_t) over the
    policies on [t, n], by _search.

    skip_probes computes the residual even when phi fails its probes; a
    residual above 1e-10 then documents the DPP violation.
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
    Ybar = solve_bsde(env, tree)
    # --- V_t per node against phi(Ybar_t); at t = n both sides are the terminal data
    max_res = 0.0
    for t in range(tree.n):
        vals, _ = _search(problem, PolicySpace(problem, tree, t), problem.phi)
        max_res = max(max_res, float(np.max(np.abs(
            vals - np.asarray(problem.phi(Ybar[t])).reshape(-1)))))
    return Ybar, max_res
