"""Dual control value W, its HJB finite-difference solution, and nodal sets.

Two dual problem shapes are supported:

  * MarkovianDualSpec (d = d' = 1): W(t,x,y) = inf E|X_T - g(B_T)|^2 over steered
    pairs (Z,u), solved on an (x,y) grid for the degenerate HJB
        dW/dt + 1/2 Wxx + inf_{z,u} { 1/2 z^2 Wyy + z Wxy - f(t,x,y,z,u) Wy } = 0,
        W(T,x,y) = |y - g(x)|^2.
  * DeterministicDualSpec (d' = 2, Z = 0): transport equation
        dW/dt + inf_u { -f(t,y,u) . grad_y W } = 0,  W(T,y) = |y - target|^2.

Explicit schemes: central second differences (second-order one-sided at edges),
four-point mixed stencil via gradient composition, first-order upwinding for the
advection, CFL-limited substeps, W clipped below at zero after each substep.

W-tilde (the tree-conditional dual value) is computed exactly on the tree by
enumerating steering candidates; the forward step defaults to the exact inverse
of the backward Euler map, so steering with a BSDE solution's own (Z,u)
reproduces X = Y identically.

Steering contract. Every steering walk in the module (dual_value_direct,
conditional_dual_value, check_geometric_dpp) runs through one kernel, which fixes:

  * slots: one per path-mode descendant of the start node on [level, stop),
    level-major then node-ascending;
  * order: each slot takes one (z, u) pair, pairs z-major over z-grid x
    control_values; assignments run lexicographically, then extra_candidates;
  * tie-break: a min keeps strict improvements only, so the first assignment
    wins exact ties, a NaN cost never wins, and a start whose every cost is inf
    or NaN keeps tag None;
  * cap: more than cap assignments raise EnumerationCapError before any
    problem.f call;
  * step: explicit Euler x - f dt, or (inverse) the fixed point P + f(P) dt = x
    in at most 60 iterations, each row stopping at its own max|step| < 1e-15;
    child c then adds z @ increment[c];
  * batches: dual_value_direct takes node (S,) and y (S, d') and returns values
    (S,) and S tags. The kernel steps arrays of shape (starts, assignments,
    subtree nodes, d') one level at a time with one problem.f call per level
    (per fixed-point iteration), ctx.b gathered by absolute node index, so f
    and terminal must act row by row;
  * chunks: starts run in chunks of at most _CHUNK_FLOATS steered floats
    (starts x assignments x subtree nodes at the stop level x d'); a single
    start larger than that runs alone.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from treebsde.lattice import ScenarioTree, TimeGrid
from treebsde.bsde import BSDEProblem, EnumerationCapError, NodeContext


class ConfigError(ValueError):
    """Invalid HJB configuration (grids, CFL, z-grid)."""


class EmptyNodalSetError(ValueError):
    """Nodal set empty at the requested tolerance."""


@dataclass(frozen=True)
class HJBConfig:
    """Grids and tolerances for the finite-difference dual solve.

    y_bounds/dy apply to both y axes in the deterministic (2-d) shape.
    substeps=None means CFL-automatic; eps=None defers the nodal tolerance to
    10x the terminal interpolation error estimate.
    """

    x_bounds: tuple = (-2.0, 2.0)
    dx: float = 0.05
    y_bounds: tuple = (-2.0, 2.0)
    dy: float = 0.05
    z_values: tuple = (0.0,)
    substeps: int | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.dx <= 0 or self.dy <= 0:
            raise ConfigError("grid spacings must be positive")
        if not any(abs(z) < 1e-15 for z in self.z_values):
            raise ConfigError("z-grid must contain 0")
        if self.eps is not None and self.eps <= 0:
            raise ConfigError("nodal tolerance eps must be positive")


@dataclass(frozen=True)
class MarkovianDualSpec:
    """f(t,x,y,z,u) scalar-vectorized; terminal target g(x); finite control set."""

    f: object
    g: object
    control_values: tuple
    f_bound: float | None = None  # optional known sup|f| on the grid


@dataclass(frozen=True)
class DeterministicDualSpec:
    """f(t,y,u) -> (..., 2) vectorized; terminal target point in R^2.

    f_bound may be a scalar or a per-component pair; when given it is used as-is
    in the CFL rate (no safety margin), which keeps substep counts reproducible.
    """

    f: object
    target: tuple
    control_values: tuple
    f_bound: object = None


@dataclass(frozen=True)
class DualGrid:
    kind: str          # "markovian" | "deterministic"
    times: np.ndarray  # every tree-level time, increasing
    axes: tuple        # markovian: (xs, ys); deterministic: (y1s, y2s)
    levels: tuple      # ascending tree levels held in W, always ending at n
    W: np.ndarray      # (len(levels), len(axes[0]), len(axes[1])); W[i] is levels[i]
    config: HJBConfig
    substeps: int

    def at(self, level: int) -> np.ndarray:
        """The W slice of tree level `level`; ValueError unless that level is held."""
        try:
            return self.W[self.levels.index(level)]
        except ValueError:
            raise ValueError(f"W at level {level} was not kept; "
                             f"held levels {self.levels}") from None

    def default_eps(self) -> float:
        """10x the terminal-slice interpolation error estimate (max 2nd diff / 8)."""
        terminal = self.at(len(self.times) - 1)
        est = 0.0
        for axis in (0, 1):
            d2 = np.abs(np.diff(terminal, n=2, axis=axis))
            if d2.size:
                est += d2.max() / 8.0
        return 10.0 * est if est > 0 else 1e-8

    def trusted_interior(self) -> tuple:
        """Index masks with a 20% margin from each boundary (flagged untrusted outside)."""
        masks = []
        for ax in self.axes:
            lo, hi = ax[0], ax[-1]
            margin = 0.2 * (hi - lo)
            masks.append((ax >= lo + margin) & (ax <= hi - margin))
        return tuple(masks)


def _axis(bounds, step):
    lo, hi = bounds
    if hi <= lo:
        raise ConfigError(f"empty axis bounds {bounds}")
    npts = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(npts)


def _one_sided_second(W, h, axis):
    """Central second difference, second-order one-sided rows at the edges."""
    W = np.moveaxis(W, axis, 0)
    out = np.empty_like(W)
    out[1:-1] = (W[2:] - 2 * W[1:-1] + W[:-2]) / (h * h)
    out[0] = (2 * W[0] - 5 * W[1] + 4 * W[2] - W[3]) / (h * h)
    out[-1] = (2 * W[-1] - 5 * W[-2] + 4 * W[-3] - W[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _upwind_pair(W, h, axis):
    """(backward, forward) one-sided first differences along axis."""
    W = np.moveaxis(W, axis, 0)
    d = (W[1:] - W[:-1]) / h
    fwd = np.empty_like(W)
    bwd = np.empty_like(W)
    fwd[:-1] = d
    fwd[-1] = d[-1]
    bwd[1:] = d
    bwd[0] = d[0]
    return np.moveaxis(bwd, 0, axis), np.moveaxis(fwd, 0, axis)


def solve_dual_hjb(spec, grid: TimeGrid, config: HJBConfig,
                   levels=None) -> DualGrid:
    """Backward explicit finite-difference solve of the dual HJB on [0, T].

    The sweep rolls one W buffer from T down to 0 and copies out the slices
    of the tree levels in `levels` (None: every level) plus the terminal
    level n, which default_eps reads; levels outside [0, n] raise ConfigError.
    Internal substeps satisfy the CFL bound (config.substeps validated against
    it, error names the max stable dt).
    """
    held = _held_levels(grid, levels)
    if isinstance(spec, MarkovianDualSpec):
        return _solve_markovian(spec, grid, config, held)
    if isinstance(spec, DeterministicDualSpec):
        return _solve_deterministic(spec, grid, config, held)
    raise TypeError(f"unsupported dual spec {type(spec)!r}")


def _held_levels(grid: TimeGrid, levels) -> tuple:
    """Ascending tree levels a solve keeps: the requested ones plus n."""
    if levels is None:
        return tuple(range(grid.n + 1))
    held = {operator.index(lv) for lv in levels}
    bad = sorted(lv for lv in held if not 0 <= lv <= grid.n)
    if bad:
        raise ConfigError(f"levels {bad} outside the tree levels [0, {grid.n}]")
    return tuple(sorted(held | {grid.n}))


def _cfl_substeps(config: HJBConfig, grid: TimeGrid, rate: float) -> int:
    """rate = sum of stability rates 1/dt_max; returns validated substep count."""
    dt_max = 0.9 / rate if rate > 0 else np.inf
    if config.substeps is not None:
        if grid.dt / config.substeps > dt_max:
            raise ConfigError(
                f"substep dt = {grid.dt / config.substeps:.3e} violates CFL; "
                f"max stable dt = {dt_max:.3e}"
            )
        return config.substeps
    if not np.isfinite(dt_max):
        return 1
    return max(1, int(np.ceil(grid.dt / dt_max)))


def _solve_markovian(spec: MarkovianDualSpec, grid: TimeGrid, config: HJBConfig,
                     held: tuple) -> DualGrid:
    xs = _axis(config.x_bounds, config.dx)
    ys = _axis(config.y_bounds, config.dy)
    if len(xs) < 4 or len(ys) < 4:
        raise ConfigError("need at least 4 grid points per axis for edge stencils")
    dx, dy = config.dx, config.dy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    gx = np.asarray(spec.g(X))
    W = (Y - gx) ** 2
    zmax = max(abs(z) for z in config.z_values)
    # estimate sup|f| on the grid unless declared
    if spec.f_bound is not None:
        fmax = spec.f_bound
    else:
        fmax = 0.0
        for u in spec.control_values:
            for z in config.z_values:
                fmax = max(fmax, float(np.abs(
                    np.asarray(spec.f(grid.T, X, Y, z, u))).max()))
        fmax *= 1.5
    rate = 1.0 / dx ** 2 + zmax ** 2 / dy ** 2 + zmax / (dx * dy) + fmax / dy
    sub = _cfl_substeps(config, grid, rate)
    dts = grid.dt / sub

    times = grid.times()
    slot = {lv: i for i, lv in enumerate(held)}
    out = np.empty((len(held), len(xs), len(ys)))
    out[-1] = W
    t = grid.T
    for level in range(grid.n - 1, -1, -1):
        for _ in range(sub):
            Dxx = _one_sided_second(W, dx, 0)
            Dyy = _one_sided_second(W, dy, 1)
            Dxy = np.gradient(np.gradient(W, dy, axis=1, edge_order=2),
                              dx, axis=0, edge_order=2)
            bwd, fwd = _upwind_pair(W, dy, 1)
            best = None
            for z in config.z_values:
                zpart = 0.5 * z * z * Dyy + z * Dxy
                for u in spec.control_values:
                    fv = np.asarray(spec.f(t, X, Y, z, u))
                    adv = -fv * np.where(fv > 0, bwd, fwd)
                    cand = zpart + adv
                    best = cand if best is None else np.minimum(best, cand)
            W = np.maximum(W + dts * (0.5 * Dxx + best), 0.0)
            t -= dts
        if level in slot:
            out[slot[level]] = W
    return DualGrid(kind="markovian", times=times, axes=(xs, ys), levels=held,
                    W=out, config=config, substeps=sub)


def _solve_deterministic(spec: DeterministicDualSpec, grid: TimeGrid,
                         config: HJBConfig, held: tuple) -> DualGrid:
    y1 = _axis(config.y_bounds, config.dy)
    y2 = _axis(config.y_bounds, config.dy)
    dy = config.dy
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    pts = np.stack([Y1, Y2], axis=-1)
    t1, t2 = spec.target
    W = (Y1 - t1) ** 2 + (Y2 - t2) ** 2
    if spec.f_bound is not None:
        fmax = np.broadcast_to(np.asarray(spec.f_bound, dtype=float), (2,))
    else:
        fmax = np.zeros(2)
        for u in spec.control_values:
            fv = np.asarray(spec.f(grid.T, pts, u))
            fmax = np.maximum(fmax, np.abs(fv).reshape(-1, 2).max(axis=0))
        fmax = fmax * 1.2
    rate = fmax[0] / dy + fmax[1] / dy
    sub = _cfl_substeps(config, grid, rate)
    dts = grid.dt / sub

    times = grid.times()
    slot = {lv: i for i, lv in enumerate(held)}
    out = np.empty((len(held), len(y1), len(y2)))
    out[-1] = W
    t = grid.T
    for level in range(grid.n - 1, -1, -1):
        for _ in range(sub):
            b1, f1d = _upwind_pair(W, dy, 0)
            b2, f2d = _upwind_pair(W, dy, 1)
            best = None
            for u in spec.control_values:
                fv = np.asarray(spec.f(t, pts, u))
                adv = (-fv[..., 0] * np.where(fv[..., 0] > 0, b1, f1d)
                       - fv[..., 1] * np.where(fv[..., 1] > 0, b2, f2d))
                best = adv if best is None else np.minimum(best, adv)
            W = np.maximum(W + dts * best, 0.0)
            t -= dts
        if level in slot:
            out[slot[level]] = W
    return DualGrid(kind="deterministic", times=times, axes=(y1, y2),
                    levels=held, W=out, config=config, substeps=sub)


# ---------------------------------------------------------------------------
# nodal sets


@dataclass(frozen=True)
class NodalSet:
    level: int
    x_index: int | None   # markovian slice index; None for deterministic/tree kinds
    points: np.ndarray    # (m, dim) y points with W <= eps, sorted ascending
    eps: float
    cell: tuple           # grid cell sizes per dimension
    empty: bool


def extract_nodal_set(dual: DualGrid, level: int, x_index: int | None = None,
                      eps: float | None = None) -> NodalSet:
    """Grid points with W(level, ...) <= eps; empty sets are flagged, not errors."""
    if eps is None:
        eps = dual.config.eps if dual.config.eps is not None else dual.default_eps()
    if dual.kind == "markovian":
        if x_index is None:
            raise ValueError("markovian nodal sets need an x_index")
        row = dual.at(level)[x_index, :]
        ys = dual.axes[1]
        pts = ys[row <= eps][:, None]
        cell = (dual.config.dy,)
    else:
        mask = dual.at(level) <= eps
        ii, jj = np.nonzero(mask)
        pts = np.stack([dual.axes[0][ii], dual.axes[1][jj]], axis=-1)
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        pts = pts[order]
        cell = (dual.config.dy, dual.config.dy)
        x_index = None
    return NodalSet(level=level, x_index=x_index, points=pts, eps=float(eps),
                    cell=cell, empty=pts.shape[0] == 0)


@dataclass(frozen=True)
class DualStaticValue:
    value: float
    y_star: np.ndarray
    eps: float
    nearest_reachable_distance: float | None
    within_one_cell: bool | None


def dual_static_value(nodal: NodalSet, phi, reachable_points: np.ndarray | None = None) -> DualStaticValue:
    """max of phi over the nodal set; errors on empty sets advising a larger eps."""
    if nodal.empty:
        raise EmptyNodalSetError(
            f"nodal set empty at eps = {nodal.eps:.3e}; enlarge eps or refine the grid"
        )
    vals = np.asarray(phi(nodal.points)).reshape(-1)
    i = int(np.argmax(vals))
    y_star = nodal.points[i]
    dist = None
    within = None
    if reachable_points is not None and len(reachable_points):
        rp = np.asarray(reachable_points).reshape(len(reachable_points), -1)
        dist = float(np.linalg.norm(rp - y_star[None, :], axis=1).min())
        within = dist <= float(np.linalg.norm(nodal.cell)) * (1 + 1e-9) + 1e-12
    return DualStaticValue(value=float(vals[i]), y_star=y_star, eps=nodal.eps,
                           nearest_reachable_distance=dist, within_one_cell=within)


# ---------------------------------------------------------------------------
# exact tree-conditional dual value W-tilde

# Steered floats (starts x assignments x subtree nodes x d') per chunk of starts.
# At 64 KB per array the kernel's temporaries stay near 1 MB; larger chunks
# raise peak memory more than they save time.
_CHUNK_FLOATS = 1 << 13


def _as_z_matrices(z_values, dpr: int, d: int):
    mats = []
    for z in z_values:
        arr = np.asarray(z, dtype=float)
        if arr.ndim == 0:
            if dpr == 1 and d == 1:
                arr = arr.reshape(1, 1)
            else:
                arr = np.full((dpr, d), float(arr))
        mats.append(arr.reshape(dpr, d))
    return mats


def _chunks(count: int, floats_per_start: int):
    """Slices of the start axis, each holding at most _CHUNK_FLOATS steered floats."""
    step = max(1, _CHUNK_FLOATS // max(1, floats_per_start))
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _steering_table(tree: ScenarioTree, level: int, stop: int, zmats, U, cap: int):
    """Every grid assignment of (z, u) pairs to the subtree slots on [level, stop).

    Returns (table, levels): table (A, slots) holds one pair index per slot, one
    row per assignment in lexicographic order; levels holds, per level on
    [level, stop), the (z, u) arrays of shape (1, A, w, d', d) and (1, A, w).
    """
    nc = 2 ** tree.d
    widths = [nc ** (j - level) for j in range(level, stop)]
    slots = sum(widths)
    total = (len(zmats) * len(U)) ** slots
    if total > cap:
        raise EnumerationCapError(f"{total} steering assignments exceed cap {cap}")
    table = np.indices((len(zmats) * len(U),) * slots).reshape(slots, total).T
    zs = np.stack(zmats)[table // len(U)]
    us = np.asarray(U, dtype=float)[table % len(U)]
    levels, off = [], 0
    for w in widths:
        levels.append((zs[None, :, off:off + w], us[None, :, off:off + w]))
        off += w
    return table, levels


def _extra_steering(tree: ScenarioTree, level: int, nodes: np.ndarray,
                    extra_candidates, dpr: int):
    """Per-level (z, u) arrays, shape (s, E, w, d', d) and (s, E, w), that the E
    full-tree node-indexed (z_levels, u_levels) candidates take below each start."""
    nc = 2 ** tree.d
    levels = []
    for j in range(level, tree.n):
        w = nc ** (j - level)
        idx = nodes[:, None] * w + np.arange(w)
        levels.append((
            np.stack([np.asarray(zl[j], dtype=float).reshape(-1, dpr, tree.d)[idx]
                      for zl, _ in extra_candidates], axis=1),
            np.stack([np.asarray(ul[j], dtype=float)[idx]
                      for _, ul in extra_candidates], axis=1)))
    return levels


def _steer(problem: BSDEProblem, tree: ScenarioTree, times: np.ndarray, level: int,
           nodes: np.ndarray, ys: np.ndarray, count: int, levels, step_mode: str):
    """Forward X from X_level(nodes[s]) = ys[s] under each of count steerings.

    levels holds per level the (z, u) arrays of shape (1 or s, count, w, d', d)
    and (1 or s, count, w) over the w subtree nodes of each start. Returns X at
    level + len(levels), shape (s, count, w, d'), nodes ascending.
    """
    dt, dpr, nc = tree.dt, problem.value_dim, 2 ** tree.d
    s = len(nodes)
    X = np.broadcast_to(ys[:, None, None, :], (s, count, 1, dpr))
    for k, (z, u) in enumerate(levels):
        j, w = level + k, X.shape[2]
        shape = (s, count, w)
        rows = s * count * w
        zr = np.broadcast_to(z, shape + z.shape[3:]).reshape(rows, dpr, tree.d)
        ur = np.broadcast_to(u, shape).reshape(rows)
        idx = np.broadcast_to((nodes[:, None] * w + np.arange(w))[:, None, :], shape)
        b = tree.values[j][idx.reshape(rows)]
        x = X.reshape(rows, dpr)
        if step_mode == "euler":
            ctx = NodeContext(level=j, b=b, tree=tree)
            p = x - np.asarray(problem.f(times[j], ctx, x, zr, ur)) * dt
        else:
            # P + f(t_j, P, z, u) dt = x by fixed point; each row stops at its own
            # convergence, so it follows the same sequence as a one-row solve
            p = x.copy()
            live = np.arange(rows)
            for _ in range(60):
                ctx = NodeContext(level=j, b=b[live], tree=tree)
                fv = np.asarray(problem.f(times[j], ctx, p[live], zr[live], ur[live]))
                nxt = x[live] - fv * dt
                done = np.max(np.abs(nxt - p[live]), axis=-1) < 1e-15
                p[live] = nxt
                live = live[~done]
                if not live.size:
                    break
        dz = np.stack([z @ inc for inc in tree.increments], axis=-2)
        X = (p.reshape(shape + (1, dpr)) + dz).reshape(s, count, w * nc, dpr)
    return X


def dual_value_direct(problem: BSDEProblem, tree: ScenarioTree, level: int,
                      node, y, z_values, cap: int = 10 ** 6,
                      step_mode: str = "inverse", extra_candidates=()):
    """min over enumerated (z,u) node-assignments of E_node |X_T - xi|^2, X_level = y.

    The forward step inverts the backward Euler map (or takes an explicit Euler
    step with step_mode='euler') and diffuses with the chosen z. extra_candidates
    are (z_levels, u_levels) pairs of full-tree node-indexed arrays, evaluated in
    addition to the grid assignments (used to inject a BSDE solution's own
    steering). With an int node, returns (value, best-assignment-or-tag); with
    node an int array (S,) and y of shape (S, d'), returns (values (S,), tags).
    """
    if tree.mode != "path":
        raise ValueError("dual_value_direct walks per-node subtrees: path mode only")
    n, d, dpr = tree.n, tree.d, problem.value_dim
    table, grid = _steering_table(tree, level, n, _as_z_matrices(z_values, dpr, d),
                                  problem.control_values, cap)
    nodes = np.asarray(node, dtype=np.intp).reshape(-1)
    ys = np.asarray(y, dtype=float).reshape(len(nodes), dpr)
    extras = list(extra_candidates)
    count = len(table) + len(extras)
    width = (2 ** d) ** (n - level)
    times = tree.grid.times()
    values = np.empty(len(nodes))
    tags = []
    for sl in _chunks(len(nodes), count * width * dpr):
        leaves = (nodes[sl, None] * width + np.arange(width)).reshape(-1)
        ctx = NodeContext(level=n, b=tree.values[n][leaves], tree=tree)
        xi = np.asarray(problem.terminal(ctx), dtype=float).reshape(-1, 1, width, dpr)
        X = _steer(problem, tree, times, level, nodes[sl], ys[sl], len(table), grid,
                   step_mode)
        if extras:
            X = np.concatenate([X, _steer(
                problem, tree, times, level, nodes[sl], ys[sl], len(extras),
                _extra_steering(tree, level, nodes[sl], extras, dpr), step_mode)],
                axis=1)
        cost = np.mean(np.sum((X - xi) ** 2, axis=-1), axis=-1)
        # first index of the smallest cost; NaN never wins, all-inf keeps no tag
        cost[np.isnan(cost)] = np.inf
        best = np.argmin(cost, axis=1)
        values[sl] = cost[np.arange(len(best)), best]
        winners, which = np.unique(np.where(values[sl] < np.inf, best, -1),
                                   return_inverse=True)
        named = [None if a < 0 else tuple(table[a].tolist()) if a < len(table)
                 else ("extra", int(a) - len(table)) for a in winners]
        tags.extend(named[i] for i in which.tolist())
    if np.ndim(node) == 0:
        return float(values[0]), tags[0]
    return values, tags


@dataclass(frozen=True)
class ConditionalDualValue:
    level: int
    y_points: np.ndarray  # (p, d')
    values: np.ndarray    # (m_nodes, p)
    cell: tuple

    def nodal_points(self, node: int, eps: float) -> np.ndarray:
        return self.y_points[self.values[node] <= eps]


def conditional_dual_value(problem: BSDEProblem, tree: ScenarioTree, level: int,
                           y_points, z_values, cap: int = 10 ** 6,
                           step_mode: str = "inverse",
                           cell: tuple | None = None) -> ConditionalDualValue:
    """W-tilde(level, node, y) on the tree for each node and probe point y."""
    y_points = np.asarray(y_points, dtype=float)
    if y_points.ndim == 1:
        y_points = y_points[:, None]
    m = tree.node_count(level)
    vals, _ = dual_value_direct(problem, tree, level,
                                np.repeat(np.arange(m), len(y_points)),
                                np.tile(y_points, (m, 1)), z_values, cap=cap,
                                step_mode=step_mode)
    vals = vals.reshape(m, len(y_points))
    if cell is None:
        diffs = np.diff(np.sort(np.unique(y_points[:, 0])))
        c = float(diffs.min()) if len(diffs) else 1.0
        cell = (c,) * y_points.shape[1]
    return ConditionalDualValue(level=level, y_points=y_points, values=vals, cell=cell)


def check_w_regularity(points: np.ndarray, values: np.ndarray,
                       max_pairs: int = 200_000, seed: int = 0):
    """Fitted C-hat in |W(y) - W(y')| <= C (1 + |y| + |y'|) |y - y'| over point pairs."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    vals = np.asarray(values, dtype=float).reshape(-1)
    m = len(pts)
    if m * (m - 1) // 2 <= max_pairs:
        ii, jj = np.triu_indices(m, k=1)
    else:
        rng = np.random.default_rng(np.random.Philox(seed))
        ii = rng.integers(0, m, size=max_pairs)
        jj = rng.integers(0, m, size=max_pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
    dv = np.abs(vals[ii] - vals[jj])
    dist = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    weight = 1.0 + np.linalg.norm(pts[ii], axis=1) + np.linalg.norm(pts[jj], axis=1)
    mask = dist > 1e-12
    ratios = dv[mask] / (weight[mask] * dist[mask])
    return float(ratios.max()) if ratios.size else 0.0, int(mask.sum())


# ---------------------------------------------------------------------------
# geometric DPP


@dataclass(frozen=True)
class GeometricDppReport:
    level_from: int
    level_to: int
    eps: float
    rho_into: float      # worst steer-min over the eps-nodal set at level_from
    rho_back: float      # worst W at level_from over points steerable into the eps-set
    nodal_count: int
    steerable_count: int
    inclusions_hold: bool


def check_geometric_dpp(problem: BSDEProblem, tree: ScenarioTree, k1: int, k2: int,
                        eps: float, y_points, z_values, cap: int = 10 ** 6,
                        step_mode: str = "inverse") -> GeometricDppReport:
    """Empirical two-sided nodal-set inclusion between levels k1 < k2.

    For y in the eps-nodal set at k1: the best steering keeps all k2-successors'
    W-tilde below rho_into. Conversely every probe y steerable so that all
    successors' W-tilde <= eps has W-tilde(k1, y) <= rho_back. Both slacks are
    reported; the inclusions hold when both slacks are finite and both the nodal
    and the steerable set are nonempty (empirically the slacks shrink under
    refinement).
    """
    if not 0 <= k1 < k2 <= tree.n:
        raise ValueError(f"need 0 <= k1 < k2 <= n, got {k1}, {k2}")
    d, dpr = tree.d, problem.value_dim
    y_points = np.asarray(y_points, dtype=float)
    if y_points.ndim == 1:
        y_points = y_points[:, None]
    wt1 = conditional_dual_value(problem, tree, k1, y_points, z_values,
                                 cap=cap, step_mode=step_mode)
    table, segment = _steering_table(tree, k1, k2, _as_z_matrices(z_values, dpr, d),
                                     problem.control_values, cap)
    m, npts = wt1.values.shape
    nodes = np.repeat(np.arange(m), npts)
    ys = np.tile(y_points, (m, 1)).reshape(len(nodes), dpr)
    width = (2 ** d) ** (k2 - k1)
    times = tree.grid.times()
    # steer_min: min over segment assignments of the max successor W-tilde at k2
    steer_min = np.empty(len(nodes))
    for sl in _chunks(len(nodes), len(table) * width * dpr):
        xs = _steer(problem, tree, times, k1, nodes[sl], ys[sl], len(table), segment,
                    step_mode)
        succ = np.broadcast_to((nodes[sl, None] * width + np.arange(width))[:, None],
                               xs.shape[:3])
        w2, _ = dual_value_direct(problem, tree, k2, succ.reshape(-1),
                                  xs.reshape(-1, dpr), z_values, cap=cap,
                                  step_mode=step_mode)
        worst = np.fmax.reduce(w2.reshape(xs.shape[:3]), axis=2, initial=0.0)
        steer_min[sl] = np.fmin.reduce(worst, axis=1, initial=np.inf)

    w1 = wt1.values.reshape(-1)
    nodal = w1 <= eps
    steerable = steer_min <= eps
    rho_into = np.fmax.reduce(steer_min[nodal], initial=0.0)
    rho_back = np.fmax.reduce(w1[steerable], initial=0.0)
    nodal_count = int(np.count_nonzero(nodal))
    steer_count = int(np.count_nonzero(steerable))
    return GeometricDppReport(
        level_from=k1, level_to=k2, eps=float(eps), rho_into=float(rho_into),
        rho_back=float(rho_back), nodal_count=nodal_count,
        steerable_count=steer_count,
        inclusions_hold=bool(np.isfinite(rho_into) and np.isfinite(rho_back)
                             and nodal_count > 0 and steer_count > 0),
    )


# ---------------------------------------------------------------------------
# CSV export (12 significant digits, comma-separated, LF)


def _fmt(v: float) -> str:
    return f"{v:.11e}"


def export_dual_grid_csv(dual: DualGrid, path: str, levels=None) -> None:
    """One (t, axis 0, axis 1, W) row per grid point of each level in `levels`
    (None: every held level); a level the solve did not keep raises first."""
    names = ("t", "x", "y", "W") if dual.kind == "markovian" else ("t", "y1", "y2", "W")
    levels = dual.levels if levels is None else levels
    slices = [(dual.times[lv], dual.at(lv)) for lv in levels]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for t, W in slices:
            for i, a in enumerate(dual.axes[0]):
                for j, b in enumerate(dual.axes[1]):
                    fh.write(",".join(map(_fmt, (t, a, b, W[i, j]))) + "\n")


def export_nodal_set_csv(nodal: NodalSet, times: np.ndarray, path: str,
                         x_value: float | None = None) -> None:
    dim = nodal.points.shape[1] if nodal.points.size else len(nodal.cell)
    if dim == 1:
        names = ("t", "x", "y") if x_value is not None else ("t", "y")
    else:
        names = ("t", "y1", "y2")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        t = times[nodal.level]
        for row in nodal.points:
            vals = (t,) + ((x_value,) if x_value is not None and dim == 1 else ())
            fh.write(",".join(map(_fmt, vals + tuple(row))) + "\n")
