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
"""
from __future__ import annotations

import itertools
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
    boundary: str = "one-sided"

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
    times: np.ndarray  # tree-level times, increasing
    axes: tuple        # markovian: (xs, ys); deterministic: (y1s, y2s)
    W: np.ndarray      # (len(times), len(axes[0]), len(axes[1]))
    config: HJBConfig
    substeps: int

    def default_eps(self) -> float:
        """10x the terminal-slice interpolation error estimate (max 2nd diff / 8)."""
        terminal = self.W[-1]
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
    fwd = np.empty_like(W)
    bwd = np.empty_like(W)
    fwd[:-1] = (W[1:] - W[:-1]) / h
    fwd[-1] = fwd[-2]
    bwd[1:] = (W[1:] - W[:-1]) / h
    bwd[0] = bwd[1]
    return np.moveaxis(bwd, 0, axis), np.moveaxis(fwd, 0, axis)


def solve_dual_hjb(spec, grid: TimeGrid, config: HJBConfig) -> DualGrid:
    """Backward explicit finite-difference solve of the dual HJB on [0, T].

    Stores one slice per tree level; internal substeps satisfy the CFL bound
    (config.substeps validated against it, error names the max stable dt).
    """
    if isinstance(spec, MarkovianDualSpec):
        return _solve_markovian(spec, grid, config)
    if isinstance(spec, DeterministicDualSpec):
        return _solve_deterministic(spec, grid, config)
    raise TypeError(f"unsupported dual spec {type(spec)!r}")


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


def _solve_markovian(spec: MarkovianDualSpec, grid: TimeGrid, config: HJBConfig) -> DualGrid:
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
    out = np.empty((grid.n + 1, len(xs), len(ys)))
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
                    fv = np.asarray(spec.f(t, X, Y, z, u)) * np.ones_like(W)
                    adv = -fv * np.where(fv > 0, bwd, fwd)
                    cand = zpart + adv
                    best = cand if best is None else np.minimum(best, cand)
            W = np.maximum(W + dts * (0.5 * Dxx + best), 0.0)
            t -= dts
        out[level] = W
    return DualGrid(kind="markovian", times=times, axes=(xs, ys), W=out,
                    config=config, substeps=sub)


def _solve_deterministic(spec: DeterministicDualSpec, grid: TimeGrid,
                         config: HJBConfig) -> DualGrid:
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
    out = np.empty((grid.n + 1, len(y1), len(y2)))
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
        out[level] = W
    return DualGrid(kind="deterministic", times=times, axes=(y1, y2), W=out,
                    config=config, substeps=sub)


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
        row = dual.W[level, x_index, :]
        ys = dual.axes[1]
        pts = ys[row <= eps][:, None]
        cell = (dual.config.dy,)
    else:
        mask = dual.W[level] <= eps
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


def _invert_backward_step(problem: BSDEProblem, tree: ScenarioTree, j: int, t: float,
                          node: int, x: np.ndarray, z: np.ndarray, u: float,
                          mode: str) -> np.ndarray:
    """P with P + f(t_j, node, P, z, u) dt = x (inverse) or explicit Euler P."""
    dt = tree.dt
    ctx = NodeContext(level=j, b=tree.values[j][node:node + 1], tree=tree)
    uarr = np.full(1, u)
    if mode == "euler":
        fv = np.asarray(problem.f(t, ctx, x[None, :], z[None], uarr))[0]
        return x - fv * dt
    p = x.copy()
    for _ in range(60):
        fv = np.asarray(problem.f(t, ctx, p[None, :], z[None], uarr))[0]
        nxt = x - fv * dt
        if np.max(np.abs(nxt - p)) < 1e-15:
            return nxt
        p = nxt
    return p


def _steerings(tree: ScenarioTree, level: int, node: int, stop: int, zmats, U,
               cap: int):
    """Lazy (assignment, {(j, i): (z, u)}) over the subtree of (level, node) on
    [level, stop): slots level-major then node-ascending, each slot taking one of
    the (z, u) pairs, z-major; assignments in lexicographic order, cap-checked first.
    """
    slots = [(j, i) for j in range(level, stop)
             for i in tree.descendants(level, node, j)]
    pairs = list(itertools.product(zmats, U))
    total = len(pairs) ** len(slots)
    if total > cap:
        raise EnumerationCapError(f"{total} steering assignments exceed cap {cap}")
    return ((a, dict(zip(slots, (pairs[p] for p in a))))
            for a in itertools.product(range(len(pairs)), repeat=len(slots)))


def _steer(problem: BSDEProblem, tree: ScenarioTree, times: np.ndarray, level: int,
           node: int, y: np.ndarray, stop: int, zu, step_mode: str) -> dict:
    """Forward X from X_level(node) = y to level stop under zu[(j, i)] = (z, u).

    Returns {node index at stop: X}, in ascending node order.
    """
    nc = 2 ** tree.d
    xs = {node: y}
    for j in range(level, stop):
        nxt = {}
        for i_abs, xval in xs.items():
            z, u = zu[(j, i_abs)]
            p = _invert_backward_step(problem, tree, j, times[j], i_abs, xval, z, u,
                                      step_mode)
            for c in range(nc):
                nxt[i_abs * nc + c] = p + z @ tree.increments[c]
        xs = nxt
    return xs


def dual_value_direct(problem: BSDEProblem, tree: ScenarioTree, level: int,
                      node: int, y, z_values, cap: int = 10 ** 6,
                      step_mode: str = "inverse", extra_candidates=()):
    """min over enumerated (z,u) node-assignments of E_node |X_T - xi|^2, X_level = y.

    The forward step inverts the backward Euler map (or takes an explicit Euler
    step with step_mode='euler') and diffuses with the chosen z. extra_candidates
    are (z_levels, u_levels) pairs of full-tree node-indexed arrays, evaluated in
    addition to the grid assignments (used to inject a BSDE solution's own
    steering). Returns (value, best-assignment-or-tag).
    """
    if tree.mode != "path":
        raise ValueError("dual_value_direct walks per-node subtrees: path mode only")
    n, d, dpr = tree.n, tree.d, problem.value_dim
    zmats = _as_z_matrices(z_values, dpr, d)
    y = np.asarray(y, dtype=float).reshape(dpr)
    steerings = _steerings(tree, level, node, n, zmats, problem.control_values, cap)
    leaf_nodes = tree.descendants(level, node, n)
    leaf_ctx = NodeContext(level=n, b=tree.values[n][leaf_nodes], tree=tree)
    xi = np.asarray(problem.terminal(leaf_ctx), dtype=float).reshape(-1, dpr)
    times = tree.grid.times()

    def cost(zu):
        xs = _steer(problem, tree, times, level, node, y, n, zu, step_mode)
        leaves = np.stack([xs[i] for i in leaf_nodes])
        return float(np.mean(np.sum((leaves - xi) ** 2, axis=1)))

    best = np.inf
    best_tag = None
    for assignment, zu in steerings:
        val = cost(zu)
        if val < best:
            best = val
            best_tag = assignment
    for idx, (z_levels, u_levels) in enumerate(extra_candidates):
        val = cost({(j, i): (np.asarray(z_levels[j][i], dtype=float).reshape(dpr, d),
                             float(u_levels[j][i]))
                    for j in range(level, n) for i in tree.descendants(level, node, j)})
        if val < best:
            best = val
            best_tag = ("extra", idx)
    return best, best_tag


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
    vals = np.empty((m, len(y_points)))
    for i in range(m):
        for p, y in enumerate(y_points):
            vals[i, p], _ = dual_value_direct(
                problem, tree, level, i, y, z_values, cap=cap, step_mode=step_mode)
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
    reported; the inclusions hold when the slacks are finite (empirically they
    shrink under refinement).
    """
    if not 0 <= k1 < k2 <= tree.n:
        raise ValueError(f"need 0 <= k1 < k2 <= n, got {k1}, {k2}")
    d, dpr = tree.d, problem.value_dim
    y_points = np.asarray(y_points, dtype=float)
    if y_points.ndim == 1:
        y_points = y_points[:, None]
    wt1 = conditional_dual_value(problem, tree, k1, y_points, z_values,
                                 cap=cap, step_mode=step_mode)
    zmats = _as_z_matrices(z_values, dpr, d)
    times = tree.grid.times()

    def steer_min(node: int, y: np.ndarray) -> float:
        """min over segment assignments of max successor W-tilde at k2."""
        y = np.asarray(y, dtype=float).reshape(dpr)
        best = np.inf
        for _, zu in _steerings(tree, k1, node, k2, zmats, problem.control_values, cap):
            xs = _steer(problem, tree, times, k1, node, y, k2, zu, step_mode)
            worst = 0.0
            for i_abs, xval in xs.items():
                w, _ = dual_value_direct(problem, tree, k2, i_abs, xval,
                                         z_values, cap=cap, step_mode=step_mode)
                worst = max(worst, w)
                if worst >= best:
                    break
            best = min(best, worst)
        return best

    rho_into = 0.0
    rho_back = 0.0
    nodal_count = 0
    steer_count = 0
    for node in range(tree.node_count(k1)):
        for p, y in enumerate(y_points):
            sm = steer_min(node, y)
            w1 = wt1.values[node, p]
            if w1 <= eps:
                nodal_count += 1
                rho_into = max(rho_into, sm)
            if sm <= eps:
                steer_count += 1
                rho_back = max(rho_back, w1)
    return GeometricDppReport(
        level_from=k1, level_to=k2, eps=float(eps), rho_into=float(rho_into),
        rho_back=float(rho_back), nodal_count=nodal_count,
        steerable_count=steer_count,
        inclusions_hold=np.isfinite(rho_into) and np.isfinite(rho_back),
    )


# ---------------------------------------------------------------------------
# CSV export (12 significant digits, comma-separated, LF)


def _fmt(v: float) -> str:
    return f"{v:.11e}"


def export_dual_grid_csv(dual: DualGrid, path: str, levels=None) -> None:
    names = ("t", "x", "y", "W") if dual.kind == "markovian" else ("t", "y1", "y2", "W")
    levels = range(len(dual.times)) if levels is None else levels
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for lv in levels:
            t = dual.times[lv]
            for i, a in enumerate(dual.axes[0]):
                for j, b in enumerate(dual.axes[1]):
                    fh.write(",".join(map(_fmt, (t, a, b, dual.W[lv, i, j]))) + "\n")


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
