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
Every spec declares f_bound, a bound on sup|f| over the grid at every
tree-level time; the CFL rate takes it as-is, and solve_dual_hjb checks only
that it is finite and nonnegative. A solve keeps W at two tree levels only: 0,
whose nodal set gives the static value, and the terminal level n. Its
substeps alternate between level 0's slice and one spare buffer.

Row blocks. Each substep splits the grid's first axis into row blocks of at
most _BLOCK_FLOATS grid floats, each read with a one-row halo, and the blocks
into one contiguous band per thread, one thread per core this process may use
(inline for one block or one core). A band runs its blocks in order in one
scratch set sized for its tallest block, so scratch grows with cores, not
blocks. Each block writes only its own rows of the next W buffer, so W is
identical, bit for bit, for any block or worker count. f is called on one
block's rows at a time, possibly from several worker threads at once, and g
sees the x axis as one column; so f and g must act point by point, and f must
be thread-safe. Each band holds its block's points in its scratch, and no
solve builds the whole grid's. Deterministic points arrive component-first: y
has shape (rows, cols, 2), but each y[..., k] plane is contiguous, so an f that
allocates its output with np.empty_like(y) returns contiguous components and
the step reads them without copies. An f of any other layout (an
np.stack(..., axis=-1), say) gives the same W, only slower.

W-tilde (the tree-conditional dual value) is computed exactly on the tree by
enumerating steering candidates. Each one runs the forward process
X = y - int f(X, Z, u) ds + int Z dB by its explicit Euler step toward the
terminal xi.

Steering contract. Every steering walk in the module (dual_value_direct,
conditional_dual_value, check_geometric_dpp) runs through one kernel, which fixes:

  * slots: one per path-mode descendant of the start node on [level, stop),
    level-major then node-ascending;
  * order: each slot takes one (z, u) pair, pairs z-major over z-grid x
    control_values; assignments run lexicographically;
  * control class: under the problem's deterministic_controls the slots of a
    level share one control while each keeps its own z, so the assignments are
    the adapted ones with one u per level, in the same order and with the same
    tags (|z-grid|^slots x |U|^levels of them);
  * tie-break: a min keeps strict improvements only, so the first assignment
    wins exact ties, a NaN cost never wins, and a start whose every cost is inf
    or NaN keeps tag None;
  * cap: more than bsde.ENUMERATION_CAP assignments raise EnumerationCapError
    before any problem.f call;
  * step: explicit Euler p = x - f(t_j, x, z, u) dt, then child c adds
    z @ increment[c];
  * batches: dual_value_direct takes nodes (S,) and ys (S, d') and returns
    values (S,) and S tags. The kernel steps arrays of shape (starts, assignments,
    subtree nodes, d') one level at a time with one problem.f call per level,
    ctx.b gathered by absolute node index, so f and terminal must act row by
    row;
  * chunks: starts run in chunks of at most _CHUNK_FLOATS steered floats
    (starts x assignments x subtree nodes at the stop level x d'); a single
    start larger than that runs alone.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from treebsde.artifacts import write_csv
from treebsde.lattice import ScenarioTree, TimeGrid
from treebsde.bsde import _CHUNK_FLOATS, BSDEProblem, NodeContext, _check_cap


class ConfigError(ValueError):
    """Invalid HJB configuration (grids, CFL, z-grid)."""


class EmptyNodalSetError(ValueError):
    """Nodal set empty at the requested tolerance."""


@dataclass(frozen=True)
class HJBConfig:
    """Grids and tolerances for the finite-difference dual solve.

    y_bounds/dy apply to both y axes in the deterministic (2-d) shape. The
    substep count is not configurable: the CFL rate fixes it per solve.
    """

    x_bounds: tuple = (-2.0, 2.0)
    dx: float = 0.05
    y_bounds: tuple = (-2.0, 2.0)
    dy: float = 0.05
    z_values: tuple = (0.0,)

    def __post_init__(self):
        if not np.all(np.isfinite((self.dx, self.dy, *self.x_bounds, *self.y_bounds,
                                   *self.z_values))):
            raise ConfigError("grid spacings, bounds and z-values must be finite")
        if self.dx <= 0 or self.dy <= 0:
            raise ConfigError("grid spacings must be positive")
        if not any(abs(z) < 1e-15 for z in self.z_values):
            raise ConfigError("z-grid must contain 0")


@dataclass(frozen=True)
class MarkovianDualSpec:
    """f(t,x,y,z,u) scalar-vectorized; terminal target g(x); finite control set;
    f_bound bounds sup|f| on the grid at every tree-level time, for the CFL rate."""

    f: object
    g: object
    control_values: tuple
    f_bound: float


@dataclass(frozen=True)
class DeterministicDualSpec:
    """f(t,y,u) -> (..., 2) vectorized; terminal target point in R^2.

    y arrives component-first (each y[..., k] contiguous); an f that allocates
    with np.empty_like(y) keeps that layout, which the solve reads fastest, and
    any other layout stays correct.

    f_bound bounds sup|f| on the grid at every tree-level time, as a scalar or
    a per-component pair. The CFL rate uses it as-is (no safety margin), so
    substep counts are reproducible, and nothing checks it against f.
    """

    f: object
    target: tuple
    control_values: tuple
    f_bound: object


@dataclass(frozen=True)
class DualGrid:
    kind: str          # "markovian" | "deterministic"
    times: np.ndarray  # every tree-level time, increasing
    axes: tuple        # markovian: (xs, ys); deterministic: (y1s, y2s)
    W: np.ndarray      # (2, len(axes[0]), len(axes[1])): W at levels 0 and n
    substeps: int

    @property
    def levels(self) -> tuple:
        """The tree levels held in W: 0 and n."""
        return (0, len(self.times) - 1)

    def at(self, level: int) -> np.ndarray:
        """The W slice of tree level 0 or n; ValueError for any other level."""
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


def _second_rows(W, r0: int, r1: int, h: float, out) -> None:
    """Rows [r0, r1) of the second difference of W along axis 0 into out: the
    central difference inside, second-order one-sided rows at W's first and
    last row. Pass transposes for axis 1."""
    i0, i1 = max(r0, 1), min(r1, len(W) - 1)
    mid = out[i0 - r0:i1 - r0]
    np.multiply(W[i0:i1], 2, out=mid)
    np.subtract(W[i0 + 1:i1 + 1], mid, out=mid)
    np.add(mid, W[i0 - 1:i1 - 1], out=mid)
    np.divide(mid, h * h, out=mid)
    if r0 == 0:
        out[0] = (2 * W[0] - 5 * W[1] + 4 * W[2] - W[3]) / (h * h)
    if r1 == len(W):
        out[-1] = (2 * W[-1] - 5 * W[-2] + 4 * W[-3] - W[-4]) / (h * h)


def _gradient_rows(f, r0: int, r1: int, h: float, out) -> None:
    """Rows [r0, r1) of np.gradient(f, h, axis=0, edge_order=2) into out, in
    numpy's expressions for uniform spacing, so the bits are its. Pass
    transposes for axis 1."""
    i0, i1 = max(r0, 1), min(r1, len(f) - 1)
    mid = out[i0 - r0:i1 - r0]
    np.subtract(f[i0 + 1:i1 + 1], f[i0 - 1:i1 - 1], out=mid)
    np.divide(mid, 2. * h, out=mid)
    if r0 == 0:
        a, b, c = -1.5 / h, 2. / h, -0.5 / h
        out[0] = a * f[0] + b * f[1] + c * f[2]
    if r1 == len(f):
        a, b, c = 0.5 / h, -2. / h, 1.5 / h
        out[-1] = a * f[-3] + b * f[-2] + c * f[-1]


# Grid floats per row block of an explicit HJB substep; a grid of at most this
# many floats runs as one block, inline. The 501 x 501 transport grid runs as 4
# blocks, two per band on a 2-core host. There, with one scratch set per block,
# its 256-level solve took 11-12 s at 2^13 floats (32 blocks), 7.1 s at 2^14,
# 5.1 s at 2^15, 4.5 s at 2^16, 4.6-5.0 s at 2^17 and 7.7-8.2 s at 2^18 (one
# block, one thread): small blocks lose more to handing the interpreter lock
# between threads than they gain. With one scratch set per band, which holds
# the band's points too, the solve alone in a fresh process peaks at 41 MB RSS
# at 2^15, 46 MB at 2^16 and 55 MB at 2^17.
_BLOCK_FLOATS = 1 << 16


def _padded_diff(W, r0: int, r1: int, h: float, out) -> None:
    """Edge-padded first differences along axis 0 for the rows [r0, r1) of W.

    out[j] gets (W[k] - W[k-1]) / h with k = r0 + j clipped to [1, len(W) - 1],
    so out[:-1] is the backward and out[1:] the forward difference of each row;
    rows r0 - 1 and r1 of W are the halo.
    """
    k0, k1 = max(r0, 1), min(r1, len(W) - 1)
    d = out[k0 - r0:k1 - r0 + 1]
    np.subtract(W[k0:k1 + 1], W[k0 - 1:k1], out=d)
    np.divide(d, h, out=d)
    if r0 == 0:
        out[0] = out[1]
    if r1 == len(W):
        out[-1] = out[-2]


def _col_diff(Wb, h, out) -> None:
    """Edge-padded first differences along axis 1 of Wb, into out of shape
    (rows, cols + 1): out[:, :-1] is the backward and out[:, 1:] the forward
    difference of each column, the same floats as _padded_diff on Wb.T."""
    inner = out[:, 1:-1]
    np.subtract(Wb[:, 1:], Wb[:, :-1], out=inner)
    np.divide(inner, h, out=inner)
    out[:, 0] = out[:, 1]
    out[:, -1] = out[:, -2]


def _upwind(f, bwd, fwd, up, out):
    """np.where(f > 0, bwd, fwd) written into out, with up as the mask buffer."""
    np.greater(f, 0, out=up)
    np.copyto(out, fwd)
    np.copyto(out, bwd, where=up)
    return out


def _check_axes(axes, need: int, stencil: str) -> int:
    """ConfigError unless every axis has `need` points; returns the least block
    height, need - 1 rows, which a one-row halo tops up to the stencil."""
    lengths = tuple(len(ax) for ax in axes)
    if min(lengths) < need:
        raise ConfigError(f"need at least {need} grid points per axis for {stencil}; "
                          f"axis lengths {lengths}")
    return need - 1


def _row_blocks(rows: int, cols: int, min_rows: int) -> list:
    """(start, stop) ranges of near-equal height that split the first grid axis;
    each holds at most _BLOCK_FLOATS grid floats, unless min_rows needs more."""
    height = max(min_rows, _BLOCK_FLOATS // cols)
    count = min(-(-rows // height), rows // min_rows)
    cuts = [rows * i // count for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _worker_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep(grid: TimeGrid, out, sub: int, min_rows: int, make_step) -> None:
    """Roll W from level n, held in out[1], back to level 0 in `sub` substeps
    per level, ending in out[0].

    make_step(rows) returns a step (W, nxt, t, r0, r1) that writes rows
    [r0, r1) of nxt from W, with one scratch set for blocks of up to `rows`
    rows. The row blocks fall into one contiguous band per worker, each band
    running its blocks in order on one step; the bands of a substep run on a
    thread pool (inline for one band), and the next substep waits for all.
    The substeps alternate between out[0] and one spare buffer, so that the
    last one writes out[0].
    """
    blocks = _row_blocks(*out.shape[1:], min_rows)
    workers = min(_worker_count(), len(blocks))
    bands = [blocks[len(blocks) * i // workers:len(blocks) * (i + 1) // workers]
             for i in range(workers)]
    jobs = [(make_step(max(r1 - r0 for r0, r1 in band)), band) for band in bands]
    buffers = (out[0], np.empty(out.shape[1:]))
    dts = grid.dt / sub

    def run(job, W, nxt, t):
        step, band = job
        for r0, r1 in band:
            step(W, nxt, t, r0, r1)

    pool = None
    if workers > 1:
        # imported here: the import takes ~7 ms, which every process that
        # imports treebsde would pay
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    try:
        W, t = out[1], grid.T
        # left counts the substeps after this one
        for left in range(grid.n * sub - 1, -1, -1):
            nxt = buffers[left % 2]
            if pool is None:
                for job in jobs:
                    run(job, W, nxt, t)
            else:
                for _ in pool.map(lambda job: run(job, W, nxt, t), jobs):
                    pass
            W = nxt
            t -= dts
    finally:
        if pool is not None:
            pool.shutdown()


def solve_dual_hjb(spec, grid: TimeGrid, config: HJBConfig) -> DualGrid:
    """Backward explicit finite-difference solve of the dual HJB on [0, T].

    The sweep rolls W from T down to 0 and keeps W at level 0, whose nodal
    set gives the static value, and at the terminal level n, which
    default_eps reads. Each level runs the fewest substeps that satisfy the
    CFL bound of the spec's declared f_bound; ConfigError names f_bound when
    it, or one of its components, is NaN, infinite or negative.
    """
    if isinstance(spec, MarkovianDualSpec):
        return _solve_markovian(spec, grid, config)
    if isinstance(spec, DeterministicDualSpec):
        return _solve_deterministic(spec, grid, config)
    raise TypeError(f"unsupported dual spec {type(spec)!r}")


def _declared_bound(spec, shape):
    """spec.f_bound broadcast to shape; ConfigError unless every entry is
    finite and nonnegative."""
    fmax = np.broadcast_to(np.asarray(spec.f_bound, dtype=float), shape)
    if not np.all(np.isfinite(fmax) & (fmax >= 0)):
        raise ConfigError(f"f_bound must be finite and nonnegative, "
                          f"got {spec.f_bound!r}")
    return fmax


def _cfl_substeps(grid: TimeGrid, rate: float) -> int:
    """rate = sum of stability rates 1/dt_max, finite and nonnegative;
    returns the substep count."""
    if rate == 0:
        return 1
    return max(1, int(np.ceil(grid.dt / (0.9 / rate))))


def _solve_markovian(spec: MarkovianDualSpec, grid: TimeGrid,
                     config: HJBConfig) -> DualGrid:
    xs = _axis(config.x_bounds, config.dx)
    ys = _axis(config.y_bounds, config.dy)
    min_rows = _check_axes((xs, ys), 4, "edge stencils")
    dx, dy = config.dx, config.dy
    fmax = float(_declared_bound(spec, ()))
    out = np.empty((2, len(xs), len(ys)))
    out[1] = (ys - np.asarray(spec.g(xs[:, None]))) ** 2
    zmax = max(abs(z) for z in config.z_values)
    rate = 1.0 / dx ** 2 + zmax ** 2 / dy ** 2 + zmax / (dx * dy) + fmax / dy
    sub = _cfl_substeps(grid, rate)
    dts = grid.dt / sub

    def make_step(rows):
        cols = len(ys)
        # Xb, Yb, Dxx, ... below; every row of Yb is ys, Xb's rows are
        # written per block
        planes = [np.empty((rows, cols)) for _ in range(9)]
        planes[1][:] = ys
        d_rows, Dy_rows = np.empty((rows, cols + 1)), np.empty((rows + 2, cols))
        up_rows = np.empty((rows, cols), dtype=bool)

        def step(W, nxt, t, r0, r1):
            lo, hi = max(r0 - 1, 0), min(r1 + 1, len(xs))
            own = (r0 - lo, r1 - lo)
            Xb, Yb, Dxx, Dyy, Dxy, zpart, sel, cand, best = (
                a[:r1 - r0] for a in planes)
            Xb[:] = xs[r0:r1, None]
            d, Dy, up = d_rows[:r1 - r0], Dy_rows[:hi - lo], up_rows[:r1 - r0]
            bwd, fwd = d[:, :-1], d[:, 1:]
            # the x stencils read the halo slab, whose edge rows are either the
            # grid's own edges or halo rows, so only the grid's edges take the
            # one-sided rows
            slab = W[lo:hi]
            Wb = W[r0:r1]
            _second_rows(slab, *own, dx, Dxx)
            _second_rows(Wb.T, 0, cols, dy, Dyy.T)
            _gradient_rows(slab.T, 0, cols, dy, Dy.T)
            _gradient_rows(Dy, *own, dx, Dxy)
            _col_diff(Wb, dy, d)
            first = True
            for z in config.z_values:
                # zpart = 0.5 * z * z * Dyy + z * Dxy; cand is free until the
                # second control
                np.multiply(Dyy, 0.5 * z * z, out=zpart)
                np.multiply(Dxy, z, out=cand)
                np.add(zpart, cand, out=zpart)
                for u in spec.control_values:
                    fv = np.asarray(spec.f(t, Xb, Yb, z, u))
                    # zpart - f * sel is zpart + (-f) * sel, bit for bit
                    np.multiply(fv, _upwind(fv, bwd, fwd, up, sel), out=sel)
                    if first:
                        np.subtract(zpart, sel, out=best)
                        first = False
                    else:
                        np.subtract(zpart, sel, out=cand)
                        np.minimum(best, cand, out=best)
            # max(Wb + dts * (0.5 * Dxx + best), 0), in Dxx
            np.multiply(Dxx, 0.5, out=Dxx)
            np.add(Dxx, best, out=Dxx)
            np.multiply(Dxx, dts, out=Dxx)
            np.add(Wb, Dxx, out=Dxx)
            np.maximum(Dxx, 0.0, out=nxt[r0:r1])
        return step

    _sweep(grid, out, sub, min_rows, make_step)
    return DualGrid(kind="markovian", times=grid.times(), axes=(xs, ys), W=out,
                    substeps=sub)


def _solve_deterministic(spec: DeterministicDualSpec, grid: TimeGrid,
                         config: HJBConfig) -> DualGrid:
    y1 = _axis(config.y_bounds, config.dy)
    y2 = _axis(config.y_bounds, config.dy)
    min_rows = _check_axes((y1, y2), 2, "the upwind stencil")
    dy = config.dy
    fmax = _declared_bound(spec, (2,))
    t1, t2 = spec.target
    out = np.empty((2, len(y1), len(y2)))
    out[1] = (y1[:, None] - t1) ** 2 + (y2[None, :] - t2) ** 2
    rate = fmax[0] / dy + fmax[1] / dy
    sub = _cfl_substeps(grid, rate)
    dts = grid.dt / sub

    def make_step(rows):
        cols = len(y2)
        # component-first points: every row of the y2 plane is y2, the y1
        # plane's rows are written per block
        pts_rows = np.empty((2, rows, cols))
        pts_rows[1] = y2
        d0_rows, d1_rows = np.empty((rows + 1, cols)), np.empty((rows, cols + 1))
        planes = [np.empty((rows, cols)) for _ in range(3)]
        up_rows = np.empty((rows, cols), dtype=bool)

        def step(W, nxt, t, r0, r1):
            pb = pts_rows[:, :r1 - r0]
            pb[0] = y1[r0:r1, None]
            P = np.moveaxis(pb, 0, -1)
            d0, d1 = d0_rows[:r1 - r0 + 1], d1_rows[:r1 - r0]
            b0, f0d, b1, f1d = d0[:-1], d0[1:], d1[:, :-1], d1[:, 1:]
            sel, p, best = (a[:r1 - r0] for a in planes)
            up = up_rows[:r1 - r0]
            # W = max(W - dts * max_u [f0 * sel0 + f1 * sel1], 0), one buffer
            # per intermediate: the bits of max(W + dts * min_u [(-f0) * sel0
            # - f1 * sel1], 0), as negation is exact and W never holds -0
            _padded_diff(W, r0, r1, dy, d0)
            _col_diff(W[r0:r1], dy, d1)
            for k, u in enumerate(spec.control_values):
                fv = np.asarray(spec.f(t, P, u))
                f0, f1 = fv[..., 0], fv[..., 1]
                acc = best if k == 0 else p
                np.multiply(f0, _upwind(f0, b0, f0d, up, sel), out=acc)
                np.multiply(f1, _upwind(f1, b1, f1d, up, sel), out=sel)
                np.add(acc, sel, out=acc)
                if k:
                    np.maximum(best, p, out=best)
                # free f's output so the next call reuses its memory: with two
                # outputs live, the free heap top passes glibc's trim threshold
                # and is faulted back in on every substep
                del fv, f0, f1
            np.multiply(best, dts, out=best)
            np.subtract(W[r0:r1], best, out=best)
            np.maximum(best, 0.0, out=nxt[r0:r1])
        return step

    _sweep(grid, out, sub, min_rows, make_step)
    return DualGrid(kind="deterministic", times=grid.times(), axes=(y1, y2), W=out,
                    substeps=sub)


# ---------------------------------------------------------------------------
# nodal sets


@dataclass(frozen=True)
class NodalSet:
    level: int
    points: np.ndarray    # (m, dim) y points with W <= eps, sorted ascending
    eps: float


def extract_nodal_set(dual: DualGrid, level: int, x_index: int | None = None,
                      eps: float | None = None) -> NodalSet:
    """Grid points with W(level, ...) <= eps, eps defaulting to dual.default_eps();
    an empty set (no points) is no error."""
    if eps is None:
        eps = dual.default_eps()
    if dual.kind == "markovian":
        if x_index is None:
            raise ValueError("markovian nodal sets need an x_index")
        row = dual.at(level)[x_index, :]
        ys = dual.axes[1]
        pts = ys[row <= eps][:, None]
    else:
        mask = dual.at(level) <= eps
        ii, jj = np.nonzero(mask)
        pts = np.stack([dual.axes[0][ii], dual.axes[1][jj]], axis=-1)
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        pts = pts[order]
    return NodalSet(level=level, points=pts, eps=float(eps))


def dual_static_value(nodal: NodalSet, phi) -> float:
    """max of phi over the nodal set; errors on empty sets advising a larger eps."""
    if len(nodal.points) == 0:
        raise EmptyNodalSetError(
            f"nodal set empty at eps = {nodal.eps:.3e}; enlarge eps or refine the grid"
        )
    vals = np.asarray(phi(nodal.points)).reshape(-1)
    return float(vals.max())


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


def _chunks(count: int, floats_per_start: int):
    """Slices of the start axis, each holding at most _CHUNK_FLOATS steered floats."""
    step = max(1, _CHUNK_FLOATS // max(1, floats_per_start))
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _steering_table(problem: BSDEProblem, tree: ScenarioTree, level: int, stop: int,
                    zmats):
    """Every grid assignment of (z, u) pairs to the subtree slots on [level, stop).

    Returns (table, levels): table (A, slots) holds one pair index per slot, one
    row per assignment in lexicographic order; levels holds, per level on
    [level, stop), the (z, u) arrays of shape (1, A, w, d', d) and (1, A, w).
    Under deterministic_controls the slots of a level share one control, so
    the rows are the adapted table's rows with one u per level, in its order.
    """
    U, nz = problem.control_values, len(zmats)
    widths = [(2 ** tree.d) ** (j - level) for j in range(level, stop)]
    if problem.deterministic_controls:
        # digits per level: its first slot's z, the level's u, its other slots'
        # z; counting in them runs through the pair columns lexicographically
        radices, zcol, ucol = [], [], []
        for w in widths:
            at = len(radices)
            radices += [nz, len(U)] + [nz] * (w - 1)
            zcol += [at] + list(range(at + 2, at + w + 1))
            ucol += [at + 1] * w
    else:
        radices = [nz * len(U)] * sum(widths)
    total = math.prod(radices)
    _check_cap(total, "steering assignments")
    table = np.indices(radices).reshape(len(radices), total).T
    if problem.deterministic_controls:
        table = table[:, zcol] * len(U) + table[:, ucol]
    zs = np.stack(zmats)[table // len(U)]
    us = np.asarray(U, dtype=float)[table % len(U)]
    levels, off = [], 0
    for w in widths:
        levels.append((zs[None, :, off:off + w], us[None, :, off:off + w]))
        off += w
    return table, levels


def _steer(problem: BSDEProblem, tree: ScenarioTree, times: np.ndarray, level: int,
           nodes: np.ndarray, ys: np.ndarray, count: int, levels):
    """Forward X from X_level(nodes[s]) = ys[s] under each of count steerings.

    levels holds per level the (z, u) arrays of shape (1, count, w, d', d) and
    (1, count, w) over the w subtree nodes of each start. Returns X at
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
        ctx = NodeContext(level=j, b=b, tree=tree)
        p = x - np.asarray(problem.f(times[j], ctx, x, zr, ur)) * dt
        dz = np.stack([z @ inc for inc in tree.increments], axis=-2)
        X = (p.reshape(shape + (1, dpr)) + dz).reshape(s, count, w * nc, dpr)
    return X


def dual_value_direct(problem: BSDEProblem, tree: ScenarioTree, level: int,
                      nodes, ys, z_values):
    """min over enumerated (z,u) node-assignments of E_node |X_T - xi|^2, X_level = y,
    for each start (node, y) of nodes (S,) and ys (S, d').

    Each forward step is the explicit Euler step x - f(t_j, x, z, u) dt, and
    child c adds z @ increment[c]. Returns (values (S,), tags): per start the
    best assignment, or None when every cost is inf or NaN.
    """
    if tree.mode != "path":
        raise ValueError("dual_value_direct walks per-node subtrees: path mode only")
    n, d, dpr = tree.n, tree.d, problem.value_dim
    table, grid = _steering_table(problem, tree, level, n,
                                  _as_z_matrices(z_values, dpr, d))
    nodes = np.asarray(nodes, dtype=np.intp)
    ys = np.asarray(ys, dtype=float).reshape(len(nodes), dpr)
    count = len(table)
    width = (2 ** d) ** (n - level)
    times = tree.grid.times()
    values = np.empty(len(nodes))
    tags = []
    for sl in _chunks(len(nodes), count * width * dpr):
        leaves = (nodes[sl, None] * width + np.arange(width)).reshape(-1)
        ctx = NodeContext(level=n, b=tree.values[n][leaves], tree=tree)
        xi = np.asarray(problem.terminal(ctx), dtype=float).reshape(-1, 1, width, dpr)
        X = _steer(problem, tree, times, level, nodes[sl], ys[sl], count, grid)
        cost = np.mean(np.sum((X - xi) ** 2, axis=-1), axis=-1)
        # first index of the smallest cost; NaN never wins, all-inf keeps no tag
        cost[np.isnan(cost)] = np.inf
        best = np.argmin(cost, axis=1)
        values[sl] = cost[np.arange(len(best)), best]
        winners, which = np.unique(np.where(values[sl] < np.inf, best, -1),
                                   return_inverse=True)
        named = [None if a < 0 else tuple(table[a].tolist()) for a in winners]
        tags.extend(named[i] for i in which.tolist())
    return values, tags


def conditional_dual_value(problem: BSDEProblem, tree: ScenarioTree, level: int,
                           y_points, z_values) -> np.ndarray:
    """W-tilde(level, node, y) on the tree, shape (nodes at level, probe points);
    y_points is (P, d'), or (P,) when d' = 1."""
    m = tree.node_count(level)
    vals, _ = dual_value_direct(problem, tree, level,
                                np.repeat(np.arange(m), len(y_points)),
                                np.tile(y_points, (m, 1)), z_values)
    return vals.reshape(m, len(y_points))


# ---------------------------------------------------------------------------
# geometric DPP


@dataclass(frozen=True)
class GeometricDppReport:
    rho_into: float      # worst steer-min over the eps-nodal set at k1
    rho_back: float      # worst W at k1 over points steerable into the eps-set
    nodal_count: int
    steerable_count: int
    inclusions_hold: bool


def check_geometric_dpp(problem: BSDEProblem, tree: ScenarioTree, k1: int, k2: int,
                        eps: float, y_points, z_values) -> GeometricDppReport:
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
    wt1 = conditional_dual_value(problem, tree, k1, y_points, z_values)
    table, segment = _steering_table(problem, tree, k1, k2,
                                     _as_z_matrices(z_values, dpr, d))
    m, npts = wt1.shape
    nodes = np.repeat(np.arange(m), npts)
    ys = np.tile(y_points, (m, 1)).reshape(len(nodes), dpr)
    width = (2 ** d) ** (k2 - k1)
    times = tree.grid.times()
    # steer_min: min over segment assignments of the max successor W-tilde at k2
    steer_min = np.empty(len(nodes))
    for sl in _chunks(len(nodes), len(table) * width * dpr):
        xs = _steer(problem, tree, times, k1, nodes[sl], ys[sl], len(table), segment)
        succ = np.broadcast_to((nodes[sl, None] * width + np.arange(width))[:, None],
                               xs.shape[:3])
        w2, _ = dual_value_direct(problem, tree, k2, succ.reshape(-1),
                                  xs.reshape(-1, dpr), z_values)
        worst = np.fmax.reduce(w2.reshape(xs.shape[:3]), axis=2, initial=0.0)
        steer_min[sl] = np.fmin.reduce(worst, axis=1, initial=np.inf)

    w1 = wt1.reshape(-1)
    nodal = w1 <= eps
    steerable = steer_min <= eps
    rho_into = np.fmax.reduce(steer_min[nodal], initial=0.0)
    rho_back = np.fmax.reduce(w1[steerable], initial=0.0)
    nodal_count = int(np.count_nonzero(nodal))
    steer_count = int(np.count_nonzero(steerable))
    return GeometricDppReport(
        rho_into=float(rho_into),
        rho_back=float(rho_back), nodal_count=nodal_count,
        steerable_count=steer_count,
        inclusions_hold=bool(np.isfinite(rho_into) and np.isfinite(rho_back)
                             and nodal_count > 0 and steer_count > 0),
    )


# ---------------------------------------------------------------------------
# CSV export (the artifact format of treebsde.artifacts)


def export_dual_grid_csv(dual: DualGrid, path: str) -> None:
    """One (t, axis 0, axis 1, W) row per grid point of level 0."""
    names = ("t", "x", "y", "W") if dual.kind == "markovian" else ("t", "y1", "y2", "W")
    W = dual.at(0)
    write_csv(path, names, ((dual.times[0], a, b, W[i, j])
                            for i, a in enumerate(dual.axes[0])
                            for j, b in enumerate(dual.axes[1])))


def export_nodal_set_csv(nodal: NodalSet, times: np.ndarray, path: str) -> None:
    """One (t, y) or (t, y1, y2) row per nodal point; an empty set writes the header."""
    names = ("t", "y") if nodal.points.shape[1] == 1 else ("t", "y1", "y2")
    t = times[nodal.level]
    write_csv(path, names, ((t,) + tuple(row) for row in nodal.points))
