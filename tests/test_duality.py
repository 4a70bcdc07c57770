"""Tests for the dual HJB solver, nodal sets, and exact tree dual values."""
import dataclasses
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import duality, problems
from treebsde.lattice import TimeGrid, build_tree
from treebsde.bsde import BSDEProblem, EnumerationCapError, NodeContext
from treebsde.duality import (
    ConfigError,
    DeterministicDualSpec,
    EmptyNodalSetError,
    HJBConfig,
    MarkovianDualSpec,
    check_geometric_dpp,
    conditional_dual_value,
    dual_static_value,
    dual_value_direct,
    export_dual_grid_csv,
    export_nodal_set_csv,
    extract_nodal_set,
    solve_dual_hjb,
)
from treebsde.problems import geometric_dpp_cases, transport_dual_spec


def quad_spec():
    """f == 0, terminal target g(x) = x: W(t,x,y) = (y-x)^2 is the exact solution."""
    return MarkovianDualSpec(
        f=lambda t, x, y, z, u: 0.0,
        g=lambda x: x,
        control_values=(0.0,),
        f_bound=0.0,
    )


def quad_config(h=0.1, lo=-1.0, hi=1.0, **kw):
    return HJBConfig(x_bounds=(lo, hi), dx=h, y_bounds=(lo, hi), dy=h,
                     z_values=(0.0, 0.5, 1.0), **kw)


def test_terminal_slice_exact():
    grid = TimeGrid(T=0.5, n=2)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config())
    xs, ys = dual.axes
    expected = (ys[None, :] - xs[:, None]) ** 2
    np.testing.assert_array_equal(dual.at(grid.n), expected)


def test_markovian_quadratic_preserved_every_level():
    grid = TimeGrid(T=0.5, n=4)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config())
    xs, ys = dual.axes
    expected = (ys[None, :] - xs[:, None]) ** 2
    for level in (0, grid.n):
        assert np.max(np.abs(dual.at(level) - expected)) < 1e-9


def test_w_nonnegative_with_advection():
    spec = MarkovianDualSpec(
        f=lambda t, x, y, z, u: u + 0.0 * y,
        g=lambda x: x,
        control_values=(-1.0, 1.0),
        f_bound=1.5,
    )
    grid = TimeGrid(T=0.25, n=2)
    dual = solve_dual_hjb(spec, grid, quad_config())
    assert np.min(dual.W) >= 0.0


def test_zgrid_must_contain_zero():
    with pytest.raises(ConfigError, match="z-grid"):
        HJBConfig(z_values=(0.5, 1.0))


@pytest.mark.parametrize("field,value", [
    ("z_values", (0.0, np.nan)), ("z_values", (np.nan, 0.0)), ("z_values", (0.0, np.inf)),
    ("dx", np.nan), ("dy", np.inf), ("x_bounds", (-1.0, np.nan)),
    ("y_bounds", (-1.0, np.inf)), ("y_bounds", (-np.inf, 1.0)),
])
def test_a_non_finite_spacing_bound_or_z_value_raises_config_error(field, value):
    with pytest.raises(ConfigError, match="must be finite"):
        HJBConfig(**{field: value})


def test_default_eps_is_ten_times_interpolation_estimate():
    grid = TimeGrid(T=0.5, n=2)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config(h=0.1))
    # second differences of a quadratic are 2 h^2 along each axis
    assert dual.default_eps() == pytest.approx(10 * (2 * 0.1 ** 2 / 8.0) * 2)


@pytest.mark.parametrize("x_index", [-1, 9, 1.5, True, np.int64(9), None],
                         ids=["negative", "past-the-end", "float", "bool", "np-int", "none"])
def test_a_markovian_x_index_outside_the_rows_raises_naming_it(x_index):
    # 9 x 9 points at dx = dy = 0.25 on [-1, 1]
    dual = solve_dual_hjb(problems.quadratic_dual_spec(), TimeGrid(1.0, 2),
                          HJBConfig(x_bounds=(-1.0, 1.0), dx=0.25, y_bounds=(-1.0, 1.0),
                                    dy=0.25))
    with pytest.raises(ValueError, match=r"x_index in 0\.\.8"):
        extract_nodal_set(dual, 0, x_index=x_index, eps=0.1)
    for ok in (0, 8, np.int64(4)):
        row = dual.at(0)[int(ok)]
        nodal = extract_nodal_set(dual, 0, x_index=ok, eps=np.inf)
        assert nodal.points.shape == (len(row), 1)


def test_a_deterministic_nodal_set_rejects_an_x_index():
    dual = solve_dual_hjb(transport_dual_spec(), TimeGrid(T=2.0, n=8),
                          HJBConfig(y_bounds=(-2.0, 2.0), dy=0.1))
    with pytest.raises(ValueError, match="take no x_index"):
        extract_nodal_set(dual, 0, x_index=0, eps=0.1)
    assert len(extract_nodal_set(dual, 0, eps=0.1).points) > 0


def test_nodal_set_sorted_and_monotone_in_eps():
    grid = TimeGrid(T=0.5, n=4)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config())
    xi = int(np.argmin(np.abs(dual.axes[0])))  # x = 0 slice
    small = extract_nodal_set(dual, 0, x_index=xi, eps=0.01)
    large = extract_nodal_set(dual, 0, x_index=xi, eps=0.05)
    assert np.all(np.diff(small.points[:, 0]) > 0)
    small_set = set(map(float, small.points[:, 0]))
    large_set = set(map(float, large.points[:, 0]))
    assert small_set <= large_set
    assert 0.0 in large_set


def test_nodal_default_eps_contains_target():
    grid = TimeGrid(T=0.5, n=4)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config())
    xi = int(np.argmin(np.abs(dual.axes[0])))
    nodal = extract_nodal_set(dual, 0, x_index=xi)
    assert len(nodal.points) > 0
    assert np.min(np.abs(nodal.points[:, 0])) < 1e-12
    # default eps = 5 h^2 puts the band inside sqrt(5) h < 2.5 cells
    assert np.max(np.abs(nodal.points[:, 0])) <= 2.5 * 0.1


def test_empty_nodal_set_flags_and_static_value_raises():
    spec = MarkovianDualSpec(f=lambda t, x, y, z, u: 0.0, g=lambda x: x,
                             control_values=(0.0,), f_bound=0.0)
    config = HJBConfig(x_bounds=(2.0, 3.0), dx=0.1, y_bounds=(-1.0, 1.0), dy=0.1,
                       z_values=(0.0,))
    dual = solve_dual_hjb(spec, TimeGrid(T=0.25, n=1), config)
    nodal = extract_nodal_set(dual, 0, x_index=0, eps=0.5)
    assert nodal.points.shape == (0, 1)
    with pytest.raises(EmptyNodalSetError, match="enlarge eps"):
        dual_static_value(nodal, lambda p: p[:, 0])


def test_dual_static_value_and_reachable_distance():
    grid = TimeGrid(T=0.5, n=4)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config())
    xi = int(np.argmin(np.abs(dual.axes[0])))
    nodal = extract_nodal_set(dual, 0, x_index=xi, eps=0.011)
    # the largest grid y with y^2 <= 0.011
    assert dual_static_value(nodal, lambda p: p[:, 0]) == pytest.approx(0.1)


def test_transport_translation_minimum_location():
    # pure translation dX1 = -1: W(0, y) is minimized near y1 = T
    spec = DeterministicDualSpec(
        f=lambda t, y, u: np.stack([np.ones_like(y[..., 0]),
                                    np.zeros_like(y[..., 1])], axis=-1),
        target=(0.0, 0.0),
        control_values=(1.0,),
        f_bound=(1.2, 0.0),
    )
    grid = TimeGrid(T=0.5, n=4)
    config = HJBConfig(y_bounds=(-1.0, 1.0), dy=0.05, z_values=(0.0,))
    dual = solve_dual_hjb(spec, grid, config)
    assert np.min(dual.W) >= 0.0
    j0 = int(np.argmin(np.abs(dual.axes[1])))  # y2 = 0 column
    col = dual.W[0, :, j0]
    y1_star = dual.axes[0][int(np.argmin(col))]
    assert abs(y1_star - 0.5) <= 2 * 0.05 + 1e-12


def test_transport_steering_band_sanity():
    # two-speed steering toward the origin: static dual value near 1/2
    spec = DeterministicDualSpec(
        f=lambda t, y, u: np.stack([u - y[..., 1], u * np.ones_like(y[..., 1])],
                                   axis=-1),
        target=(0.0, 0.0),
        control_values=(0.0, 1.0),
        f_bound=(3.0, 1.0),
    )
    grid = TimeGrid(T=2.0, n=16)
    config = HJBConfig(y_bounds=(-2.0, 2.0), dy=0.05, z_values=(0.0,))
    dual = solve_dual_hjb(spec, grid, config)
    nodal = extract_nodal_set(dual, 0, eps=0.15 * 0.05)
    assert len(nodal.points) > 0
    v_hat = float(nodal.points[:, 0].max())
    assert 0.4 <= v_hat <= 0.6


# ---------------------------------------------------------------------------
# slice storage: a solve keeps levels 0 and n only


def advected_spec():
    # 1.5 times sup|f| = 1 + 0.3 + 0.2 on quad_config's grid
    return MarkovianDualSpec(f=lambda t, x, y, z, u: u + 0.3 * y - 0.2 * x * z,
                             g=lambda x: np.sin(x), control_values=(-1.0, 1.0),
                             f_bound=2.25)


SLICE_CASES = {
    "markovian": (advected_spec, TimeGrid(T=0.5, n=4), quad_config()),
    "deterministic": (transport_dual_spec, TimeGrid(T=2.0, n=8),
                      HJBConfig(y_bounds=(-2.0, 2.0), dy=0.1)),
}


@pytest.mark.parametrize("kind", sorted(SLICE_CASES))
def test_unkept_level_raises_naming_the_held_levels(kind, tmp_path):
    make_spec, grid, config = SLICE_CASES[kind]
    dual = solve_dual_hjb(make_spec(), grid, config)
    assert dual.levels == (0, grid.n)
    with pytest.raises(ValueError, match=rf"level 1 .*held levels \(0, {grid.n}\)"):
        dual.at(1)
    with pytest.raises(ValueError, match="held levels"):
        extract_nodal_set(dual, 1, x_index=0, eps=0.1)
    path = tmp_path / "grid.csv"
    export_dual_grid_csv(dual, str(path))
    npts = len(dual.axes[0]) * len(dual.axes[1])
    assert len(path.read_text().splitlines()) == 1 + npts


@pytest.mark.parametrize("kind", sorted(SLICE_CASES))
def test_the_terminal_slice_is_recomputed_in_the_bits_of_its_expression(kind):
    make_spec, grid, config = SLICE_CASES[kind]
    spec = make_spec()
    dual = solve_dual_hjb(spec, grid, config)
    a0, a1 = dual.axes
    if kind == "markovian":
        want = (a1 - np.asarray(spec.g(a0[:, None]))) ** 2
    else:
        t1, t2 = spec.target
        want = (a0[:, None] - t1) ** 2 + (a1[None, :] - t2) ** 2
    got = dual.at(grid.n)
    assert dual.W.shape[0] == 1 and got.shape == dual.W.shape[1:]
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # a fresh copy each read: writing to one leaves level 0 and the next read alone
    got[:] = -1.0
    assert np.array_equal(dual.at(grid.n), want) and np.min(dual.at(0)) >= 0.0


@pytest.mark.parametrize("kind", sorted(SLICE_CASES))
def test_levels_outside_the_tree_are_rejected(kind):
    make_spec, grid, config = SLICE_CASES[kind]
    dual = solve_dual_hjb(make_spec(), grid, config)
    for level in (-1, grid.n + 1):
        with pytest.raises(ValueError, match=rf"level {level} .*held levels \(0, {grid.n}\)"):
            dual.at(level)
        with pytest.raises(ValueError, match="held levels"):
            extract_nodal_set(dual, level, x_index=0, eps=0.1)


@pytest.mark.parametrize("kind", sorted(SLICE_CASES))
def test_sweep_calls_f_once_per_substep_down_to_level_zero(kind, monkeypatch):
    # one block on one worker: every substep calls f once per (z, u), at the
    # substep's start time, from T down to dts and no further
    make_spec, grid, config = SLICE_CASES[kind]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 1 << 30)
    monkeypatch.setattr(duality, "_worker_count", lambda: 1)
    spec, seen = make_spec(), []
    f = spec.f
    if kind == "markovian":
        spec = dataclasses.replace(
            spec, f=lambda t, x, y, z, u: seen.append(t) or f(t, x, y, z, u))
        per_substep = len(config.z_values) * len(spec.control_values)
    else:
        spec = dataclasses.replace(
            spec, f=lambda t, y, u: seen.append(t) or f(t, y, u))
        per_substep = len(spec.control_values)
    dual = solve_dual_hjb(spec, grid, config)
    count = grid.n * dual.substeps
    assert len(seen) == count * per_substep
    times = np.asarray(seen[::per_substep])
    np.testing.assert_array_equal(np.asarray(seen).reshape(count, per_substep),
                                  np.repeat(times[:, None], per_substep, axis=1))
    np.testing.assert_allclose(times, grid.T - grid.dt / dual.substeps * np.arange(count),
                               rtol=0.0, atol=1e-12)


def test_transport_solve_peak_memory_stays_small():
    # all 257 levels of the 201 x 201 grid would take ~83 MB here
    tracemalloc.start()
    try:
        solve_dual_hjb(transport_dual_spec(), TimeGrid(2.0, 256),
                       HJBConfig(y_bounds=(-2.0, 2.0), dy=0.02))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_transport_sweep_memory_grows_with_workers_not_blocks(monkeypatch):
    # 8 row blocks of at most 26 rows on 2 workers; in grid arrays G of
    # 201 x 201 floats the solve holds 1 slice, rolled in place from level n
    # to level 0 with no spare buffer, per worker one scratch set for 26 rows
    # (2 point planes, 2 padded differences, 3 planes and a mask: 0.93 G) and
    # one f output of 2 planes (0.26 G), 3.4 G in all; before the sweep the
    # slice and the terminal sum make 2 G. The first bound leaves room for the
    # rest; the second fails if a stored terminal slice and a spare buffer
    # added their 2 G.
    spec, config = transport_dual_spec(), HJBConfig(y_bounds=(-2.0, 2.0), dy=0.02)
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 26 * 201)
    monkeypatch.setattr(duality, "_worker_count", lambda: 2)
    solve_dual_hjb(spec, TimeGrid(0.02, 1), config)  # lazy imports, pool start
    seen = []
    f = spec.f
    spec = dataclasses.replace(spec, f=lambda t, y, u: seen.append(len(y)) or f(t, y, u))
    tracemalloc.start()
    try:
        dual = solve_dual_hjb(spec, TimeGrid(0.5, 4), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dual.W.shape == (1, 201, 201) and sorted(set(seen)) == [25, 26]
    assert len(seen) == 8 * 2 * 4 * dual.substeps
    assert peak < 8 * dual.W[0].nbytes
    assert peak < 4.5 * dual.W[0].nbytes


def _transport_exact_w0(y, T):
    """W(0, y) = dist^2(p, K) for the relaxed-control transport dual, p = (y1 + T y2, y2),
    K = {0 <= b <= T, b + b^2/2 <= a <= (1+T) b - b^2/2}; the distance to the
    boundary of the convex set K is taken over 2 x 20001 sampled boundary points."""
    b = np.linspace(0.0, T, 20001)
    edge = np.concatenate([np.stack([b + b * b / 2, b], axis=-1),
                           np.stack([(1 + T) * b - b * b / 2, b], axis=-1)])
    p = np.stack([y[:, 0] + T * y[:, 1], y[:, 1]], axis=-1)
    a, pb = p[:, 0], p[:, 1]
    inside = ((pb >= 0) & (pb <= T) & (a >= pb + pb * pb / 2)
              & (a <= (1 + T) * pb - pb * pb / 2))
    d2 = np.array([np.min(np.sum((edge - q) ** 2, axis=1)) for q in p])
    return np.where(inside, 0.0, d2)


def test_transport_w0_matches_the_closed_form_where_characteristics_stay_inside():
    T, (lo, hi) = 2.0, (-2.0, 2.0)
    errors = []
    for n, dy in ((32, 0.05), (128, 0.02)):
        dual = solve_dual_hjb(transport_dual_spec(), TimeGrid(T, n),
                              HJBConfig(y_bounds=(lo, hi), dy=dy))
        Y1, Y2 = np.meshgrid(*dual.axes, indexing="ij")
        # Characteristics y' = (y2 - u, -u) with u(t) in [0, 1]: y2(t) spans
        # [y2 - t, y2] and y1(t) spans [y1 + y2 t - t - t^2/2, y1 + y2 t]; the
        # bounds are linear or concave in t, so checking t = 0 and t = T
        # suffices. The tolerance keeps grid points on the box edge up to
        # rounding.
        tol = 1e-9
        trusted = ((Y1 >= lo - tol) & (Y2 <= hi + tol) & (Y2 - T >= lo - tol)
                   & (Y1 + T * Y2 <= hi + tol)
                   & (Y1 + T * Y2 - T - T * T / 2 >= lo - tol))
        y = np.stack([Y1[trusted], Y2[trusted]], axis=-1)
        assert len(y) > 10
        err = float(np.max(np.abs(dual.at(0)[trusted] - _transport_exact_w0(y, T))))
        assert err <= 2 * dy
        errors.append(err)
    assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# row blocks: any block or worker count gives the one-block solve, bit for bit


BLOCK_CASES = {
    # 23 x 21 points: x reaches 1.2, so |f| <= 1 + 0.3 + 0.24 < 1.6
    "markovian": (lambda: dataclasses.replace(advected_spec(), f_bound=1.6),
                  TimeGrid(T=0.5, n=4),
                  HJBConfig(x_bounds=(-1.0, 1.2), dx=0.1, y_bounds=(-1.0, 1.0),
                            dy=0.1, z_values=(0.0, 0.5, 1.0)), 3),
    "deterministic": (transport_dual_spec, TimeGrid(T=2.0, n=8),
                      HJBConfig(y_bounds=(-2.0, 2.0), dy=0.1), 1),
}


def _recording(spec, seen):
    """spec whose f records (first row coordinate, point-array shape) per call."""
    if isinstance(spec, MarkovianDualSpec):
        def f(t, x, y, z, u):
            seen.append((float(x[0, 0]), x.shape))
            return spec.f(t, x, y, z, u)
    else:
        def f(t, y, u):
            seen.append((float(y[0, 0, 0]), y.shape[:-1]))
            return spec.f(t, y, u)
    return dataclasses.replace(spec, f=f)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("layout", ("one", "two", "three", "five", "min"))
@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_row_blocks_reproduce_the_one_block_solve(kind, layout, workers, monkeypatch):
    # "five" on 2 workers puts uneven blocks in two bands, so the shorter
    # blocks of a band run in a slice of scratch sized for its tallest
    make_spec, grid, config, min_rows = BLOCK_CASES[kind]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 1 << 30)
    ref = solve_dual_hjb(make_spec(), grid, config)
    rows, cols = ref.W.shape[1:]
    height = {"one": rows, "two": -(-rows // 2), "three": -(-rows // 3),
              "five": -(-rows // 5), "min": 1}[layout]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", height * cols)
    monkeypatch.setattr(duality, "_worker_count", lambda: workers)
    seen = []
    dual = solve_dual_hjb(_recording(make_spec(), seen), grid, config)
    assert dual.substeps == ref.substeps
    for level in ref.levels:
        assert np.array_equal(dual.at(level), ref.at(level))
        assert np.array_equal(np.signbit(dual.at(level)), np.signbit(ref.at(level)))
    # f saw whole rows of the grid, and the blocks tile the first axis
    axis = dual.axes[0]
    blocks = sorted({(int(np.argmin(np.abs(axis - first))), shape)
                     for first, shape in seen})
    assert all(shape[1] == cols for _, shape in blocks)
    starts = [start for start, _ in blocks]
    heights = [shape[0] for _, shape in blocks]
    assert starts == [sum(heights[:i]) for i in range(len(heights))]
    assert sum(heights) == rows
    if layout == "min":
        assert min(heights) == min_rows and max(heights) <= min_rows + 1
        assert len(heights) == rows // min_rows
    else:
        assert len(heights) == {"one": 1, "two": 2, "three": 3, "five": 5}[layout]
    if layout in ("three", "five"):
        assert len(set(heights)) > 1


@pytest.mark.parametrize("kind", sorted(BLOCK_CASES))
def test_row_blocks_on_more_threads_than_cores_under_fast_switching(kind, monkeypatch):
    make_spec, grid, config, _ = BLOCK_CASES[kind]
    ref = solve_dual_hjb(make_spec(), grid, config)
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 1)
    monkeypatch.setattr(duality, "_worker_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        dual = solve_dual_hjb(make_spec(), grid, config)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(dual.W, ref.W)


# Frozen reference: the Markovian step as it was before it wrote its stencils
# into block buffers, on one block, with np.moveaxis and nested np.gradient.


def _ref_one_sided_second(W, h, axis):
    W = np.moveaxis(W, axis, 0)
    out = np.empty_like(W)
    out[1:-1] = (W[2:] - 2 * W[1:-1] + W[:-2]) / (h * h)
    out[0] = (2 * W[0] - 5 * W[1] + 4 * W[2] - W[3]) / (h * h)
    out[-1] = (2 * W[-1] - 5 * W[-2] + 4 * W[-3] - W[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _ref_markovian_levels(spec, grid, config, sub):
    """W at levels n, n - 1, ..., 0 with `sub` substeps per level."""
    dx, dy = config.dx, config.dy
    X, Y = np.meshgrid(duality._axis(config.x_bounds, dx),
                       duality._axis(config.y_bounds, dy), indexing="ij")
    W = (Y - np.asarray(spec.g(X))) ** 2
    levels, t, dts = [W], grid.T, grid.dt / sub
    for _ in range(grid.n):
        for _ in range(sub):
            Dxx = _ref_one_sided_second(W, dx, 0)
            Dyy = _ref_one_sided_second(W, dy, 1)
            Dxy = np.gradient(np.gradient(W, dy, axis=1, edge_order=2),
                              dx, axis=0, edge_order=2)
            diff = np.diff(W, axis=1) / dy
            bwd = np.concatenate([diff[:, :1], diff], axis=1)
            fwd = np.concatenate([diff, diff[:, -1:]], axis=1)
            best = None
            for z in config.z_values:
                zpart = 0.5 * z * z * Dyy + z * Dxy
                for u in spec.control_values:
                    fv = np.asarray(spec.f(t, X, Y, z, u))
                    cand = zpart - fv * np.where(fv > 0, bwd, fwd)
                    best = cand if best is None else np.minimum(best, cand)
            W = np.maximum(W + dts * (0.5 * Dxx + best), 0.0)
            t -= dts
        levels.append(W)
    return levels


MARKOVIAN_CASES = {
    # the shipped duality_markovian config: 81 x 81 points, one block
    "duality_markovian": (problems.quadratic_dual_spec, TimeGrid(T=1.0, n=8),
                          HJBConfig(x_bounds=(-2.0, 2.0), dx=0.05,
                                    y_bounds=(-2.0, 2.0), dy=0.05,
                                    z_values=(-1.0, 0.0, 1.0))),
    "block_case": BLOCK_CASES["markovian"][:3],
}


@pytest.mark.parametrize("layout", ("one", "min"))
@pytest.mark.parametrize("case", sorted(MARKOVIAN_CASES))
def test_markovian_step_matches_the_frozen_gradient_step(case, layout, monkeypatch):
    make_spec, grid, config = MARKOVIAN_CASES[case]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 1 << 30 if layout == "one" else 1)
    dual = solve_dual_hjb(make_spec(), grid, config)
    ref = _ref_markovian_levels(make_spec(), grid, config, dual.substeps)
    assert dual.substeps > 1
    for level, want in ((grid.n, ref[0]), (0, ref[-1])):
        got = dual.at(level)
        assert np.array_equal(got, want), level
        assert np.array_equal(np.signbit(got), np.signbit(want)), level


def _stacked_transport_f(t, y, u):
    """The transport f as an interleaved np.stack, the reference for the bits."""
    return np.stack([u - y[..., 1], u + 0.0 * y[..., 0]], axis=-1)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("layout", ("one", "two", "three", "min"))
def test_transport_points_arrive_component_first_and_keep_the_stacked_f_bits(
        layout, workers, monkeypatch):
    make_spec, grid, config, _ = BLOCK_CASES["deterministic"]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", 1 << 30)
    ref = solve_dual_hjb(dataclasses.replace(make_spec(), f=_stacked_transport_f),
                         grid, config)
    rows, cols = ref.W.shape[1:]
    height = {"one": rows, "two": -(-rows // 2), "three": -(-rows // 3),
              "min": 1}[layout]
    monkeypatch.setattr(duality, "_BLOCK_FLOATS", height * cols)
    monkeypatch.setattr(duality, "_worker_count", lambda: workers)
    spec = make_spec()
    contiguous = []

    def f(t, y, u):
        contiguous.append(all(y[..., k].flags.c_contiguous for k in (0, 1)))
        return spec.f(t, y, u)

    dual = solve_dual_hjb(dataclasses.replace(spec, f=f), grid, config)
    assert contiguous and all(contiguous)
    assert dual.substeps == ref.substeps
    for level in ref.levels:
        assert np.array_equal(dual.at(level), ref.at(level))
        assert np.array_equal(np.signbit(dual.at(level)), np.signbit(ref.at(level)))


@pytest.mark.parametrize("kind", sorted(SLICE_CASES))
def test_too_few_grid_points_raise_config_error_naming_the_axis_lengths(kind):
    make_spec, grid, _ = SLICE_CASES[kind]
    need = {"markovian": 4, "deterministic": 2}[kind]
    # 3 points on the x axis, 1 on each y axis
    config = HJBConfig(x_bounds=(0.0, 0.2), dx=0.1, y_bounds=(0.0, 0.05), dy=0.1)
    lengths = r"\(3, 1\)" if kind == "markovian" else r"\(1, 1\)"
    with pytest.raises(ConfigError, match=rf"need at least {need} grid points per "
                       rf"axis .*axis lengths {lengths}"):
        solve_dual_hjb(make_spec(), grid, config)


# f_bound is trusted as declared: NaN or a negative entry would run one substep
BAD_BOUNDS = {"markovian": (np.nan, np.inf, -np.inf, -1.0),
              "deterministic": (np.nan, np.inf, -1.0, (np.nan, 1.0), (3.0, np.inf),
                                (3.0, -0.5), (-3.0, -1.0))}


@pytest.mark.parametrize("kind,bound", [(kind, bound) for kind in sorted(BAD_BOUNDS)
                                        for bound in BAD_BOUNDS[kind]])
def test_a_nan_infinite_or_negative_f_bound_raises_config_error(kind, bound):
    make_spec, grid, config = SLICE_CASES[kind]
    spec, calls = make_spec(), []
    f = spec.f
    spec = dataclasses.replace(spec, f_bound=bound,
                               f=lambda *args: calls.append(args) or f(*args))
    with pytest.raises(ConfigError, match="f_bound must be finite and nonnegative"):
        solve_dual_hjb(spec, grid, config)
    assert calls == []


def control_free_b_terminal(n, T, d=1):
    """f == 0, xi = B_T: exact tree dual value is (y - B_level)^2 when z-grid has 1."""
    tree = build_tree(TimeGrid(T=T, n=n), d=d)
    problem = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0,),
        lipschitz_L=0.0,
    )
    return tree, problem


def test_dual_value_direct_closed_form():
    tree, problem = control_free_b_terminal(n=3, T=0.75)
    b = tree.values[1][0, 0]
    for y in (-1.0, 0.0, 0.5):
        val, _ = dual_value_direct(problem, tree, 1, np.array([0]), np.array([[y]]),
                                   z_values=(0.0, 1.0))
        assert val[0] == pytest.approx((y - b) ** 2, abs=1e-12)


def test_dual_value_direct_terminal_level():
    tree, problem = control_free_b_terminal(n=2, T=0.5)
    b = tree.values[2][3, 0]
    val, _ = dual_value_direct(problem, tree, 2, np.array([3]), np.array([[0.2]]),
                               z_values=(0.0,))
    assert val[0] == pytest.approx((0.2 - b) ** 2, abs=1e-14)


def test_conditional_dual_value_matches_closed_form():
    tree, problem = control_free_b_terminal(n=3, T=0.75)
    ys = np.linspace(-1.0, 1.0, 9)
    cdv = conditional_dual_value(problem, tree, 1, ys, z_values=(0.0, 1.0))
    b = tree.values[1][:, 0]
    expected = (ys[None, :] - b[:, None]) ** 2
    np.testing.assert_allclose(cdv, expected, atol=1e-12)


def test_geometric_dpp_inclusions_small():
    tree, problem = control_free_b_terminal(n=2, T=0.5)
    ys = np.array([-0.5, 0.0, 0.5])
    report = check_geometric_dpp(problem, tree, 0, 1, eps=0.1, y_points=ys,
                                 z_values=(0.0, 1.0))
    assert report.nodal_count == 1
    assert report.steerable_count == 1
    assert report.rho_into <= 0.1 + 1e-12
    assert report.rho_back <= 0.1 + 1e-12
    wide = check_geometric_dpp(problem, tree, 0, 1, eps=0.3, y_points=ys,
                               z_values=(0.0, 1.0))
    assert wide.nodal_count == 3
    assert wide.rho_into <= 0.3 + 1e-12
    assert wide.inclusions_hold


def test_csv_exports(tmp_path):
    grid = TimeGrid(T=0.5, n=2)
    dual = solve_dual_hjb(quad_spec(), grid, quad_config(h=0.5))
    grid_path = tmp_path / "grid.csv"
    export_dual_grid_csv(dual, str(grid_path))
    lines = grid_path.read_text().splitlines()
    assert lines[0] == "t,x,y,W"
    assert len(lines) == 1 + 5 * 5
    token = lines[1].split(",")[3]
    assert "e" in token and len(token.split("e")[0].replace("-", "").replace(".", "")) == 12

    xi = int(np.argmin(np.abs(dual.axes[0])))
    nodal = extract_nodal_set(dual, 0, x_index=xi, eps=0.3)
    nodal_path = tmp_path / "nodal.csv"
    export_nodal_set_csv(nodal, dual.times, str(nodal_path))
    nlines = nodal_path.read_text().splitlines()
    assert nlines[0] == "t,y"
    assert len(nlines) == 1 + len(nodal.points)


# ---------------------------------------------------------------------------
# batched steering kernel against the one-node-at-a-time walk it replaced


def _zmats(z_values, dpr, d):
    return [np.full((dpr, d), float(z)) if np.ndim(z) == 0
            else np.asarray(z, dtype=float).reshape(dpr, d) for z in z_values]


def _ref_step(problem, tree, j, node, x, z, u):
    """One node's explicit Euler forward step."""
    t = tree.grid.times()[j]
    ctx = NodeContext(level=j, b=tree.values[j][node:node + 1], tree=tree)
    fx = problem.f(t, ctx, x[None, :], z[None], np.full(1, u))
    return x - np.asarray(fx)[0] * tree.dt


def _ref_steer(problem, tree, level, node, y, stop, zu):
    """{node at stop: X} from X_level(node) = y under zu[(j, i)] = (z, u)."""
    nc = 2 ** tree.d
    xs = {node: y}
    for j in range(level, stop):
        nxt = {}
        for i, x in xs.items():
            z, u = zu[(j, i)]
            p = _ref_step(problem, tree, j, i, x, z, u)
            for c in range(nc):
                nxt[i * nc + c] = p + z @ tree.increments[c]
        xs = nxt
    return xs


def _ref_steerings(tree, level, node, stop, zmats, U, deterministic):
    """Every assignment of (z, u) pairs to the subtree slots in lexicographic
    order; one u per level when the controls are deterministic."""
    slots = [(j, i) for j in range(level, stop)
             for i in tree.descendants(level, node, j)]
    pairs = list(itertools.product(zmats, U))
    for a in itertools.product(range(len(pairs)), repeat=len(slots)):
        level_u = {(j, p % len(U)) for (j, _), p in zip(slots, a)}
        if deterministic and len(level_u) > stop - level:
            continue
        yield a, dict(zip(slots, (pairs[p] for p in a)))


def _ref_dual_value(problem, tree, level, node, y, z_values):
    n, dpr = tree.n, problem.value_dim
    y = np.asarray(y, dtype=float).reshape(dpr)
    leaves = tree.descendants(level, node, n)
    ctx = NodeContext(level=n, b=tree.values[n][leaves], tree=tree)
    xi = np.asarray(problem.terminal(ctx), dtype=float).reshape(-1, dpr)

    def cost(zu):
        xs = _ref_steer(problem, tree, level, node, y, n, zu)
        return float(np.mean(np.sum((np.stack([xs[i] for i in leaves]) - xi) ** 2,
                                    axis=1)))

    best, tag = np.inf, None
    for a, zu in _ref_steerings(tree, level, node, n, _zmats(z_values, dpr, tree.d),
                                problem.control_values, problem.deterministic_controls):
        val = cost(zu)
        if val < best:
            best, tag = val, a
    return best, tag


def _ref_geometric(problem, tree, k1, k2, eps, pts, z_values):
    zmats = _zmats(z_values, problem.value_dim, tree.d)
    rho_into = rho_back = 0.0
    nodal = steerable = 0
    for node in range(tree.node_count(k1)):
        for y in pts:
            best = np.inf
            for _, zu in _ref_steerings(tree, k1, node, k2, zmats, problem.control_values,
                                        problem.deterministic_controls):
                xs = _ref_steer(problem, tree, k1, node, y, k2, zu)
                worst = 0.0
                for i, x in xs.items():
                    w, _ = _ref_dual_value(problem, tree, k2, i, x, z_values)
                    worst = max(worst, w)
                    if worst >= best:
                        break
                best = min(best, worst)
            w1, _ = _ref_dual_value(problem, tree, k1, node, y, z_values)
            if w1 <= eps:
                nodal += 1
                rho_into = max(rho_into, best)
            if best <= eps:
                steerable += 1
                rho_back = max(rho_back, w1)
    return rho_into, rho_back, nodal, steerable


def _row_problem(dpr, a, c, k):
    """A generator and terminal that act row by row, nonlinear in y."""
    def f(t, ctx, y, z, u):
        return (a * y + 0.3 * np.sin(y[:, ::-1]) + c * z.sum(axis=2)
                + k * u[:, None] + 0.2 * t * ctx.b[:, :1])

    return BSDEProblem(
        value_dim=dpr, f=f,
        terminal=lambda ctx: (np.tanh(ctx.b.sum(axis=1, keepdims=True))
                              * np.arange(1.0, dpr + 1.0)),
        phi=lambda y: y[:, 0], control_values=(0.0,), lipschitz_L=1.0)


_GRID = (0.0, 0.5, -0.75)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_dual_value_matches_per_start_reference(data):
    d = data.draw(st.sampled_from((1, 2)), label="d")
    dpr = data.draw(st.sampled_from((1, 2)), label="dpr")
    depth = data.draw(st.integers(0, 4 if d == 1 else 2), label="depth")
    n = max(1, depth + data.draw(st.integers(0, 1), label="offset"))
    level = n - depth
    tree = build_tree(TimeGrid(T=0.5, n=n), d=d)
    problem = _row_problem(dpr, *data.draw(st.tuples(
        st.sampled_from((0.0, 0.5)), st.sampled_from((0.0, 0.4)),
        st.sampled_from((0.0, 0.4))), label="a, c, k"))
    slots = sum((2 ** d) ** k for k in range(depth))
    npairs = 1 if 2 ** slots > 64 else 2 if 4 ** slots > 64 else 4
    nz = data.draw(st.integers(1, min(2, npairs)), label="nz")
    nu = data.draw(st.integers(1, npairs // nz), label="nu")
    problem.control_values = tuple(data.draw(
        st.lists(st.sampled_from((0.0, 1.0, -0.5)), min_size=nu, max_size=nu)))
    problem.deterministic_controls = data.draw(st.booleans(), label="deterministic")
    entry = st.sampled_from(_GRID)
    z_values = tuple(data.draw(st.one_of(
        entry, st.lists(entry, min_size=dpr * d, max_size=dpr * d).map(
            lambda v: np.reshape(v, (dpr, d))))) for _ in range(nz))
    starts = data.draw(st.integers(1, 5), label="starts")
    nodes = np.array(data.draw(st.lists(
        st.integers(0, tree.node_count(level) - 1), min_size=starts,
        max_size=starts)))
    ys = np.array(data.draw(st.lists(
        st.one_of(entry, st.floats(-1.5, 1.5)), min_size=starts * dpr,
        max_size=starts * dpr))).reshape(starts, dpr)
    per_chunk = data.draw(st.sampled_from((None, 1, 2, 3)), label="starts per chunk")

    count = nz ** slots * nu ** (depth if problem.deterministic_controls else slots)
    with pytest.MonkeyPatch.context() as mp:
        if per_chunk is not None:
            mp.setattr(duality, "_CHUNK_FLOATS",
                       per_chunk * count * 2 ** (d * depth) * dpr)
        values, tags = dual_value_direct(problem, tree, level, nodes, ys, z_values)
    ref = [_ref_dual_value(problem, tree, level, int(i), y, z_values)
           for i, y in zip(nodes, ys)]
    assert [float(v).hex() for v in values] == [v.hex() for v, _ in ref]
    assert tags == [tag for _, tag in ref]


def test_exact_ties_keep_the_first_assignment():
    tree = build_tree(TimeGrid(T=0.5, n=2), d=1)
    problem = _row_problem(1, 0.5, 0.0, 0.0)   # f ignores z and u
    problem.control_values = (0.0, 1.0)
    # one z value twice: all 4^3 assignments tie exactly
    z_values = (0.7, 0.7)
    values, tags = dual_value_direct(problem, tree, 0, np.array([0, 0]),
                                     np.array([[0.1], [-0.3]]), z_values)
    assert tags == [(0, 0, 0), (0, 0, 0)]
    for value, y in zip(values, (0.1, -0.3)):
        assert value == _ref_dual_value(problem, tree, 0, 0, [y], z_values)[0]


def test_nan_costs_never_win_and_all_inf_rows_keep_no_tag():
    tree = build_tree(TimeGrid(T=0.5, n=1), d=1)
    problem = BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.where(u[:, None] > 0, np.nan, 0.0) + 0.0 * y,
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0], control_values=(1.0, 0.0), lipschitz_L=0.0)
    val, tag = dual_value_direct(problem, tree, 0, np.array([0]), np.array([[0.2]]),
                                 (0.0,))
    assert tag == [(1,)]
    assert val[0] == _ref_dual_value(problem, tree, 0, 0, [0.2], (0.0,))[0]
    problem.control_values = (1.0,)
    values, tags = dual_value_direct(problem, tree, 0, np.array([0]), np.array([[0.2]]),
                                     (0.0,))
    assert values.tolist() == [np.inf] and tags == [None]


def test_steering_cap_raises_before_any_generator_call(enumeration_cap):
    calls = []

    def f(t, ctx, y, z, u):
        calls.append(len(y))
        return np.zeros_like(y)

    tree = build_tree(TimeGrid(T=0.5, n=3), d=1)
    problem = BSDEProblem(value_dim=1, f=f, terminal=lambda ctx: ctx.b[:, :1].copy(),
                          phi=lambda y: y[:, 0], control_values=(0.0, 1.0),
                          lipschitz_L=0.0)
    # 7 slots with 4 (z, u) pairs each: 4^7 = 16384 assignments
    with enumeration_cap(1000):
        with pytest.raises(EnumerationCapError,
                           match="16384 steering assignments exceed cap 1000"):
            dual_value_direct(problem, tree, 0, np.arange(1), np.zeros((1, 1)),
                              (0.0, 1.0))
        with pytest.raises(EnumerationCapError):
            check_geometric_dpp(problem, tree, 0, 1, 0.1, [0.0], (0.0, 1.0))
    assert calls == []


def test_geometric_dpp_matches_per_start_reference(monkeypatch):
    tree = build_tree(TimeGrid(T=0.75, n=3), d=1)
    problem = _row_problem(1, 0.5, 0.4, 0.4)
    problem.control_values = (0.0, 1.0)
    pts = np.linspace(-1.0, 1.0, 5)
    # two starts per chunk at k1 (4 segment assignments x 2 successors)
    monkeypatch.setattr(duality, "_CHUNK_FLOATS", 2 * 4 * 2)
    rep = check_geometric_dpp(problem, tree, 1, 2, 0.4, pts, (0.0, 0.6))
    rho_into, rho_back, nodal, steerable = _ref_geometric(
        problem, tree, 1, 2, 0.4, pts[:, None], (0.0, 0.6))
    assert (rep.rho_into.hex(), rep.rho_back.hex()) == (rho_into.hex(), rho_back.hex())
    assert (rep.nodal_count, rep.steerable_count) == (nodal, steerable)
    assert nodal > 0 and steerable > 0


def test_steering_takes_one_control_per_level_under_deterministic_controls(
        enumeration_cap):
    # the geometric-dpp steering problem declares deterministic controls: at
    # level 6 of 8 its three subtree slots take 2^2 assignments, not 2^3
    _, problem, z_values, _ = geometric_dpp_cases()[1]
    tree = build_tree(TimeGrid(T=2.0, n=8), d=1)
    start = (np.array([0]), np.array([[0.5, 0.5]]))
    with enumeration_cap(3), pytest.raises(
            EnumerationCapError, match="^4 steering assignments exceed cap 3$"):
        dual_value_direct(problem, tree, 6, *start, z_values)
    with enumeration_cap(4):
        (value,), (tag,) = dual_value_direct(problem, tree, 6, *start, z_values)
    assert tag[1] == tag[2]  # the two level-7 slots share their control
    assert value == _ref_dual_value(problem, tree, 6, 0, [0.5, 0.5], z_values)[0]
    problem.deterministic_controls = False
    with enumeration_cap(4), pytest.raises(
            EnumerationCapError, match="^8 steering assignments exceed cap 4$"):
        dual_value_direct(problem, tree, 6, *start, z_values)


def test_geometric_dpp_fails_when_no_probe_is_in_a_nodal_set():
    tree, problem = control_free_b_terminal(n=2, T=0.5)
    report = check_geometric_dpp(problem, tree, 0, 1, eps=0.1,
                                 y_points=np.array([5.0, 6.0]), z_values=(0.0, 1.0))
    assert report.nodal_count == 0 and report.steerable_count == 0
    assert np.isfinite(report.rho_into) and np.isfinite(report.rho_back)
    assert not report.inclusions_hold
