"""The problem catalogue hands every caller fresh, unshared objects, and its
declared bounds hold where the shipped configs use them."""
import dataclasses
import itertools
import pathlib

import numpy as np
import pytest

from treebsde import duality, experiments, problems
from treebsde.benchmarks import BenchmarkError
from treebsde.bsde import BSDEProblem, probe_lipschitz
from treebsde.dynutil import LinearUtilityCoeffs
from treebsde.experiments import load_config, run_experiment
from treebsde.lattice import TimeGrid, build_tree

CONSTRUCTORS = (
    problems.geometric_dpp_cases, problems.scalar_drift_problem,
    problems.coupled_two_dim_problem, problems.level_controls_problem,
    problems.control_free_problem, problems.exp_cylinder, problems.linear_setup,
    problems.switch_coeffs, problems.transport_dual_spec, problems.quadratic_dual_spec,
)


def _objects(built):
    """Every object and array in a constructor's return value, in order."""
    if isinstance(built, tuple):
        return [obj for item in built for obj in _objects(item)]
    return [] if isinstance(built, (str, float)) else [built]


def _arrays(objects):
    """The returned arrays plus the coefficient arrays a linear utility hands out."""
    b = np.zeros(1)
    return ([obj for obj in objects if isinstance(obj, np.ndarray)]
            + [fn(0.0, b) for obj in objects if isinstance(obj, LinearUtilityCoeffs)
               for fn in (obj.alpha, obj.beta)])


@pytest.mark.parametrize("make", CONSTRUCTORS, ids=lambda f: f.__name__)
def test_each_call_returns_fresh_objects(make):
    tree = build_tree(TimeGrid(1.0, 2), d=1, mode="path")
    first = _objects(make())
    expected = [a.copy() for a in _arrays(first)]
    for obj in first:
        if isinstance(obj, BSDEProblem):
            probe_lipschitz(obj, tree)
            assert obj._lip_checked
    for a in _arrays(first):
        a += 1.0
    second = _objects(make())
    assert first and len(first) == len(second)
    for a, b in zip(first, second):
        assert a is not b
        assert not getattr(b, "_lip_checked", False)
    fresh = _arrays(second)
    assert len(fresh) == len(expected)
    for a, e in zip(fresh, expected):
        np.testing.assert_array_equal(a, e)


@pytest.mark.parametrize("identifier,T", [("deterministic", 2.0), ("one_dim", 2.4),
                                          ("mean_variance", 1.0), ("principal_agent", 1.0)])
def test_benchmark_builds_a_fresh_problem_at_the_given_horizon(identifier, T):
    first, second = problems.benchmark(identifier, T), problems.benchmark(identifier, T)
    assert first.identifier == second.identifier == identifier
    assert first is not second and first.problem is not second.problem
    assert first.optimal_value == second.optimal_value
    if identifier == "one_dim":
        assert first.optimal_value == 0.0  # c = T
    with pytest.raises(BenchmarkError, match="unknown benchmark 'nope'"):
        problems.benchmark("nope", T)


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"
DUALITY_CONFIGS = sorted(path.stem for path in CONFIGS.glob("*.json")
                         if load_config(str(path)).experiment == "duality")


class _Captured(Exception):
    pass


@pytest.mark.parametrize("name", DUALITY_CONFIGS)
def test_declared_dual_bounds_hold_on_each_shipped_duality_grid(name, monkeypatch,
                                                                tmp_path):
    # the solve trusts f_bound for its CFL rate, so sample |f| where the
    # shipped run would: every grid point, every tree-level time, every
    # control and every z of the config
    seen = []

    def capture(spec, grid, config):
        seen.append((spec, grid, config))
        raise _Captured

    monkeypatch.setattr(experiments, "solve_dual_hjb", capture)
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    with pytest.raises(_Captured):
        run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path)))
    (spec, grid, config), = seen
    if isinstance(spec, duality.DeterministicDualSpec):
        ys = duality._axis(config.y_bounds, config.dy)
        # component-first, as the solve's blocks see their points
        pts = np.moveaxis(np.stack(np.meshgrid(ys, ys, indexing="ij")), 0, -1)
        samples = (np.abs(spec.f(t, pts, u)).max(axis=(0, 1))
                   for t, u in itertools.product(grid.times(), spec.control_values))
        bound = np.broadcast_to(spec.f_bound, (2,))
    else:
        X, Y = np.meshgrid(duality._axis(config.x_bounds, config.dx),
                           duality._axis(config.y_bounds, config.dy), indexing="ij")
        samples = (np.abs(np.asarray(spec.f(t, X, Y, z, u))).max()
                   for t, u, z in itertools.product(grid.times(), spec.control_values,
                                                    config.z_values))
        bound = spec.f_bound
    fmax = np.max(list(samples), axis=0)
    assert np.all(fmax <= bound), (fmax, bound)
