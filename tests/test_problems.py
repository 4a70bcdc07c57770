"""The problem catalogue hands every caller fresh, unshared objects."""
import numpy as np
import pytest

from treebsde import problems
from treebsde.benchmarks import BenchmarkError
from treebsde.bsde import BSDEProblem, probe_lipschitz
from treebsde.dynutil import LinearUtilityCoeffs
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
