import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treebsde.lattice import (
    TimeGrid, build_tree, conditional_expectation, path_functional,
    TreeSizeError, ModeError, node_histories, node_path,
    step_expectation,
)


def test_single_step_tree_leaves():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")
    assert tree.node_count(0) == 1
    assert tree.node_count(1) == 2
    np.testing.assert_allclose(np.sort(tree.values[1].ravel()), [-1.0, 1.0])


def test_recombining_level_sizes():
    tree = build_tree(TimeGrid(1.0, 2), 1, "recombining")
    assert [tree.node_count(k) for k in range(3)] == [1, 2, 3]


def test_path_leaf_probabilities():
    tree = build_tree(TimeGrid(1.0, 3), 1, "path")
    assert tree.node_count(3) == 8
    np.testing.assert_allclose(tree.probs[3], 1.0 / 8)


def test_root_is_zero():
    for mode in ("path", "recombining"):
        tree = build_tree(TimeGrid(2.0, 4), 2, mode)
        np.testing.assert_array_equal(tree.values[0], np.zeros((1, 2)))


def test_cap_enforced():
    with pytest.raises(TreeSizeError, match="22"):
        build_tree(TimeGrid(1.0, 23), 1, "path")
    with pytest.raises(TreeSizeError):
        build_tree(TimeGrid(1.0, 12), 2, "path")


def test_probabilities_sum_to_one():
    for mode, n, d in [("path", 8, 1), ("path", 5, 2), ("recombining", 256, 1),
                       ("recombining", 40, 2)]:
        tree = build_tree(TimeGrid(1.5, n), d, mode)
        for k in range(n + 1):
            assert abs(tree.probs[k].sum() - 1.0) < 1e-12


def test_martingale_property():
    tree = build_tree(TimeGrid(1.0, 6), 1, "path")
    for k in (0, 2, 4):
        ek = conditional_expectation(tree, 6, tree.values[6][:, 0], k)
        np.testing.assert_allclose(ek, tree.values[k][:, 0], atol=1e-14)


def test_b_squared_expectation():
    tree = build_tree(TimeGrid(1.0, 5), 1, "path")
    assert abs(conditional_expectation(tree, 5, tree.values[5][:, 0] ** 2, 0)[0]
               - 1.0) < 1e-14


def test_constant_preserved():
    tree = build_tree(TimeGrid(1.0, 4), 2, "recombining")
    np.testing.assert_array_equal(
        conditional_expectation(tree, 4, np.full(tree.node_count(4), 3.25), 1), 3.25)


def test_tower_property_bit_identical():
    tree = build_tree(TimeGrid(2.0, 7), 1, "path")
    rng = np.random.default_rng(3)
    values = rng.normal(size=tree.node_count(7))
    direct = conditional_expectation(tree, 7, values, 1)
    mid = conditional_expectation(tree, 7, values, 4)
    two_stage = conditional_expectation(tree, 4, mid, 1)
    np.testing.assert_array_equal(direct, two_stage)


def test_increment_independence():
    tree = build_tree(TimeGrid(1.0, 5), 2, "path")
    rng = np.random.default_rng(0)
    for k in range(5):
        g = rng.normal(size=tree.node_count(k))
        inc_mean = step_expectation(
            tree, k, tree.values[k + 1]) - tree.values[k]
        corr = (tree.probs[k] * g)[:, None] * inc_mean
        assert np.abs(corr.sum(axis=0)).max() < 1e-14


def test_increment_square_is_dt():
    for mode in ("path", "recombining"):
        tree = build_tree(TimeGrid(0.7, 4), 2, mode)
        dt = tree.dt
        for k in range(4):
            cv = tree.child_values(k, tree.values[k + 1])
            db = cv - tree.values[k][:, None, :]
            np.testing.assert_allclose((db ** 2).mean(axis=1), dt, atol=1e-14)


def test_mode_agreement_markovian():
    # conditional expectations of h(B_t) agree between modes at matching nodes
    grid = TimeGrid(1.0, 6)
    pt = build_tree(grid, 1, "path")
    rt = build_tree(grid, 1, "recombining")
    h = lambda b: np.cos(b) + b ** 3
    ep = conditional_expectation(pt, 6, h(pt.values[6][:, 0]), 3)
    er = conditional_expectation(rt, 6, h(rt.values[6][:, 0]), 3)
    for i, b in enumerate(pt.values[3][:, 0]):
        j = np.argmin(np.abs(rt.values[3][:, 0] - b))
        assert abs(ep[i] - er[j]) < 1e-12


def test_path_functional_terminal_and_running_max():
    tree = build_tree(TimeGrid(1.0, 2), 1, "path")  # dt = 0.5
    # node (2, 2) is (+, -): path 0, +sqrt(.5), 0
    val = path_functional(tree, (2, 2), lambda t, p: p[-1, 0])
    assert abs(val - 0.0) < 1e-14
    mx = path_functional(tree, (2, 2), lambda t, p: np.abs(p[:, 0]).max())
    assert abs(mx - np.sqrt(0.5)) < 1e-14


def test_path_functional_left_endpoint_integral():
    tree = build_tree(TimeGrid(1.0, 1), 1, "path")
    integral = path_functional(
        tree, (1, 1), lambda t, p: (p[:-1, 0] * np.diff(t)).sum())
    assert integral == 0.0


def test_path_functional_mode_error():
    tree = build_tree(TimeGrid(1.0, 3), 1, "recombining")
    with pytest.raises(ModeError):
        path_functional(tree, (2, 1), lambda t, p: p[-1, 0])
    # current-value functionals are fine
    v = path_functional(tree, (2, 1), lambda t, p: p[-1, 0], current_value_only=True)
    assert abs(v - 0.0) < 1e-14


def test_descendants_contiguous_path_indices():
    t1 = build_tree(TimeGrid(1.0, 3), 1, "path")
    assert list(t1.descendants(1, 1, 1)) == [1]
    assert list(t1.descendants(1, 1, 2)) == [2, 3]
    assert list(t1.descendants(1, 0, 3)) == [0, 1, 2, 3]
    assert list(t1.descendants(0, 0, 2)) == [0, 1, 2, 3]
    t2 = build_tree(TimeGrid(1.0, 2), 2, "path")
    assert list(t2.descendants(0, 0, 1)) == [0, 1, 2, 3]
    assert list(t2.descendants(1, 2, 2)) == [8, 9, 10, 11]
    assert list(t2.descendants(1, 3, 2)) == [12, 13, 14, 15]
    # every descendant's path passes through the ancestor
    for i in t2.descendants(1, 2, 2):
        np.testing.assert_array_equal(node_path(t2, 2, i)[1], node_path(t2, 1, 2)[1])
    with pytest.raises(ModeError):
        build_tree(TimeGrid(1.0, 3), 1, "recombining").descendants(1, 0, 2)


def test_node_path_matches_values():
    tree = build_tree(TimeGrid(1.0, 4), 2, "path")
    for node in (0, 7, 100, 255):
        p = node_path(tree, 4, node)
        np.testing.assert_allclose(p[-1], tree.values[4][node], atol=1e-14)


def _walked_path(tree, level, node):
    """Root-to-node path summed from the child increments, earliest step first."""
    nc = 2 ** tree.d
    path = np.zeros((level + 1, tree.d))
    for k in range(level):
        path[k + 1] = path[k] + tree.increments[(node // nc ** (level - 1 - k)) % nc]
    return path


def test_node_histories_rows_are_the_node_paths_bit_for_bit():
    for d in (1, 2, 3):
        tree = build_tree(TimeGrid(1.0, 4), d, "path")
        for level in range(tree.n + 1):
            hist = node_histories(tree, level)
            assert hist.shape == (tree.node_count(level), level + 1, d)
            for i in range(tree.node_count(level)):
                walked = _walked_path(tree, level, i).tobytes()
                assert hist[i].tobytes() == walked
                assert node_path(tree, level, i).tobytes() == walked


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
def test_tower_property_random(n, d, seed):
    tree = build_tree(TimeGrid(1.0, n), d, "path")
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(tree.node_count(n), 2))
    for k in range(n):
        direct = conditional_expectation(tree, n, values, k)
        staged = conditional_expectation(
            tree, k + 1, conditional_expectation(tree, n, values, k + 1), k)
        np.testing.assert_array_equal(direct, staged)
    assert abs(tree.probs[n].sum() - 1.0) < 1e-12
