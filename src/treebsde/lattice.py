"""Discrete Brownian scenario trees.

Brownian motion is approximated by a symmetric +/-sqrt(dt) walk in d coordinates:
every non-terminal node has 2^d equiprobable children, one per sign pattern.
Conditional expectations are exact finite sums, so dynamic-programming identities
can be tested to machine precision.

Node indexing is level-major. In path mode, the node index at level k encodes the
sign sequence lexicographically (earliest step most significant, coordinate 0 most
significant within a step, "-" before "+"), so the children of node j are
j*2^d + c for c in 0..2^d-1 and the descendants of a node at any later level form
one contiguous index range (ScenarioTree.descendants). In recombining mode, nodes
are up-count tuples (u_0,...,u_{d-1}) flattened in C order, and the coordinate
value is (2u - k)*sqrt(dt).

Time integrals use the left-endpoint Riemann sum h_{t_k}*dt throughout the package.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

PATH_CAP = 22  # max n*d in path mode (2^(n*d) leaves)


class TreeSizeError(ValueError):
    """Requested tree exceeds the path-mode cap."""


class ModeError(ValueError):
    """Operation not available in this tree mode."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n steps; dt is derived as T/n."""

    T: float
    n: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.n < 1:
            raise ValueError(f"step count n must be >= 1, got {self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Immutable scenario tree; build with build_tree."""

    grid: TimeGrid
    d: int
    mode: str
    values: tuple          # level k -> (m_k, d) Brownian values
    probs: tuple           # level k -> (m_k,) probabilities, sum 1 per level
    child_index: tuple     # recombining: level k -> (m_k, 2^d) child indices; path: None
    increments: np.ndarray  # (2^d, d) child increment patterns, +/- sqrt(dt)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def dt(self) -> float:
        return self.grid.dt

    def node_count(self, level: int) -> int:
        return self.values[level].shape[0]

    def child_values(self, level: int, arr: np.ndarray) -> np.ndarray:
        """Gather level+1 values into shape (m_level, 2^d, ...)."""
        if self.mode == "path":
            m = self.node_count(level)
            return arr.reshape((m, 2 ** self.d) + arr.shape[1:])
        return arr[self.child_index[level]]

    def descendants(self, level: int, node: int, j: int) -> range:
        """Indices at level j >= level of the path-mode descendants of (level, node)."""
        if self.mode != "path":
            raise ModeError("recombining nodes have shared descendants; "
                            "subtree indexing needs path mode")
        span = 2 ** (self.d * (j - level))
        return range(node * span, (node + 1) * span)


def build_tree(grid: TimeGrid, d: int, mode: str = "path") -> ScenarioTree:
    """Construct the +/-sqrt(dt) scenario tree.

    path mode: 2^(k*d) nodes at level k, capped at n*d <= PATH_CAP.
    recombining mode: (k+1)^d nodes at level k.
    """
    if d < 1:
        raise ValueError(f"brownian_dim d must be >= 1, got {d}")
    if mode not in ("path", "recombining"):
        raise ValueError(f"mode must be 'path' or 'recombining', got {mode!r}")
    n, dt = grid.n, grid.dt
    sq = np.sqrt(dt)
    nc = 2 ** d
    # increment patterns, coordinate 0 most significant, bit 1 = "+"
    bits = (np.arange(nc)[:, None] >> np.arange(d - 1, -1, -1)[None, :]) & 1
    inc = (2.0 * bits - 1.0) * sq

    values, probs, children = [], [], []
    if mode == "path":
        if n * d > PATH_CAP:
            raise TreeSizeError(
                f"path tree needs 2^(n*d) = 2^{n * d} leaves; cap is n*d <= {PATH_CAP}"
            )
        v = np.zeros((1, d))
        p = np.ones(1)
        values.append(v)
        probs.append(p)
        for _ in range(n):
            children.append(None)
            v = (v[:, None, :] + inc[None, :, :]).reshape(-1, d)
            p = np.repeat(p / nc, nc)
            values.append(v)
            probs.append(p)
        children.append(None)
    else:
        # per-axis binomial probabilities via the pascal recursion (dyadic, near-exact)
        pb = np.ones(1)
        for k in range(n + 1):
            ax = (2.0 * np.arange(k + 1) - k) * sq
            grids = np.meshgrid(*([ax] * d), indexing="ij")
            values.append(np.stack([g.ravel() for g in grids], axis=-1))
            pg = pb
            for _ in range(d - 1):
                pg = np.multiply.outer(pg, pb)
            probs.append(pg.ravel())
            if k < n:
                up = np.stack(
                    np.meshgrid(*([np.arange(k + 1)] * d), indexing="ij"), axis=-1
                ).reshape(-1, d)
                ch = np.empty((up.shape[0], nc), dtype=np.int64)
                for c in range(nc):
                    child_up = up + bits[c]
                    ch[:, c] = np.ravel_multi_index(child_up.T, (k + 2,) * d)
                children.append(ch)
                nxt = np.zeros(k + 2)
                nxt[:-1] += pb / 2
                nxt[1:] += pb / 2
                pb = nxt
            else:
                children.append(None)
    return ScenarioTree(
        grid=grid, d=d, mode=mode,
        values=tuple(values), probs=tuple(probs),
        child_index=tuple(children), increments=inc,
    )


def step_expectation(tree: ScenarioTree, level: int, arr: np.ndarray) -> np.ndarray:
    """One-step conditional expectation: level+1 values -> level values."""
    return tree.child_values(level, arr).mean(axis=1)


def conditional_expectation(tree: ScenarioTree, level: int, values: np.ndarray,
                            target_level: int) -> np.ndarray:
    """E[values | F_{target_level}] for values on the nodes of a level, shape
    (m_level,) or (m_level, d'): the exact average over descendants.

    Iterates one-step averages, so the tower property holds bit-identically.
    """
    if not 0 <= target_level <= level <= tree.n:
        raise ValueError(
            f"need 0 <= target {target_level} <= level {level} <= {tree.n}"
        )
    if values.shape[0] != tree.node_count(level):
        raise ValueError("values do not match the node count at their level")
    arr = values
    for k in range(level - 1, target_level - 1, -1):
        arr = step_expectation(tree, k, arr)
    return arr


def node_histories(tree: ScenarioTree, level: int) -> np.ndarray:
    """(m, level+1, d) ancestor value stacks; current values only when recombining."""
    if tree.mode != "path":
        return tree.values[level][:, None, :]
    nodes = np.arange(tree.node_count(level))
    return np.stack([tree.values[l][nodes >> (tree.d * (level - l))]
                     for l in range(level + 1)], axis=1)


def node_path(tree: ScenarioTree, level: int, node: int) -> np.ndarray:
    """The discrete path (level+1, d) from the root to a path-mode node."""
    if tree.mode != "path":
        raise ModeError("recombining nodes do not determine a path")
    return node_histories(tree, level)[node]


def path_functional(tree: ScenarioTree, node, functional, current_value_only: bool = False):
    """Evaluate functional(times, path) on the discrete path to node = (level, index).

    The path is the piecewise-constant (left-endpoint) record of the walk including
    the root row. In recombining mode only current-value functionals are allowed,
    declared via current_value_only; they receive the single-row path at the node.
    """
    level, idx = node
    times = tree.grid.times()[: level + 1]
    if tree.mode == "recombining":
        if not current_value_only:
            raise ModeError(
                "path-dependent functionals require path mode; pass "
                "current_value_only=True for functionals of the current value"
            )
        return functional(times[-1:], tree.values[level][idx][None, :])
    return functional(times, node_path(tree, level, idx))
