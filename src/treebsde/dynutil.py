"""Dynamic utility functions with a two-component linear weight construction.

A dynamic utility assigns to each (time level, node) a function of the value
vector, reducing the two-dimensional control problem to a scalar one. The
utility Phi_t built from a deterministic generator, by maximizing phi(Y_0)
over the controls on [0, t), is the forward value Psi(t, .) with the same eta
on every node: master.ForwardValue computes it, in one place. This module
provides:

  * check_comparison: a node-wise order-preservation diagnostic between two
    terminal variables under max-over-policies evaluation;
  * build_linear_utility: weights Phi(t,y) = A^1_t y_1 + A^2_t y_2 where the
    ratio of the active to the frozen weight follows a cubic-drift /
    quadratic-volatility SDE, restarted by inversion each time |ratio| hits 2
    (regime switching). A grid is refused (StepSizeError) when the a priori
    one-step ratio change exceeds the overshoot limit, OVERSHOOT_LIMIT unless
    build_linear_utility is given another, so a switching step ends with
    |ratio| at most 2 + limit. On a tree the children weights are constructed
    so the contracted scalar recursion holds exactly; on an Euler ensemble the
    truncated SDE is simulated with Rademacher increments +-sqrt(dt), whose
    sign is the top bit of one 32-bit word of the Philox(seed) stream per path
    and step, the low half of each 64-bit output first (the bits of one
    rng.integers(0, 2, paths) draw per step), read one block of steps at a
    time into one reused buffer. The ensemble stores only its switch record
    (switch_events): per (level, path) event the rank, the ratio after the
    switch and both weights at the switch level and the level before, in
    O(paths + switches) memory. Its per-level weights, parity, anchor, ratio
    and switch flags are re-iterables: each iteration replays the whole level
    stream from the same seed. A tree stores every level. Every array of
    either mode is read-only.
  * switch_events / replay_paths: the same seeded Euler ensemble streamed level
    by level with O(paths) state, keeping only the switch record, or only a
    few chosen paths, under OVERSHOOT_LIMIT;
  * verify_tau_bound: Monte Carlo check of the switching-time tail bound
    P(tau_n < T) <= (2n)^m / 2^n with m*delta < T <= (m+1)*delta, delta = 1/(2C),
    C fitted from a pilot simulation of the one-regime truncated SDE; it reads
    the switch events only, so it runs in O(paths) memory;
  * check_linear_comparison: order preservation of the contracted scalar
    process for the declared linear generator, plus the exact-recursion residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from treebsde.artifacts import write_csv
from treebsde.lattice import ScenarioTree, TimeGrid
from treebsde.bsde import (
    BSDEProblem,
    NodeContext,
    PolicySpace,
    ProblemValidationError,
    StructureError,
    _search,
    _solve_chunks,
)


class DegenerateUtilityError(ValueError):
    """Both initial weights vanish: the static value is 0 and no construction is needed."""


class StepSizeError(ValueError):
    """Euler step too coarse for the requested regime-band overshoot."""


# Largest a priori one-step change of the regime ratio that an Euler ensemble
# accepts: a switch then lands with |ratio| in [2, 2 + OVERSHOOT_LIMIT].
OVERSHOOT_LIMIT = 0.1


@dataclass(frozen=True)
class DynamicUtility:
    """evaluate(level, y) -> (k,) utility values; phi is the t=0 slice.

    y has shape (k, d'), k a multiple of the level's node count m: rows come in
    (assignment, node) order, row r at node r mod m, as the batched searches
    stack them. Every construction satisfies evaluate(0, y) == phi(y) exactly.
    """

    evaluate: object
    phi: object
    value_dim: int


def static_utility(phi, value_dim: int) -> DynamicUtility:
    """The time-independent utility Phi(t, y) = phi(y) (control group in tests)."""
    def evaluate(level, y):
        return np.asarray(phi(np.asarray(y, dtype=float).reshape(-1, value_dim)),
                          dtype=float).reshape(-1)
    return DynamicUtility(evaluate=evaluate, phi=phi, value_dim=value_dim)


# ---------------------------------------------------------------------------
# comparison diagnostic


@dataclass(frozen=True)
class ComparisonReport:
    checked: int
    skipped: int
    violations: tuple   # (pair index, node, lhs, rhs)
    # max over checked pairs/nodes of lhs - rhs; NaN when no pair was checked,
    # so a pass needs checked > 0 and no violations, not a small slack alone
    worst_slack: float


def check_comparison(utility: DynamicUtility, problem: BSDEProblem,
                     tree: ScenarioTree, t1: int, t2: int, pairs) -> ComparisonReport:
    """Order preservation of eta -> max-over-policies utility(t1, Y_{t1}(t2, eta)).

    Pairs failing the premise utility(t2, eta) <= utility(t2, eta~) node-wise are
    skipped and counted. For qualifying pairs the node-wise inequality at t1 must
    hold within tol = 1e-10; violations are listed.
    """
    if not 0 <= t1 < t2 <= tree.n:
        raise ValueError(f"need 0 <= t1 < t2 <= n, got {t1}, {t2}")
    tol = 1e-10
    checked = skipped = 0
    violations, worst = [], -np.inf
    space = PolicySpace(problem, tree, t1, t2)

    def level_values(eta):
        return _search(problem, space, lambda yy: utility.evaluate(t1, yy), eta)[0]

    for idx, (eta, eta_t) in enumerate(pairs):
        eta = np.asarray(eta, dtype=float).reshape(tree.node_count(t2), -1)
        eta_t = np.asarray(eta_t, dtype=float).reshape(tree.node_count(t2), -1)
        u2 = utility.evaluate(t2, eta)
        u2t = utility.evaluate(t2, eta_t)
        if np.any(u2 > u2t + 1e-12):
            skipped += 1
            continue
        checked += 1
        lhs, rhs = level_values(eta), level_values(eta_t)
        worst = max(worst, float(np.max(lhs - rhs)))
        bad = np.nonzero(lhs > rhs + tol)[0]
        for node in bad:
            violations.append((idx, int(node), float(lhs[node]), float(rhs[node])))
    return ComparisonReport(checked=checked, skipped=skipped,
                            violations=tuple(violations),
                            worst_slack=worst if checked else np.nan)


# ---------------------------------------------------------------------------
# linear construction


@dataclass(frozen=True)
class LinearUtilityCoeffs:
    """Linear generator data f_i = sum_j alpha[i,j] y_j + sum_j beta[i,j] z_j + c_i(u).

    alpha(t, b) and beta(t, b) return (2, 2) (or (m, 2, 2)) arrays; c(t, b, u)
    returns (2,) or (m, 2), and from_constants sets c = 0. bound is the declared
    sup of the |alpha|, |beta| entries, validated by probes. Scalar noise
    (d = 1) is assumed throughout.
    """

    alpha: object
    beta: object
    c: object
    a1: float
    a2: float
    bound: float

    @staticmethod
    def from_constants(alpha, beta, a1: float, a2: float) -> "LinearUtilityCoeffs":
        al = np.array(alpha, dtype=float).reshape(2, 2)
        be = np.array(beta, dtype=float).reshape(2, 2)
        cv = np.zeros(2)
        bound = float(max(np.abs(al).max(), np.abs(be).max(), 1e-12))
        return LinearUtilityCoeffs(
            alpha=lambda t, b: al, beta=lambda t, b: be,
            c=lambda t, b, u: cv, a1=float(a1), a2=float(a2), bound=bound)


def _coeff_at(fn, t, b, m):
    return np.broadcast_to(np.asarray(fn(t, b), dtype=float), (m, 2, 2))


def _probe_bounds(coeffs: LinearUtilityCoeffs, T: float) -> None:
    if not np.isfinite(coeffs.bound):
        raise ProblemValidationError(
            f"declared coefficient bound {coeffs.bound} is not finite")
    for t in np.linspace(0.0, T, 5):
        for fn in (coeffs.alpha, coeffs.beta):
            arr = np.asarray(fn(t, np.zeros(1)), dtype=float)
            if np.abs(arr).max() > coeffs.bound * (1 + 1e-9):
                raise ProblemValidationError(
                    f"coefficient entry {np.abs(arr).max():.3g} exceeds declared "
                    f"bound {coeffs.bound}")


def riccati_polynomials(alpha, beta, parity: int):
    """(drift, volatility) coefficient arrays (x^3..1 / x^2..1) for the ratio SDE.

    parity 1: active component 1, frozen component 2; parity 2 swaps the roles.
    alpha, beta are (2, 2) (or (m, 2, 2)) arrays; returns arrays with a leading
    coefficient axis broadcastable over nodes.
    """
    i, j = (0, 1) if parity == 1 else (1, 0)
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    sig = np.stack([
        -be[..., i, j],
        be[..., i, i] - be[..., j, j],
        be[..., j, i],
    ])
    drift = np.stack([
        be[..., i, j] ** 2,
        -al[..., i, j] - be[..., i, j] * (be[..., i, i] - be[..., j, j])
        + be[..., i, j] * be[..., j, j],
        al[..., i, i] - al[..., j, j] - be[..., j, j] * (be[..., i, i] - be[..., j, j])
        - be[..., i, j] * be[..., j, i],
        al[..., j, i] - be[..., j, i] * be[..., j, j],
    ])
    return drift, sig


def _poly_eval(coeff, x, out=None):
    """Evaluate stacked polynomial coefficients (highest power first) at x.

    Horner from zeros, out * x + c_k in place; starting from c_0 instead would
    flip the sign of a -0.0 leading coefficient. out, when given, has the
    broadcast shape of coeff[0] and x and is overwritten. The Euler steps use
    _lead_eval, which skips the leading passes that cannot change a bit."""
    if out is None:
        out = np.zeros(np.broadcast_shapes(np.shape(coeff[0]), np.shape(x)))
    else:
        out.fill(0.0)
    for ck in coeff:
        np.multiply(out, x, out=out)
        np.add(out, ck, out=out)
    return out


def _lead_start(coeff) -> int:
    """Index k of the first coefficient of coeff with no zero entry, when every
    entry of c_0..c_{k-1} is zero; -1 when there is none, or when a coefficient
    before it is zero on some paths only."""
    for k, ck in enumerate(coeff):
        nonzero = ck != 0
        if nonzero.all():
            return k
        if nonzero.any():
            return -1
    return -1


def _lead_eval(poly, x, out):
    """_poly_eval(coeff, x, out) for poly = (coeff, _lead_start(coeff)), from
    c_k * x + c_{k+1} on (or a copy of c_k when it is the last coefficient).

    While every coefficient so far is zero, the Horner state at a finite x is
    a signed zero, and (+-0) * x + c_k is c_k bit for bit once c_k has no zero
    entry; the trailing + 0 passes stay, since they fix the sign of a zero.
    The Euler steps pass the clamped ratio, which is in [-2, 2] or NaN; at NaN
    the two results differ, but the ratio itself is NaN, so the next ratio is
    NaN either way. Start -1 runs the full Horner from zeros."""
    coeff, start = poly
    if start < 0:
        return _poly_eval(coeff, x, out)
    if start == len(coeff) - 1:
        np.copyto(out, coeff[start])
        return out
    np.multiply(coeff[start], x, out=out)
    np.add(out, coeff[start + 1], out=out)
    for ck in coeff[start + 2:]:
        np.multiply(out, x, out=out)
        np.add(out, ck, out=out)
    return out


class _RiccatiMemo:
    """riccati_polynomials(alpha, beta, parity) for each of `parities`, called
    again only when (alpha, beta) are not the values of the last call. Each
    polynomial comes as (coeff, _lead_start(coeff)), for _lead_eval.

    The key is a byte copy of the values the results were computed from, since
    a coefficient function may return one buffer that it rewrites. Reuse needs
    the same shapes and bits, so a sign flip of a zero entry (equal under
    np.array_equal) recomputes too, and NaN coefficients are never reused.
    """

    def __init__(self, parities):
        self.parities = parities
        self.key = None
        self.polys = None

    def __call__(self, al, be):
        key = (al.shape, al.tobytes(), be.shape, be.tobytes())
        if key != self.key:
            self.polys = [tuple((c, _lead_start(c))
                                for c in riccati_polynomials(al, be, p))
                          for p in self.parities]
            self.key = None if np.isnan(al).any() or np.isnan(be).any() else key
        return self.polys


@dataclass(frozen=True)
class SwitchingPath:
    """One realized weight path: ratio, regime parity, weights, switch markers."""

    times: np.ndarray
    ahat: np.ndarray
    parity: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    is_switch: np.ndarray
    switch_times: tuple
    overshoot: float

    def to_csv(self, path: str) -> None:
        write_csv(path, ("t", "Ahat", "regime", "A1", "A2", "is_switch"),
                  zip(self.times, self.ahat, self.parity, self.A1, self.A2,
                      self.is_switch))


def _weights(parity, anchor, ahat, swapped: bool):
    """(A1, A2) in the original component labels from the construction frame."""
    act = anchor * ahat
    first = parity == 1
    w1 = np.where(first, act, anchor)
    w2 = np.where(first, anchor, act)
    return (w2, w1) if swapped else (w1, w2)


def _switching_path(times, ahat, parity, anchor, is_switch, swapped: bool) -> SwitchingPath:
    """Assemble one path from its per-level columns (level 0 never switches)."""
    a1, a2 = _weights(parity, anchor, ahat, swapped)
    sw = is_switch[1:]
    # the new anchor is old_anchor * crossing ratio
    ratio = anchor[1:][sw] / anchor[:-1][sw]
    return SwitchingPath(times=times.copy(), ahat=ahat, parity=parity, A1=a1, A2=a2,
                         is_switch=is_switch,
                         switch_times=tuple(float(t) for t in times[is_switch]),
                         overshoot=float(np.max(np.abs(ratio) - 2.0, initial=0.0)))


@dataclass(frozen=True)
class LinearUtility:
    """Constructed linear weights on a tree or path ensemble, plus the utility."""

    coeffs: LinearUtilityCoeffs
    mode: str            # "tree" | "ensemble"
    times: np.ndarray
    # One read-only (m,) array per level: A1 and A2 are the weights in the
    # original component labels; ahat, parity, anchor and switch_flags are the
    # construction-frame ratio, regime, frozen weight and switch markers. A
    # tree stores tuples; an ensemble has _LevelFields, each iteration of which
    # replays the seeded level stream.
    A1: tuple | _LevelField
    A2: tuple | _LevelField
    ahat: tuple | _LevelField
    parity: tuple | _LevelField
    anchor: tuple | _LevelField
    switch_flags: tuple | _LevelField
    lam: tuple           # tree mode: level -> (m,) contraction factor 1 + alpha_hat*dt
    mu: tuple            # tree mode: level -> (m,) beta_hat*dt; both () for an ensemble
    overshoot: float
    swapped: bool
    utility: DynamicUtility | None  # None on an ensemble
    n_paths: int
    events: SwitchEvents | None  # an ensemble's switch record; None on a tree

    def path(self, i: int) -> SwitchingPath:
        """Path i of the ensemble, or the root-to-leaf-i path of the tree."""
        n = len(self.times) - 1
        tree = self.mode == "tree"
        levels = zip(self.ahat, self.parity, self.anchor, self.switch_flags)
        rows = [tuple(a[i >> (n - j) if tree else i] for a in level)
                for j, level in enumerate(levels)]
        return _switching_path(self.times, *(np.array(c) for c in zip(*rows)),
                               self.swapped)


def _max_step_estimate(coeffs: LinearUtilityCoeffs, T: float, dt: float) -> float:
    """Worst one-step ratio change of the clamped dynamics (grid-sampled sup)."""
    xs = np.linspace(-2.0, 2.0, 401)
    worst = 0.0
    for parity in (1, 2):
        for t in np.linspace(0.0, T, 5):
            al = np.asarray(coeffs.alpha(t, np.zeros(1)), dtype=float).reshape(2, 2)
            be = np.asarray(coeffs.beta(t, np.zeros(1)), dtype=float).reshape(2, 2)
            drift, sig = riccati_polynomials(al, be, parity)
            worst = max(worst,
                        float(np.abs(_poly_eval(drift, xs)).max()) * dt
                        + float(np.abs(_poly_eval(sig, xs)).max()) * np.sqrt(dt))
    return worst


def _normalize(coeffs: LinearUtilityCoeffs):
    """Apply the |a1| <= |a2| role swap; returns (alpha', beta', a1', a2', swapped)."""
    if coeffs.a1 == 0.0 and coeffs.a2 == 0.0:
        raise DegenerateUtilityError(
            "both initial weights are zero: the static value is 0 and the "
            "utility is trivial")
    swapped = abs(coeffs.a1) > abs(coeffs.a2)
    if not swapped:
        return coeffs.alpha, coeffs.beta, coeffs.a1, coeffs.a2, False
    perm = np.array([1, 0])

    def alpha_p(t, b):
        a = np.asarray(coeffs.alpha(t, b), dtype=float)
        return a[..., perm, :][..., :, perm]

    def beta_p(t, b):
        a = np.asarray(coeffs.beta(t, b), dtype=float)
        return a[..., perm, :][..., :, perm]

    return alpha_p, beta_p, coeffs.a2, coeffs.a1, True


def _checked_normalize(coeffs: LinearUtilityCoeffs, T: float, dt: float,
                       overshoot_limit: float):
    """Probe the declared bound, enforce the one-step overshoot limit, normalize."""
    _probe_bounds(coeffs, T)
    step_bound = _max_step_estimate(coeffs, T, dt)
    if step_bound > overshoot_limit:
        raise StepSizeError(
            f"one-step ratio change bound {step_bound:.3g} exceeds the overshoot "
            f"limit {overshoot_limit}; decrease dt")
    return _normalize(coeffs)


def _frame(a, first, r, s):
    """Entry (r, s) of each node's (2, 2) or (m, 2, 2) coefficients in its regime
    frame: a[r, s] where first (parity 1), both indices swapped elsewhere."""
    return np.where(first, a[..., r, s], a[..., 1 - r, 1 - s])


def _contraction(al, be, first, ah, dt):
    """(lam, mu) of the contracted scalar recursion at the current level."""
    lam = 1.0 + (_frame(al, first, 0, 1) * ah + _frame(al, first, 1, 1)) * dt
    mu = (_frame(be, first, 0, 1) * ah + _frame(be, first, 1, 1)) * dt
    return lam, mu


def _monotone(lam, mu, sdt) -> float:
    return min(float(np.min(lam + mu / sdt)), float(np.min(lam - mu / sdt)))


@dataclass(frozen=True)
class _Level:
    """Ensemble state at one grid level. overshoot belongs to the step into it (0
    at level 0). Every array of a level is read-only, and levels share the ones
    that did not change."""

    parity: np.ndarray
    anchor: np.ndarray
    ahat: np.ndarray
    switched: np.ndarray
    overshoot: float


def _frozen(a):
    a.flags.writeable = False
    return a


def _rows(poly, idx, n: int):
    """A (coeff, start) polynomial restricted to the paths idx; its start holds
    on every subset of the paths."""
    coeff, start = poly
    if coeff.ndim == 1:
        return poly
    return np.broadcast_to(coeff, coeff.shape[:1] + (n,))[:, idx], start


# Floats in one block of _increments: a block holds the most whole, even
# number of steps that fit, at least two. 2^14 read 4,096 steps of 2,000 paths
# in 39 ms against 52 ms at 2^13 (median of 9, 2-core x86-64 host), and tied
# with it at 10^4 paths, where every block holds two steps.
_DRAW_FLOATS = 1 << 14


def _increments(seed: int, n_paths: int, steps: int, sdt: float):
    """Yield the +-sdt Rademacher increments of `steps` Euler steps, one
    (n_paths,) row per step, equal bit for bit to rng.integers(0, 2, n_paths)
    * (2 sdt) - sdt drawn once per step from rng = default_rng(Philox(seed)).

    That draw keeps the top bit of one 32-bit word per path, and the 32-bit
    words are the low half, then the high half, of each 64-bit Philox output.
    So each block of steps reads its words with one Philox(seed).random_raw
    call. A block covers an even number of steps, so no 64-bit word straddles
    two blocks, even for an odd path count; only the last block may be odd,
    and it draws the whole word its last half sits in. The rows are views of
    one (steps per block, n_paths) buffer, made once and rewritten for each
    block: a row is valid until the next one is drawn. The only allocation per
    block is random_raw's output, freed before the block's first row is
    yielded.
    """
    bits = np.random.Philox(seed)
    per = max(2, (_DRAW_FLOATS // max(n_paths, 1)) & ~1)
    block = np.empty((min(per, steps), n_paths))
    for start in range(0, steps, per):
        k = min(per, steps - start)
        # little-endian words, so the low half comes first on any host
        halves = bits.random_raw((k * n_paths + 1) // 2).astype(
            "<u8", copy=False).view("<u4")[:k * n_paths]
        np.right_shift(halves, 31, out=halves)
        rows = block[:k]
        np.multiply(halves.reshape(k, n_paths), 2.0 * sdt, out=rows)
        np.subtract(rows, sdt, out=rows)
        # freed before the consumer allocates: words alive across a block's
        # steps leave holes among the per-level arrays a consumer keeps
        # (glibc malloc, tau-bound then dynamic-utility-linear in one process,
        # with the ratio kept at every level: peak RSS 124 MB instead of
        # 118 MB at 2,000 paths x 4,096 steps)
        del halves
        yield from rows


def _clamp(x, out):
    """np.clip(x, -2.0, 2.0, out=out) bit for bit, NaN included, as two ufunc
    calls without np.clip's Python-level dispatch."""
    np.maximum(x, -2.0, out=out)
    return np.minimum(out, 2.0, out=out)


def _euler_levels(alpha, beta, a1: float, a2: float, times, dt: float,
                  n_paths: int, seed: int):
    """Yield the Euler ensemble of the truncated ratio SDE level by level.

    Only the current level is held (parity, anchor, ratio and the Brownian path,
    one (n_paths,) array each). Step j's increment is row j of
    _increments(seed, ...): the top bit of one 32-bit word of the Philox(seed)
    stream per path, low half of each 64-bit output first, read one block of
    steps at a time into one reused buffer; so every run of the same arguments
    replays the same paths, and they equal one rng.integers(0, 2, n_paths)
    draw per step.
    alpha and beta are read once per step as returned, (2, 2) or (m, 2, 2);
    the Riccati coefficients are reused while those values stay the same bits
    (_RiccatiMemo). Each path's polynomials are evaluated in its own regime
    only, by _lead_eval into buffers made once: every path in regime 1's, then
    the regime-2 paths gathered into the head of their own buffers and
    scattered back. For the shipped switch_coeffs regime 1's drift and
    volatility are constants, so they cost one copy each. The +-sqrt(dt)
    increment is bit * (2 sqrt(dt)) - sqrt(dt), which is exact. A step where
    no path switches yields the previous parity and anchor arrays, a shared
    all-False flag array and overshoot 0.0; yielded arrays are read-only, so
    sharing them is safe.
    """
    sdt = np.sqrt(dt)
    increments = _increments(seed, n_paths, len(times) - 1, sdt)
    riccati = _RiccatiMemo((1, 2))
    p = _frozen(np.ones(n_paths, dtype=np.int64))
    an = _frozen(np.full(n_paths, a2))
    ah = _frozen(np.full(n_paths, a1 / a2))
    no_switch = _frozen(np.zeros(n_paths, dtype=bool))
    second = np.zeros(0, dtype=np.int64)  # the paths in regime 2
    b_path = np.zeros(n_paths)
    clamped, drift, vol, mag, x_2, drift_2, vol_2 = (np.empty(n_paths)
                                                     for _ in range(7))
    yield _Level(p, an, ah, no_switch, 0.0)
    for j, db in enumerate(increments):
        al = np.asarray(alpha(times[j], b_path), dtype=float)
        be = np.asarray(beta(times[j], b_path), dtype=float)
        (d1, s1), (d2, s2) = riccati(al, be)
        _clamp(ah, clamped)
        _lead_eval(d1, clamped, drift)
        _lead_eval(s1, clamped, vol)
        if second.size:
            x2, dr2, vo2 = (a[:second.size] for a in (x_2, drift_2, vol_2))
            # second is in range; mode="clip" skips take's buffered bounds check
            np.take(clamped, second, out=x2, mode="clip")
            drift[second] = _lead_eval(_rows(d2, second, n_paths), x2, dr2)
            vol[second] = _lead_eval(_rows(s2, second, n_paths), x2, vo2)
        np.multiply(drift, dt, out=drift)
        ah_next = np.add(ah, drift)
        np.multiply(vol, db, out=vol)
        np.add(ah_next, vol, out=ah_next)
        b_path += db
        sw = np.abs(ah_next, out=mag) >= 2.0
        hit = sw.nonzero()[0]
        if not hit.size:
            ah = _frozen(ah_next)
            yield _Level(p, an, ah, no_switch, 0.0)
            continue
        overshoot = float(np.max(mag[hit] - 2.0, initial=0.0))
        p = p.copy()
        p[hit] = 3 - p[hit]
        an = an.copy()
        an[hit] = an[hit] * ah_next[hit]
        ah_next[hit] = 1.0 / ah_next[hit]
        p, an, ah, sw = (_frozen(a) for a in (p, an, ah_next, sw))
        second = np.flatnonzero(p == 2)
        yield _Level(p, an, ah, sw, overshoot)


class _LevelField:
    """One read-only (n_paths,) array per level of an Euler ensemble, re-iterable:
    each iteration is one fresh levels() run, yielding read(level) per level."""

    def __init__(self, levels, read):
        self._levels = levels
        self._read = read

    def __iter__(self):
        return map(self._read, self._levels())


def _ensemble(coeffs: LinearUtilityCoeffs, grid: TimeGrid, n_paths: int, seed: int,
              overshoot_limit: float):
    """(times, swapped, levels) of the checked Euler ensemble: levels() starts a
    fresh _euler_levels run of the normalized arguments, so every run yields
    the same bits and none repeats the bound check or the normalization."""
    alpha, beta, a1, a2, swapped = _checked_normalize(coeffs, grid.T, grid.dt,
                                                      overshoot_limit)
    times = _frozen(grid.times())
    return times, swapped, partial(_euler_levels, alpha, beta, a1, a2, times, grid.dt,
                                   n_paths, seed)


def _tree_levels(alpha, beta, a1: float, a2: float, tree: ScenarioTree, times):
    """Exact per-node construction: children weights obey the matched division
    formula. Returns the per-level lists, lam, mu and the overshoot."""
    dt, sdt = tree.dt, np.sqrt(tree.dt)
    m0 = tree.node_count(0)
    parity = [np.ones(m0, dtype=np.int64)]
    anchor = [np.full(m0, a2)]
    ahat = [np.full(m0, a1 / a2)]
    flags = [np.zeros(m0, dtype=bool)]
    lam_levels, mu_levels = [], []
    overshoot = 0.0
    for j in range(tree.n):
        p, an, ah = parity[j], anchor[j], ahat[j]
        b_here = tree.values[j][:, 0]
        al = np.asarray(alpha(times[j], b_here), dtype=float)
        be = np.asarray(beta(times[j], b_here), dtype=float)
        first = p == 1
        lam, mu = _contraction(al, be, first, ah, dt)
        lam_levels.append(lam)
        mu_levels.append(mu)
        active = an * ah
        drift_num = (_frame(al, first, 0, 0) * active + _frame(al, first, 1, 0) * an) * dt
        vol_num = (_frame(be, first, 0, 0) * active + _frame(be, first, 1, 0) * an) * sdt
        size = tree.node_count(j + 1)
        new_p = np.empty(size, dtype=np.int64)
        new_an = np.empty(size)
        new_ah = np.empty(size)
        new_fl = np.zeros(size, dtype=bool)
        rows = np.arange(len(p))
        for sgn, child in ((1.0, 1), (-1.0, 0)):
            den = lam + sgn * mu / sdt
            if np.any(np.abs(den) < 0.05):
                raise StepSizeError(
                    "contraction factor nearly singular; decrease dt")
            act_child = (active + drift_num + sgn * vol_num) / den
            ah_child = act_child / an
            sw = np.abs(ah_child) >= 2.0
            overshoot = max(overshoot, float(np.max(
                np.where(sw, np.abs(ah_child) - 2.0, 0.0), initial=0.0)))
            idx = rows * 2 + child
            new_p[idx] = np.where(sw, 3 - p, p)
            new_an[idx] = np.where(sw, an * ah_child, an)
            new_ah[idx] = np.where(sw, 1.0 / ah_child, ah_child)
            new_fl[idx] = sw
        parity.append(new_p)
        anchor.append(new_an)
        ahat.append(new_ah)
        flags.append(new_fl)
    return parity, anchor, ahat, flags, lam_levels, mu_levels, overshoot


def build_linear_utility(coeffs: LinearUtilityCoeffs, tree: ScenarioTree | None = None,
                         *, grid: TimeGrid | None = None, n_paths: int | None = None,
                         seed: int = 0,
                         overshoot_limit: float = OVERSHOOT_LIMIT) -> LinearUtility:
    """Construct the linear weights A^1, A^2 and the utility Phi(t,y) = A.y.

    Pass a tree (scalar noise) for the exact per-node construction, or
    (grid, n_paths, seed) for the Euler ensemble with Rademacher increments.
    The regime ratio is restarted by inversion whenever |ratio| >= 2; an a
    priori one-step bound must stay below overshoot_limit.

    The ensemble stores only its switch record, `events` (switch_events), in
    O(n_paths + switches) memory. Its A1, A2, ahat, parity, anchor and
    switch_flags are _LevelFields: each iteration replays the seeded level
    stream once and yields one read-only array per level. Its utility is None,
    since evaluating one level would replay every level before it. A tree
    computes every level once and stores each field as a tuple of read-only
    arrays.
    """
    if tree is not None:
        if tree.d != 1:
            raise ValueError("linear utility construction implemented for scalar noise")
        if tree.mode != "path":
            raise ValueError("tree construction needs path mode")
        times = _frozen(tree.grid.times())
        alpha, beta, a1, a2, swapped = _checked_normalize(
            coeffs, tree.grid.T, tree.dt, overshoot_limit)
        *levels, overshoot = _tree_levels(alpha, beta, a1, a2, tree, times)
        parity, anchor, ahat, flags, lam, mu = (tuple(map(_frozen, f)) for f in levels)
        A1, A2 = (tuple(map(_frozen, w)) for w in zip(*map(
            partial(_weights, swapped=swapped), parity, anchor, ahat)))
        orig_a1, orig_a2 = coeffs.a1, coeffs.a2

        def phi(y):
            y = np.asarray(y, dtype=float).reshape(-1, 2)
            return orig_a1 * y[:, 0] + orig_a2 * y[:, 1]

        def evaluate(level, y):  # rows in (assignment, node) order
            w1, w2 = A1[level], A2[level]
            y = np.asarray(y, dtype=float).reshape(-1, len(w1), 2)
            return (w1 * y[..., 0] + w2 * y[..., 1]).reshape(-1)

        utility = DynamicUtility(evaluate=evaluate, phi=phi, value_dim=2)
        count, events = tree.node_count(0), None
    else:
        if grid is None or n_paths is None:
            raise ValueError("pass a tree, or grid= and n_paths=")
        times, swapped, levels = _ensemble(coeffs, grid, n_paths, seed, overshoot_limit)
        events = _switch_record(levels, n_paths, swapped)
        parity, anchor, ahat, flags, A1, A2 = (_LevelField(levels, read) for read in (
            lambda lv: lv.parity, lambda lv: lv.anchor, lambda lv: lv.ahat,
            lambda lv: lv.switched,
            lambda lv: _frozen(_weights(lv.parity, lv.anchor, lv.ahat, swapped)[0]),
            lambda lv: _frozen(_weights(lv.parity, lv.anchor, lv.ahat, swapped)[1])))
        lam = mu = ()
        utility = None
        overshoot, count = events.overshoot, n_paths

    return LinearUtility(
        coeffs=coeffs, mode="tree" if tree is not None else "ensemble",
        times=times, A1=A1, A2=A2, ahat=ahat, parity=parity, anchor=anchor,
        switch_flags=flags, lam=lam, mu=mu, overshoot=overshoot, swapped=swapped,
        utility=utility, n_paths=count, events=events,
    )


@dataclass(frozen=True)
class SwitchEvents:
    """The switch record of an Euler ensemble, one entry per (level, path) event.

    Events are ordered by level, then path, as np.nonzero of the stacked dense
    switch flags orders them; rank[e] is the number of earlier switches of
    path[e], counts[i] the number of switches of path i. ahat[e] is the ratio
    after the switch, A1[e] and A2[e] the weights at level[e], and A1_before,
    A2_before those at level[e] - 1, bit for bit.
    """

    level: np.ndarray
    path: np.ndarray
    rank: np.ndarray
    counts: np.ndarray
    overshoot: float
    ahat: np.ndarray
    A1_before: np.ndarray
    A2_before: np.ndarray
    A1: np.ndarray
    A2: np.ndarray


def _switch_record(levels, n_paths: int, swapped: bool) -> SwitchEvents:
    """One levels() run with O(n_paths) state, keeping the switch events.
    Their weights are _weights of the switched rows of a level's arrays: it
    works element by element, so they are the bits of A1 and A2's levels."""
    counts = np.zeros(n_paths, dtype=np.int64)
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),) * 5]
    overshoot, before = 0.0, None
    for j, lv in enumerate(levels()):
        overshoot = max(overshoot, lv.overshoot)
        idx = lv.switched.nonzero()[0]
        if idx.size:  # level 0 never switches, so `before` is set
            weights = [_weights(at.parity[idx], at.anchor[idx], at.ahat[idx], swapped)
                       for at in (before, lv)]
            parts.append((np.full(idx.size, j), idx, counts[idx], lv.ahat[idx],
                          *weights[0], *weights[1]))
            counts[idx] += 1
        before = lv
    level, path, rank, *ratio_and_weights = map(np.concatenate, zip(*parts))
    return SwitchEvents(level, path, rank, counts, overshoot, *ratio_and_weights)


def switch_events(coeffs: LinearUtilityCoeffs, grid: TimeGrid, n_paths: int,
                  seed: int = 0) -> SwitchEvents:
    """The switch record of build_linear_utility(grid=grid, n_paths=n_paths,
    seed=seed), in O(n_paths + switches) memory."""
    _, swapped, levels = _ensemble(coeffs, grid, n_paths, seed, OVERSHOOT_LIMIT)
    return _switch_record(levels, n_paths, swapped)


def replay_paths(coeffs: LinearUtilityCoeffs, grid: TimeGrid, n_paths: int, paths,
                 seed: int = 0) -> tuple:
    """Paths `paths` of the seeded ensemble, equal to build_linear_utility(grid=grid,
    n_paths=n_paths, seed=seed).path(i) for each i, without storing the others."""
    sel = np.asarray(paths, dtype=np.int64)
    outside = sel[(sel < 0) | (sel >= n_paths)]
    if outside.size:
        raise ValueError(f"path indices {outside.tolist()} outside 0..{n_paths - 1}")
    times, swapped, levels = _ensemble(coeffs, grid, n_paths, seed, OVERSHOOT_LIMIT)
    cols = [(lv.ahat[sel], lv.parity[sel], lv.anchor[sel], lv.switched[sel])
            for lv in levels()]
    ahat, parity, anchor, flags = (np.stack(c, axis=1) for c in zip(*cols))
    return tuple(_switching_path(times, ahat[k], parity[k], anchor[k], flags[k], swapped)
                 for k in range(len(sel)))


# ---------------------------------------------------------------------------
# switching-time tail bound


@dataclass(frozen=True)
class TauBoundRow:
    switch_index: int
    frequency: float
    std_error: float
    bound: float
    vacuous: bool
    passed: bool


@dataclass(frozen=True)
class OneStepRow:
    after_switch: int
    conditioning_count: int
    frequency: float
    passed: bool


@dataclass(frozen=True)
class TauBoundReport:
    C_hat: float
    delta: float
    m: int
    rows: tuple
    one_step: tuple
    overshoot: float


def verify_tau_bound(coeffs: LinearUtilityCoeffs, T: float, switch_indices,
                     steps: int, n_paths: int, seed: int = 0,
                     pilot_paths: int = 2000) -> TauBoundReport:
    """Monte Carlo check of P(tau_n < T) <= min(1, (2n)^m / 2^n).

    delta is 1/(2C), where C is twice the fitted constant in
    E[sup_{s<=t} |ratio_s - ratio_0|^2] <= C t from a switch-free pilot run of
    the truncated SDE. Also checks the one-step bound: conditionally on the k-th
    switch before T, the next switch within delta has frequency <= 1/2 + 3 SE.
    """
    grid = TimeGrid(T=T, n=steps)
    times = grid.times()
    alpha, beta, a1, a2, _ = _normalize(coeffs)
    ah = np.full(pilot_paths, a1 / a2)
    sup_sq = np.zeros(pilot_paths)
    dt, sdt = grid.dt, np.sqrt(grid.dt)
    riccati = _RiccatiMemo((1,))
    b0 = np.zeros(1)
    clamped, drift, vol = (np.empty(pilot_paths) for _ in range(3))
    C_hat = 0.0
    for k, db in enumerate(_increments(seed + 10 ** 6, pilot_paths, steps, sdt)):
        al, be = (np.asarray(fn(times[k], b0), dtype=float).reshape(2, 2)
                  for fn in (alpha, beta))
        (d1, s1), = riccati(al, be)
        _clamp(ah, clamped)
        np.multiply(_lead_eval(d1, clamped, drift), dt, out=drift)
        np.add(ah, drift, out=ah)
        np.multiply(_lead_eval(s1, clamped, vol), db, out=vol)
        np.add(ah, vol, out=ah)
        np.subtract(ah, a1 / a2, out=drift)
        np.maximum(sup_sq, np.square(drift, out=drift), out=sup_sq)
        C_hat = max(C_hat, float(np.add.reduce(sup_sq)) / pilot_paths / times[k + 1])
    C = 2.0 * C_hat
    delta = np.inf if C == 0 else 1.0 / (2.0 * C)

    m = 0 if delta >= T else int(np.ceil(T / delta)) - 1

    ev = switch_events(coeffs, grid, n_paths, seed=seed)
    eps_t = 1e-12

    def tau(k):
        """Time of each path's k-th switch (np.inf where it has fewer than k)."""
        out = np.full(n_paths, np.inf)
        kth = ev.rank == k - 1
        out[ev.path[kth]] = times[ev.level[kth]]
        return out

    rows = []
    for nn in switch_indices:
        hits = tau(nn) < T - eps_t
        freq = float(hits.mean())
        se = float(np.sqrt(freq * (1 - freq) / n_paths))
        bound = min(1.0, (2 * nn) ** m / 2 ** nn)
        vacuous = bound >= 1.0
        passed = vacuous or (freq + 3 * se <= bound)
        rows.append(TauBoundRow(switch_index=nn, frequency=freq, std_error=se,
                                bound=bound, vacuous=vacuous, passed=passed))

    one_step = []
    start, nxt = np.zeros(n_paths), tau(1)
    for k in range(0, int(ev.counts.max(initial=0)) + 1):
        if k:
            start, nxt = nxt, tau(k + 1)
        base = start < T - eps_t if k else np.ones(n_paths, dtype=bool)
        count = int(base.sum())
        if count < 20:
            continue
        hit = nxt[base] < np.minimum(T - eps_t, start[base] + delta)
        freq = float(hit.mean())
        se = float(np.sqrt(freq * (1 - freq) / count)) or float(np.sqrt(0.25 / count))
        passed = freq <= 0.5 + 3 * se
        one_step.append(OneStepRow(after_switch=k, conditioning_count=count,
                                   frequency=freq, passed=passed))
    return TauBoundReport(C_hat=float(C_hat), delta=float(delta), m=m,
                          rows=tuple(rows), one_step=tuple(one_step),
                          overshoot=ev.overshoot)


# ---------------------------------------------------------------------------
# linear comparison with the contracted recursion


@dataclass(frozen=True)
class LinearComparisonReport:
    pairs_checked: int
    policies_per_pair: int
    violations: tuple
    recursion_residual: float
    min_monotone: float


def _probe_linear_form(problem: BSDEProblem, coeffs: LinearUtilityCoeffs,
                       tree: ScenarioTree, seed: int = 0) -> None:
    rng = np.random.default_rng(np.random.Philox(seed))
    ctx = NodeContext(level=0, b=tree.values[0], tree=tree)
    m = ctx.b.shape[0]
    for _ in range(8):
        y = rng.normal(size=(m, 2))
        z = rng.normal(size=(m, 2, 1))
        u = np.full(m, problem.control_values[rng.integers(len(problem.control_values))])
        t = float(rng.uniform(0, tree.grid.T))
        al = _coeff_at(coeffs.alpha, t, ctx.b[:, 0], m)
        be = _coeff_at(coeffs.beta, t, ctx.b[:, 0], m)
        cv = np.broadcast_to(np.asarray(coeffs.c(t, ctx.b[:, 0], u), dtype=float), (m, 2))
        expected = (np.einsum("mij,mj->mi", al, y)
                    + np.einsum("mij,mj->mi", be, z[:, :, 0]) + cv)
        got = np.asarray(problem.f(t, ctx, y, z, u), dtype=float)
        if np.max(np.abs(got - expected)) > 1e-10:
            raise StructureError(
                "generator does not match the declared linear coefficients")


def make_comparison_pairs(lin: LinearUtility, problem: BSDEProblem,
                          tree: ScenarioTree, count: int = 5, seed: int = 0):
    """Terminal pairs (xi, xi + positive bump aligned with the terminal weights)."""
    rng = np.random.default_rng(np.random.Philox(seed))
    n = tree.n
    ctx = NodeContext(level=n, b=tree.values[n], tree=tree)
    xi = np.asarray(problem.terminal(ctx), dtype=float).reshape(-1, 2)
    w = np.stack([lin.A1[n], lin.A2[n]], axis=1)
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    direction = np.where(norm > 1e-14, w / np.maximum(norm, 1e-300), 0.0)
    pairs = []
    for _ in range(count):
        delta = rng.uniform(0.1, 1.0)
        pairs.append((xi, xi + delta * direction))
    return pairs


def check_linear_comparison(lin: LinearUtility, problem: BSDEProblem,
                            tree: ScenarioTree, pairs=None,
                            seed: int = 0) -> LinearComparisonReport:
    """Order preservation of the contracted scalar process under every policy.

    For each terminal pair with Phi(T, xi) <= Phi(T, xi~) node-wise and each
    enumerated policy, checks Phi(j, Y_j(xi)) <= Phi(j, Y_j(xi~)) + tol at every
    node and level, tol = 1e-10, and reports the worst residual of the exact
    one-step recursion of the contracted process, on the batched kernel's levels.
    Violations are ordered by pair, assignment, level and node.
    """
    if lin.mode != "tree":
        raise ValueError("needs a tree-mode linear utility")
    _probe_linear_form(problem, coeffs=lin.coeffs, tree=tree, seed=seed)
    if pairs is None:
        pairs = make_comparison_pairs(lin, problem, tree, seed=seed)
    n, dt = tree.n, tree.dt
    tol = 1e-10
    space = PolicySpace(problem, tree)
    space.check_cap()
    times = tree.grid.times()
    inc = tree.increments
    pairs_checked, violations, rec_res = 0, [], 0.0
    weights = [(lin.A1[j], lin.A2[j]) for j in range(n + 1)]

    def contracted(ys):  # level j -> (p, m_j)
        return [w1 * y[..., 0] + w2 * y[..., 1] for y, (w1, w2) in zip(ys, weights)]

    def recursion_residual(yhat, us):
        res = 0.0
        for j in range(n - 1, -1, -1):
            p, m = us[j].shape
            # the children of each (assignment, node), one row each
            cv = np.moveaxis(tree.child_values(j, yhat[j + 1].T), -1, 0).reshape(p * m, -1)
            ehat = cv.mean(axis=1).reshape(p, m)
            zhat = np.einsum("mc,ci->mi", cv, inc)[:, 0].reshape(p, m) / (inc.shape[0] * dt)
            cval = np.broadcast_to(np.asarray(
                lin.coeffs.c(times[j], np.tile(tree.values[j][:, 0], p), us[j].reshape(-1)),
                dtype=float), (p * m, 2)).reshape(p, m, 2)
            w1, w2 = weights[j]
            source = (w1 * cval[..., 0] + w2 * cval[..., 1]) * dt
            pred = lin.lam[j] * ehat + lin.mu[j] * zhat + source
            res = max(res, float(np.max(np.abs(yhat[j] - pred))))
        return res

    for p_idx, (eta, eta_t) in enumerate(pairs):
        eta = np.asarray(eta, dtype=float).reshape(tree.node_count(n), 2)
        eta_t = np.asarray(eta_t, dtype=float).reshape(tree.node_count(n), 2)
        phi_T = lin.utility.evaluate(n, eta)
        phi_Tt = lin.utility.evaluate(n, eta_t)
        if np.any(phi_T > phi_Tt + 1e-12):
            continue
        pairs_checked += 1
        for (lo, ys, us), (_, ys_t, _) in zip(_solve_chunks(problem, space, eta),
                                              _solve_chunks(problem, space, eta_t)):
            ya, yb = contracted(ys), contracted(ys_t)
            rec_res = max(rec_res, recursion_residual(ya, us))
            diffs = [a - b for a, b in zip(ya, yb)]
            for row in np.flatnonzero(np.any([(d > tol).any(axis=1) for d in diffs], axis=0)):
                assignment = space.assignment(lo + row)
                violations += [(p_idx, assignment, j, int(node), float(diff[row, node]))
                               for j, diff in enumerate(diffs)
                               for node in np.nonzero(diff[row] > tol)[0]]
    return LinearComparisonReport(
        pairs_checked=pairs_checked, policies_per_pair=space.size,
        violations=tuple(violations),
        recursion_residual=rec_res,
        min_monotone=min(_monotone(lam, mu, np.sqrt(dt))
                         for lam, mu in zip(lin.lam, lin.mu)))
