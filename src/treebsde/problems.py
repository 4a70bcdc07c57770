"""Problem catalogue shared by the experiments, the acceptance suite and the scripts.

They all build their problems here, so the CLI runs exactly the problems the
acceptance suite verifies. That includes the four closed-form benchmarks:
benchmark(identifier, T) builds each at the one parameter point every run
uses, with only the horizon left to the caller. Every other constructor
takes no arguments. Each returns fresh objects: no caller sees another's
arrays or Lipschitz-probe flag. Trees, levels and seeds stay with the caller.
"""
import numpy as np

from treebsde.benchmarks import BenchmarkProblem, get_benchmark
from treebsde.bsde import BSDEProblem
from treebsde.duality import DeterministicDualSpec, MarkovianDualSpec
from treebsde.dynutil import LinearUtilityCoeffs
from treebsde.master import CylinderFunctional


def benchmark(identifier: str, T: float) -> BenchmarkProblem:
    """The named closed-form benchmark on [0, T] at its one parameter point."""
    params = {"one_dim": {"c": T},  # the value-0 edge c = T
              "mean_variance": {"x0": 0.0, "c": 1.0},
              "principal_agent": {"gamma_A": 1.0, "gamma_P": 1.0, "R": -0.5}}
    return get_benchmark(identifier, T=T, **params.get(identifier, {}))


def geometric_dpp_cases():
    """(name, problem, z values, probe points) for each geometric-DPP problem."""
    p1 = control_free_problem()
    # steering z off the perfect tracking value so the quantization defect
    # scales with dt and the slack shrinks as the tree refines
    z1 = (0.0, 0.8)

    def f2(t, ctx, y, z, u):
        out = np.empty_like(y)
        out[:, 0] = u - y[:, 1]
        out[:, 1] = u
        return out

    p2 = BSDEProblem(
        value_dim=2, f=f2,
        terminal=lambda ctx: np.zeros((ctx.b.shape[0], 2)),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 1.0),
        lipschitz_L=1.0, deterministic_controls=True)
    z2 = (np.zeros((2, 1)),)
    pts1 = np.linspace(-1.5, 1.5, 16)[:, None]
    g = np.linspace(-0.25, 1.25, 7)
    pts2 = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    return (("terminal-tracking", p1, z1, pts1), ("steering", p2, z2, pts2))


def scalar_drift_problem():
    """f = u on U = {0, 1}: the value adds the integral of the control."""
    return BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 1.0), lipschitz_L=1.0, phi_lipschitz=1.0)


def coupled_two_dim_problem():
    """Two components coupled through y and z, three controls."""
    def f_pair(t, ctx, y, z, u):
        out = np.empty_like(y)
        out[:, 0] = u + 0.25 * y[:, 1]
        out[:, 1] = 0.5 * z[:, 0, 0] - u
        return out

    return BSDEProblem(
        value_dim=2, f=f_pair,
        terminal=lambda ctx: np.stack([ctx.b[:, 0], ctx.b[:, 0] ** 2], axis=1),
        phi=lambda y: y[:, 0] - 0.5 * y[:, 1],
        control_values=(-1.0, 0.0, 1.0), lipschitz_L=1.0, phi_lipschitz=1.5)


def level_controls_problem():
    """f = u on U = {0, 1/2, 1}, one control per tree level."""
    return BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: u[:, None] * np.ones_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0, 0.5, 1.0), lipschitz_L=1.0,
        deterministic_controls=True, phi_lipschitz=1.0)


def control_free_problem():
    """f = 0, a single control, phi = y: the forward value is linear in eta."""
    return BSDEProblem(
        value_dim=1,
        f=lambda t, ctx, y, z, u: np.zeros_like(y),
        terminal=lambda ctx: ctx.b[:, :1].copy(),
        phi=lambda y: y[:, 0],
        control_values=(0.0,), lipschitz_L=1.0)


def exp_cylinder():
    """eta(t, path) = exp(B_t) with its closed-form derivatives."""
    return CylinderFunctional(
        value=lambda t, path: np.exp(path[:, -1, 0]),
        d_t=lambda t, path: np.zeros(path.shape[0]),
        d_b=lambda t, path: np.exp(path[:, -1, :]),
        d_bb=lambda t, path: np.exp(path[:, -1, 0]).reshape(-1, 1, 1, 1),
        name="exp_b")


_LIN_ALPHA = ((0.2, -0.1), (0.3, 0.1))
_LIN_BETA = ((0.1, 0.2), (-0.2, 0.15))


def linear_setup():
    """(coeffs, problem): a linear utility and the BSDE with the same generator."""
    al = np.array(_LIN_ALPHA)
    be = np.array(_LIN_BETA)
    coeffs = LinearUtilityCoeffs(
        alpha=lambda t, b: al, beta=lambda t, b: be,
        c=lambda t, b, u: np.stack([0.1 * np.asarray(u),
                                    -0.05 * np.asarray(u)], axis=-1),
        a1=1.0, a2=2.0, bound=0.3)

    def f(t, ctx, y, z, u):
        out = y @ al.T + z[:, :, 0] @ be.T
        out[:, 0] += 0.1 * u
        out[:, 1] += -0.05 * u
        return out

    problem = BSDEProblem(
        value_dim=2, f=f,
        terminal=lambda ctx: np.stack([ctx.b[:, 0], 0.5 * ctx.b[:, 0]], axis=1),
        phi=lambda y: y[:, 0] + 2.0 * y[:, 1],
        control_values=(0.0, 1.0),
        lipschitz_L=1.0)
    return coeffs, problem


def switch_coeffs():
    """Constant coefficients whose weight ensemble switches regime on [0, 4]."""
    alpha = np.zeros((2, 2))
    alpha[1, 0] = 0.25
    beta = np.zeros((2, 2))
    beta[1, 0] = 0.6
    return LinearUtilityCoeffs.from_constants(alpha, beta, a1=0.0, a2=1.0)


def transport_dual_spec():
    """Steering system y1' = u - y2, y2' = u driven to the origin."""
    def f(t, y, u):
        # keeps y's layout, so component-first points give contiguous planes
        out = np.empty_like(y)
        np.subtract(u, y[..., 1], out=out[..., 0])
        out[..., 1] = u
        return out

    return DeterministicDualSpec(
        f=f,
        target=(0.0, 0.0),
        control_values=(0.0, 1.0),
        f_bound=(3.0, 1.0))


def quadratic_dual_spec():
    """f = 0 with target g(x) = x: W(0, x, y) = (y - x)^2, nodal set {y = x}."""
    return MarkovianDualSpec(f=lambda t, x, y, z, u: 0.0 * y,
                             g=lambda x: x, control_values=(0.0,),
                             f_bound=0.0)
