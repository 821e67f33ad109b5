"""Built-in benchmark problems with analytic oracles and reference values.

Two problems ship with the solver:

* ``example1`` -- the fixed-horizon double integrator driven to the origin
  with minimum control energy.  Fully solvable in closed form (control,
  states, costates, multipliers), which makes it the primary certification
  target.
* ``brachistochrone`` -- the classical minimum-time descent to (2, -2) under
  gravity 10, with free terminal time.  No closed form is bundled; the
  reference values (t_f = 0.8165, pi = [-0.1477, 0.0564], linear-in-time
  optimal heading with slope 1.4771) plus the straight-line descent bound
  sqrt(0.8) serve as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .integrate import DenseTrajectory
from .problem import Gains, OcpProblem, SolveReport
from .sensitivity import AdjointBundle


@dataclass(frozen=True)
class AnalyticOracle:
    """Closed-form optimal solution (when the problem has one)."""

    u: Callable          # u_hat(t) -> (m,)
    x: Callable          # x_hat(t) -> (n,)
    lam: Callable        # lambda_hat(t) -> (n,)
    pi: np.ndarray
    J: float
    t_f: float


@dataclass(frozen=True)
class BuiltinProblem:
    """A problem plus recommended gains/parameterizations and references."""

    prob: OcpProblem
    gains: Gains
    recommended: dict
    oracle: AnalyticOracle | None = None
    references: dict = field(default_factory=dict)


def make_example1() -> BuiltinProblem:
    """Double integrator: x' = (x2, u), J = 1/2 int u^2, x(0) = (1,1), x(2) = 0."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])

    def f(x, u, t):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        out = np.empty((*x.shape[:-1], 2))
        out[..., 0] = x[..., 1]
        out[..., 1] = u[..., 0]
        return out

    def f_x(x, u, t):
        return np.broadcast_to(A, (*np.shape(t), 2, 2)) if np.ndim(t) else A

    def f_u(x, u, t):
        return np.broadcast_to(b, (*np.shape(t), 2, 1)) if np.ndim(t) else b

    prob = OcpProblem(
        n=2, m=1, q=2, t0=0.0, x0=np.array([1.0, 1.0]),
        tf_mode="fixed", tf_fixed=2.0,
        f=f, f_x=f_x, f_u=f_u,
        L=lambda x, u, t: 0.5 * np.asarray(u, float)[..., 0] ** 2,
        L_x=lambda x, u, t: np.zeros((*np.shape(t), 2)),
        L_u=lambda x, u, t: np.asarray(u, float),
        phi=lambda xf, tf: 0.0,
        phi_x=lambda xf, tf: np.zeros(2),
        phi_t=lambda xf, tf: 0.0,
        g=lambda xf, tf: np.asarray(xf, float),
        g_x=lambda xf, tf: np.eye(2),
        g_t=lambda xf, tf: np.zeros(2),
        vectorized=True, name="example1")

    oracle = AnalyticOracle(
        u=lambda t: np.array([3.0 * t - 3.5]),
        x=lambda t: np.stack([0.5 * t**3 - 1.75 * t**2 + t + 1.0,
                              1.5 * t**2 - 3.5 * t + 1.0], axis=-1),
        lam=lambda t: np.array([3.0, 3.5 - 3.0 * t]),
        pi=np.array([3.0, -2.5]),
        J=3.25,          # 1/2 * int_0^2 (3t - 3.5)^2 dt = 6.5 / 2
        t_f=2.0)

    gains = Gains.constant(K=0.1, m=1, q=2, k_tf=0.0, K_g=0.1)
    recommended = {"kind": "global_polynomial", "order": 3}
    return BuiltinProblem(prob=prob, gains=gains, recommended=recommended,
                          oracle=oracle,
                          references={"p_optimal": np.array([-3.5, 3.0, 0.0, 0.0])})


def make_example2() -> BuiltinProblem:
    """Brachistochrone: fastest descent from rest at the origin to (2, -2), gravity 10."""
    grav = 10.0

    # one code path for a point and for stacked points: fill the output
    def f(x, u, t):
        th = np.asarray(u, float)[..., 0]
        V = np.asarray(x, float)[..., 2]
        sin, cos = np.sin(th), np.cos(th)
        out = np.empty((*th.shape, 3))
        out[..., 0] = V * sin
        out[..., 1] = -V * cos
        out[..., 2] = grav * cos
        return out

    def f_x(x, u, t):
        th = np.asarray(u, float)[..., 0]
        out = np.zeros((*th.shape, 3, 3))
        out[..., 0, 2] = np.sin(th)
        out[..., 1, 2] = -np.cos(th)
        return out

    def f_u(x, u, t):
        th = np.asarray(u, float)[..., 0]
        V = np.asarray(x, float)[..., 2]
        sin, cos = np.sin(th), np.cos(th)
        out = np.empty((*th.shape, 3, 1))
        out[..., 0, 0] = V * cos
        out[..., 1, 0] = V * sin
        out[..., 2, 0] = -grav * sin
        return out

    g_x_mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    prob = OcpProblem(
        n=3, m=1, q=2, t0=0.0, x0=np.zeros(3),
        tf_mode="free",
        f=f, f_x=f_x, f_u=f_u,
        L=lambda x, u, t: 0.0 * t,          # zeros for one time or stacked times
        L_x=lambda x, u, t: np.zeros((*np.shape(t), 3)),
        L_u=lambda x, u, t: np.zeros((*np.shape(t), 1)),
        phi=lambda xf, tf: float(tf),
        phi_x=lambda xf, tf: np.zeros(3),
        phi_t=lambda xf, tf: 1.0,
        g=lambda xf, tf: np.stack([np.asarray(xf, float)[..., 0] - 2.0,
                                   np.asarray(xf, float)[..., 1] + 2.0], axis=-1),
        g_x=lambda xf, tf: g_x_mat,
        g_t=lambda xf, tf: np.zeros(2),
        vectorized=True, name="brachistochrone")

    gains = Gains.constant(K=0.1, m=1, q=2, k_tf=0.1, K_g=0.1)
    recommended = {"kind": "global_polynomial", "order": 4}
    references = {
        "tf_optimal": 0.8165,
        "pi_optimal": np.array([-0.1477, 0.0564]),
        "p_case1": np.array([0.0, 1.4771, 0.0, 0.0, 0.0]),
        # constant-heading straight-line descent along the chord:
        # u = pi/4, acceleration g/sqrt(2), so t = sqrt(2 * 2*sqrt(2) / (g/sqrt(2)))
        "tf_straight_line": np.sqrt(0.8),
    }
    return BuiltinProblem(prob=prob, gains=gains, recommended=recommended,
                          oracle=None, references=references)


@dataclass
class OracleErrors:
    """Sup-norm errors of a candidate solve against the analytic optimum."""

    sup_u: float
    sup_x: float
    sup_lam: float
    pi_err: float
    J_err: float


def example1_analytic_report(oracle: AnalyticOracle, report: SolveReport,
                             bundle: AdjointBundle, lam_traj: DenseTrajectory,
                             n_samples: int = 401) -> OracleErrors:
    """Sup-norm errors of the bundle's u and x and of lambda, pi and J errors."""
    ts = np.linspace(bundle.t0, bundle.t_f, n_samples)
    us = bundle.par.eval(ts, bundle.p, bundle.t_f)
    du = float(np.abs(us[:, 0] - oracle.u(ts)[0]).max())
    dx = float(np.abs(bundle.x_at(ts) - oracle.x(ts)).max())
    lams = lam_traj(ts)
    dlam = float(np.abs(lams - np.stack([oracle.lam(t) for t in ts])).max())
    dpi = float(np.abs(np.asarray(report.pi_final) - oracle.pi).max()) \
        if oracle.pi.size else 0.0
    return OracleErrors(sup_u=du, sup_x=dx, sup_lam=dlam, pi_err=dpi,
                        J_err=abs(report.J_final - oracle.J))


_REGISTRY: dict[str, Callable[[], BuiltinProblem]] = {
    "example1": make_example1,
    "brachistochrone": make_example2,
}


def register_problem(name: str, factory: Callable[[], BuiltinProblem]) -> None:
    """Expose a custom problem to the CLI by name."""
    _REGISTRY[name] = factory


def get_problem(name: str) -> BuiltinProblem:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(_REGISTRY)}") from None


def list_problems() -> list[str]:
    return sorted(_REGISTRY)
