"""Costate reconstruction and optimality residuals.

The costate of the underlying optimal control problem is recovered from the
already-computed adjoints as the exact linear combination

    lambda(t) = mu(t) + Psi(t) pi,

so the terminal condition lambda(t_f) = phi_x + g_x^T pi holds to rounding
and no additional integration is performed.  A second, basis-free multiplier
(the one the non-parameterized theory would produce) is also available; the
two agree when the parameterized control has converged to the optimal one,
which is the certification payload of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .integrate import DenseTrajectory
from .parameterization import Parameterization
from .problem import Gains, OcpProblem
# simpson_points is not called here; it stays bound because bench/tracing.py wraps it
from .quadrature import QuadratureSpec, _gram, simpson_points  # noqa: F401
from .sensitivity import (AdjointBundle, ThetaQuantities, _grid_data, _terminal_values,
                          spd_solve)


@dataclass
class CostateTrajectory:
    """lambda(t) together with the multiplier used to assemble it."""

    lam_traj: DenseTrajectory
    pi_used: np.ndarray


@dataclass
class OptimalityResiduals:
    """How far an iterate is from the parameterized optimality conditions.

    ``param_residual`` is the stationarity vector r + Gamma pi;
    ``tf_residual`` the terminal-time bracket; ``continuous_residual_sup``
    the sup over the grid of the basis-free stationarity condition
    ||p_u + f_u^T Psi pi||; ``feasibility`` the terminal-constraint norm.
    """

    param_residual: np.ndarray
    tf_residual: float
    continuous_residual_sup: float
    feasibility: float


def reconstruct_costate(prob: OcpProblem, bundle: AdjointBundle,
                        pi) -> CostateTrajectory:
    """lambda(t) = mu(t) + Psi(t) pi as a dense trajectory on the adjoint grid.

    The map is linear, so it is applied to the joint adjoint solve's node
    values and segment polynomials; no additional integration is performed.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (prob.q,):
        raise DimensionError(f"pi has shape {pi.shape}, expected ({prob.q},)")
    n, q = prob.n, prob.q

    def lam_of(y):                      # (..., n + n*q) -> (..., n)
        return y[..., :n] + y[..., n:].reshape(*y.shape[:-1], n, q) @ pi

    sol = bundle.adjoint_sol
    anchor, denom, scale, base, Q = sol.segments
    Q_lam = lam_of(Q.transpose(0, 2, 1)).transpose(0, 2, 1)    # (segments, n, 4)
    lam_traj = DenseTrajectory(sol.t_grid, lam_of(sol.values),
                               (anchor, denom, scale, lam_of(base), Q_lam))
    return CostateTrajectory(lam_traj=lam_traj, pi_used=pi)


def optimality_residuals(prob: OcpProblem, par: Parameterization,
                         quantities: ThetaQuantities,
                         bundle: AdjointBundle, pi, g_val,
                         quad: QuadratureSpec | None = None) -> OptimalityResiduals:
    """All four residuals of an iterate, sampled on the shared grid."""
    pi = np.asarray(pi, dtype=float)
    g_val = np.asarray(g_val, dtype=float)
    quad = quad or QuadratureSpec()

    param_residual = quantities.r + quantities.Gamma @ pi
    tf_residual = quantities.tf_scalar + float(pi @ quantities.tf_row)

    gd = _grid_data(prob, par, bundle, quad)
    pointwise = gd.pu + gd.fupsi @ pi                           # (N, m)
    continuous_sup = float(np.max(np.linalg.norm(pointwise, axis=1), initial=0.0))
    return OptimalityResiduals(
        param_residual=param_residual,
        tf_residual=tf_residual,
        continuous_residual_sup=continuous_sup,
        feasibility=float(np.linalg.norm(g_val)))


def continuous_multiplier(prob: OcpProblem, bundle: AdjointBundle, gains: Gains,
                          g_val, quad: QuadratureSpec | None = None) -> np.ndarray:
    """Multiplier of the non-parameterized theory (no basis Jacobian involved).

    pi_c = -M_c^-1 r_c with M_c = int (f_u^T Psi)^T K (f_u^T Psi) dt and
    r_c = int (f_u^T Psi)^T K p_u dt - K_g g, plus the terminal-time rank-one
    terms when t_f is free, integrated on the same grid as the parameterized
    assembly.  Used to certify the parameterized multiplier.
    """
    gd = _grid_data(prob, bundle.par, bundle, quad or QuadratureSpec())
    Kt = gains.K_at(gd.ts)
    M_c = _gram(gd.w, Kt, gd.fupsi, gd.fupsi)
    r_c = _gram(gd.w, Kt, gd.fupsi, gd.pu[..., None])[:, 0]
    if prob.tf_mode == "free" and gains.k_tf > 0:
        tf_scalar, tf_row = _terminal_values(prob, bundle)
        M_c = M_c + gains.k_tf * np.outer(tf_row, tf_row)
        r_c = r_c + gains.k_tf * tf_row * tf_scalar
    r_c = r_c - gains.K_g @ np.asarray(g_val, dtype=float)
    return -spd_solve(M_c, r_c, "continuous multiplier system")
