"""Costate reconstruction and optimality residuals.

The costate of the underlying optimal control problem is recovered from the
already-computed adjoints as the exact linear combination

    lambda(t) = mu(t) + Psi(t) pi,

so the terminal condition lambda(t_f) = phi_x + g_x^T pi holds to rounding
and no additional integration is performed.  A second, basis-free multiplier
(the one the non-parameterized theory would produce) is also available; the
two agree when the parameterized control has converged to the optimal one,
which is the certification payload of the solver.  Each certifies one
iterate: a bundle of lanes is refused with :class:`DimensionError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, _require_numbers
from .integrate import DenseTrajectory
from .parameterization import Parameterization
from .problem import Gains, OcpProblem
# simpson_points is not called here; it stays bound because bench/tracing.py wraps it
from .quadrature import QuadratureSpec, _gram, simpson_points  # noqa: F401
from .sensitivity import (AdjointBundle, ThetaQuantities, _grid_data, _require_iterate,
                          _terminal_values, spd_solve)


@dataclass
class CostateTrajectory:
    """lambda(t) together with the multiplier used to assemble it."""

    lam_traj: DenseTrajectory
    pi_used: np.ndarray


@dataclass
class OptimalityResiduals:
    """How far an iterate is from the parameterized optimality conditions.

    ``param_residual`` is the stationarity vector r + Gamma pi;
    ``tf_residual`` the terminal-time bracket, None for a fixed t_f (no
    optimality condition then); ``continuous_residual_sup``
    the sup over the grid of the basis-free stationarity condition
    ||p_u + f_u^T Psi pi||; ``feasibility`` the terminal-constraint norm.
    """

    param_residual: np.ndarray
    tf_residual: float | None
    continuous_residual_sup: float
    feasibility: float


def _q_vector(prob: OcpProblem, v, name: str) -> np.ndarray:
    """``v`` as the (q,) vector of finite numbers a multiplier or constraint
    value is, (0,) when q = 0; :class:`DimensionError` for any other shape."""
    v = _require_numbers(v, name)
    if v.shape != (prob.q,):
        raise DimensionError(f"{name} has shape {v.shape}, expected ({prob.q},)")
    return v


def _one_iterate(bundle: AdjointBundle, name: str) -> None:
    """Refuse a bundle of lanes: the costate layer certifies one iterate."""
    if (lanes := bundle.adjoint_sol.lane_count) is not None:
        raise DimensionError(f"{name} takes one iterate, got a bundle of {lanes} lanes")


def reconstruct_costate(prob: OcpProblem, bundle: AdjointBundle,
                        pi) -> CostateTrajectory:
    """lambda(t) = mu(t) + Psi(t) pi as a dense trajectory on the adjoint grid.

    The map is linear, so it maps the joint adjoint solve's [mu | Psi] blocks,
    node values and interpolant alike; no additional integration is performed.
    """
    _one_iterate(bundle, "reconstruct_costate")
    pi = _q_vector(prob, pi, "pi")
    lam_traj = bundle.adjoint_sol.map_channels(lambda Y: Y[..., 0] + Y[..., 1:] @ pi)
    return CostateTrajectory(lam_traj=lam_traj, pi_used=pi)


def optimality_residuals(prob: OcpProblem, par: Parameterization,
                         quantities: ThetaQuantities,
                         bundle: AdjointBundle, pi, g_val,
                         quad: QuadratureSpec | None = None) -> OptimalityResiduals:
    """All four residuals of an iterate, sampled on the shared grid; the
    terminal-time bracket is the bundle's, whatever theta ``quantities`` span."""
    _require_iterate(bundle, par)
    _one_iterate(bundle, "optimality_residuals")
    pi, g_val = _q_vector(prob, pi, "pi"), _q_vector(prob, g_val, "g_val")
    quad = quad or QuadratureSpec()

    param_residual = quantities.r + quantities.Gamma @ pi
    h = _terminal_values(prob, bundle) if prob.tf_mode == "free" else None

    gd = _grid_data(prob, bundle, quad)
    pointwise = gd.pg[..., 0] + gd.pg[..., 1:] @ pi             # (N, m)
    continuous_sup = float(np.max(np.linalg.norm(pointwise, axis=1), initial=0.0))
    return OptimalityResiduals(
        param_residual=param_residual,
        tf_residual=None if h is None else float(h[0] + pi @ h[1:]),
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
    _one_iterate(bundle, "continuous_multiplier")
    g_val = _q_vector(prob, g_val, "g_val")
    gd = _grid_data(prob, bundle, quad or QuadratureSpec())
    rM_c = _gram(gd.w, gains.K_at(gd.ts), gd.pg[..., 1:], gd.pg)     # [r_c | M_c]
    if prob.tf_mode == "free" and gains.k_tf > 0:
        h = _terminal_values(prob, bundle)
        rM_c += np.outer(gains.k_tf * h[1:], h)
    r_c = rM_c[:, 0] - gains.K_g @ g_val
    return -spd_solve(rM_c[:, 1:], r_c, "continuous multiplier system")
