"""Weighted least-squares projection onto a finite function subspace.

Given a time-varying SPD weight W(t) and basis columns assembled in A(t),
the projection of a vector function f minimizes the weighted L2 distance;
its coordinates solve the Gram system

    (int A^T W A dt) x = int A^T W f dt.

With the basis K^-1 u_p and weight K, the Gram matrix is exactly the
evolution matrix M_p, which turns the parameter stationarity condition into
a statement about function projections: the projected control gradient must
be cancelled by the projected constraint sensitivities.  Both readings of
that residual are computed here on the same grid so they vanish together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DependentBasisError, RankError, _require_gain,
                     _require_number, _require_numbers)
from .quadrature import QuadratureSpec, _gram, simpson_points
from .sensitivity import spd_solve


@dataclass(frozen=True)
class InnerProductSpec:
    """<f, g> = int_t0^tf f^T W g dt on the given grid, t0 < t_f.

    ``weight`` is a constant SPD matrix W (a scalar stands for a 1 x 1 one),
    checked here as a gain, and t0 < t_f as numbers (else
    :class:`ConfigurationError`); ``breakpoints`` split quadrature panels where
    integrands are not smooth.
    """

    t0: float
    t_f: float
    weight: np.ndarray | float
    quad: QuadratureSpec = QuadratureSpec()
    breakpoints: tuple = ()

    def __post_init__(self):
        for name in ("t0", "t_f"):
            object.__setattr__(self, name, _require_number(getattr(self, name), name))
        if self.t_f <= self.t0:
            raise ConfigurationError(f"t_f = {self.t_f!r} must exceed t0 = {self.t0!r}")
        object.__setattr__(self, "weight", _require_gain(self.weight, "weight"))

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        return simpson_points(self.t0, self.t_f, self.quad, self.breakpoints)

    def weight_at(self, ts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.weight, (ts.size, *self.weight.shape))


@dataclass(frozen=True)
class BasisSet:
    """Columns a_1(t) ... a_k(t) assembled by A(t).

    ``A(ts)`` maps N times to an (N, d, k) array, or to (N, k) for a
    scalar-valued basis; the column count k is read from its shape.
    """

    A: Callable

    def at(self, ts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.A(ts), dtype=float)
        if out.ndim == 2:            # scalar-valued basis: (N, k) -> (N, 1, k)
            out = out[:, None, :]
        return out


def _column(f: Callable) -> Callable:
    """f's (N, d) values, or (N,) for a scalar function, as one (N, d, 1) column."""
    def at(ts):
        out = np.asarray(f(ts), dtype=float)
        return out.reshape(len(out), -1, 1)
    return at


def _coordinates(spec: InnerProductSpec, basis: BasisSet, F: Callable) -> np.ndarray:
    """Solve (int A^T W A dt) X = int A^T W F dt for the k columns of X.

    ``F(ts)`` is (N, d, k); raises :class:`DependentBasisError` when the Gram
    matrix is numerically singular.
    """
    ts, w = spec.grid()
    A = basis.at(ts)
    W = spec.weight_at(ts)
    try:
        return spd_solve(_gram(w, W, A, A), _gram(w, W, A, F(ts)), "projection Gram matrix")
    except RankError as exc:
        raise DependentBasisError(f"{exc}; basis columns are dependent") from None


def project(spec: InnerProductSpec, basis: BasisSet, f: Callable):
    """Least-squares coordinates and the projected function.

    Returns ``(coords, projection)`` where ``projection(ts)`` evaluates
    A(ts) @ coords.  Raises :class:`DependentBasisError` when the Gram matrix
    is numerically singular.
    """
    coords = _coordinates(spec, basis, _column(f))[:, 0]

    def projection(t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.einsum("tdi,i->td", basis.at(tt), coords)
        return out[0] if np.ndim(t) == 0 else out

    return coords, projection


def weighted_norm(spec: InnerProductSpec, f: Callable) -> float:
    """L2(W) norm of a vector function, by the shared quadrature."""
    ts, w = spec.grid()
    vals = _column(f)(ts)
    sq = _gram(w, spec.weight_at(ts), vals, vals)[0, 0]
    return float(np.sqrt(max(sq, 0.0)))


@dataclass
class DualResidualReport:
    """Dual readings of the parameter stationarity residual.

    ``function_residual_norm`` is the L2(W) norm of
    Pro_S(p_u) + Pro_S(f_u^T Psi) pi; ``coord_residual`` its coordinates in
    the basis, which equal M_p^-1 (r_1p + Gamma_1p pi).  The two vanish
    together (they differ by an SPD change of metric).
    """

    function_residual_norm: float
    coord_residual: np.ndarray
    coord_residual_norm: float


def projected_stationarity_check(spec: InnerProductSpec, u_p_basis: BasisSet, p_u_fn: Callable,
                   psi_fn: Callable, pi) -> DualResidualReport:
    """Project the stationarity condition onto the control basis.

    ``u_p_basis`` holds the columns of K^-1 u_p, ``p_u_fn`` the pointwise
    cost gradient, ``psi_fn`` the pointwise constraint sensitivity
    f_u^T Psi (shape (N, m, q)), and ``pi`` the multiplier.
    """
    pi = _require_numbers(pi, "pi")

    def columns(ts):                    # [p_u | f_u^T Psi]: (N, d, 1 + q)
        F = _column(p_u_fn)(ts)
        if pi.size:
            F = np.concatenate([F, np.asarray(psi_fn(ts), dtype=float)], axis=2)
        return F

    coords = _coordinates(spec, u_p_basis, columns)
    coord_residual = coords[:, 0] + coords[:, 1:] @ pi

    def residual_fn(ts):
        return np.einsum("tdi,i->td", u_p_basis.at(np.atleast_1d(ts)), coord_residual)

    return DualResidualReport(
        function_residual_norm=weighted_norm(spec, residual_fn),
        coord_residual=coord_residual,
        coord_residual_norm=float(np.linalg.norm(coord_residual)))
