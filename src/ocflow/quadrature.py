"""Composite Simpson quadrature on panels aligned with control breakpoints.

All time integrals in the solver (Gram matrices, gradient and constraint
integrals, projections) run on this module's grid so that quantities built on
the *same grid* agree to round-off, not merely to quadrature error.  The grid
is described by an odd node count on a uniform partition; callers may pass
extra breakpoints (control nodes of piecewise bases) that split panels so the
integrand stays smooth panel by panel.  Every weighted integral int U^T W V dt
of sampled columns (a Gram matrix, a projection's right-hand side and norm,
the basis-free multiplier's system) is one :func:`_gram` product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _require_number


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform composite-Simpson grid: ``nodes`` must be an odd integer >= 3."""

    nodes: int = 201

    def __post_init__(self):
        n = _require_number(self.nodes, "nodes", integer=True, least=3)
        if n % 2 == 0:
            raise ConfigurationError(f"nodes must be an odd integer >= 3, got {n!r}")
        object.__setattr__(self, "nodes", n)


def panel_edges(t0: float, t_f: float, spec: QuadratureSpec,
                breakpoints=()) -> np.ndarray:
    """Panel boundaries: uniform edges merged with interior breakpoints.

    The span must run forward: t0 < t_f, or :class:`ValueError`.
    """
    if not t0 < t_f:
        raise ValueError(f"quadrature span needs t0 < t_f, got [{float(t0)!r}, {float(t_f)!r}]")
    n_panels = (spec.nodes - 1) // 2
    edges = np.linspace(t0, t_f, n_panels + 1)
    extra = np.asarray(breakpoints, dtype=float)
    if extra.size:
        tol = 1e-12 * max(1.0, t_f - t0)
        extra = extra[(extra > t0 + tol) & (extra < t_f - tol)]
        # a uniform edge within tol of a breakpoint gives way to it, so the
        # panels split exactly where the integrand does
        near = np.abs(edges[:, None] - extra).min(axis=1, initial=np.inf) <= tol
        edges = np.union1d(edges[~near], extra)
    return edges


def simpson_points(t0: float, t_f: float, spec: QuadratureSpec,
                   breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation points and weights for the 3-point rule on each panel.

    Returns ``(points, weights)`` with one (left, mid, right) triple per
    panel; ``sum(w * f(points))`` is the composite Simpson integral.  Panel
    endpoints are nudged one ulp into the panel so a one-sided discontinuity
    sitting exactly on a panel edge (a breakpoint of a step control) is
    integrated with the branch that actually rules the panel interior.
    """
    edges = panel_edges(t0, t_f, spec, breakpoints)
    a, b = edges[:-1], edges[1:]
    pts = np.empty((a.size, 3))
    pts[:, 0] = np.nextafter(a, b)
    pts[:, 1] = 0.5 * (a + b)
    pts[:, 2] = np.nextafter(b, a)
    h = (b - a) / 6.0
    w = np.empty((a.size, 3))
    w[:, 0] = w[:, 2] = h
    w[:, 1] = 4.0 * h
    return pts.reshape(-1), w.reshape(-1)


def _gram(w, W, U, V) -> np.ndarray:
    """int U^T W V dt from weights w (N,), samples ([B,] N, m, i) and
    ([B,] N, m, j) and the weight W ([B,] N, m, m), or None for the identity, as
    one matrix product (per lane of a leading lane axis on any of them)."""
    *lanes, N, m, i = U.shape
    WU = (w[:, None, None] * U).reshape(*lanes, N * m, i)
    WV = V if W is None else W @ V
    return WU.swapaxes(-1, -2) @ WV.reshape(*WV.shape[:-3], N * m, V.shape[-1])
