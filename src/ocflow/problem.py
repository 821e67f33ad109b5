"""Optimal control problem definition, gains, and simulation-based values.

An :class:`OcpProblem` bundles the dynamics, running/terminal costs and the
terminal constraint together with their analytic first derivatives.  The
derivatives are trusted inside the solver; :func:`validate_problem` checks
them against central finite differences so a bad Jacobian fails loudly up
front instead of silently bending gradients.

The cost integral is accumulated as an extra state during the forward solve,
so its accuracy is tied to the adaptive integrator rather than to a separate
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DerivativeMismatchError, DimensionError
from .integrate import DenseTrajectory, OdeSettings, integrate_ivp


@dataclass(frozen=True)
class OcpProblem:
    """Bolza problem: minimize phi(x(t_f), t_f) + int L dt s.t. x' = f, g(x_f, t_f) = 0.

    Evaluators take per-point arguments ``(x, u, t)`` (dynamics/running cost)
    or ``(x_f, t_f)`` (terminal cost/constraint).  With ``vectorized=True``
    they must also accept stacked inputs ``(N, n), (N, m), (N,)``, or for the
    terminal ones stacked states ``(N, n)`` at one shared t_f, and return
    stacked outputs; a terminal output without the leading axis holds for
    every state.  The quadrature layer and the lanes of a batch exploit this.

    ``q = 0`` (no terminal constraint) is allowed: ``g`` returns an empty
    vector, and the constrained formulas run on empty axes.
    """

    n: int
    m: int
    q: int
    t0: float
    x0: np.ndarray
    tf_mode: str                       # "fixed" | "free"
    f: Callable
    f_x: Callable
    f_u: Callable
    L: Callable
    L_x: Callable
    L_u: Callable
    phi: Callable
    phi_x: Callable
    phi_t: Callable
    g: Callable
    g_x: Callable
    g_t: Callable
    tf_fixed: float | None = None      # required iff tf_mode == "fixed"
    vectorized: bool = False
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.n,):
            raise DimensionError(f"x0 has shape {self.x0.shape}, expected ({self.n},)")
        if self.tf_mode not in ("fixed", "free"):
            raise ConfigurationError(f"tf_mode must be 'fixed' or 'free', got {self.tf_mode!r}")
        if self.tf_mode == "fixed":
            if self.tf_fixed is None:
                raise ConfigurationError("tf_mode='fixed' requires tf_fixed")
            if self.tf_fixed <= self.t0:
                raise ConfigurationError("tf_fixed must exceed t0")
        if self.q < 0:
            raise ConfigurationError("q must be >= 0")


@dataclass(frozen=True)
class Gains:
    """Evolution gains: inverse control weight, terminal-time and constraint gains.

    ``K_inv(t)`` is the m x m symmetric positive-definite *inverse* control
    weight.  ``k_tf`` scales the terminal-time equation (ignored when t_f is
    fixed).  ``K_g`` sets the exponential decay rate of the
    terminal-constraint violation.
    """

    K_inv: Callable[[float], np.ndarray]
    k_tf: float
    K_g: np.ndarray
    K_inv_const: np.ndarray | None = None   # set when K_inv is time-invariant

    @classmethod
    def constant(cls, K, m: int, q: int, *, k_tf: float = 0.0, K_g=0.1) -> "Gains":
        """Build time-invariant gains from scalars or matrices.

        ``K`` is the (m, m) control weight (its inverse enters the Gram
        matrix) and ``K_g`` the (q, q) constraint gain; scalars are promoted
        to multiples of the identity, and any other shape is refused.
        """
        K = _gain_matrix(K, m, "K")
        _require_spd(K, "K")
        K_inv_const = np.linalg.inv(K)
        K_g = _gain_matrix(K_g, q, "K_g")
        _require_spd(K_g, "K_g")
        if not (math.isfinite(k_tf) and k_tf >= 0):
            raise ConfigurationError(f"k_tf must be finite and >= 0, got {k_tf!r}")
        return cls(K_inv=lambda t: K_inv_const, k_tf=float(k_tf), K_g=K_g,
                   K_inv_const=K_inv_const)

    def K_inv_at(self, ts: np.ndarray) -> np.ndarray:
        """Inverse control weight stacked over an array of times: (N, m, m)."""
        ts = np.atleast_1d(ts)
        if self.K_inv_const is not None:
            return np.broadcast_to(self.K_inv_const, (ts.size, *self.K_inv_const.shape))
        return np.stack([np.asarray(self.K_inv(t), dtype=float) for t in ts])

    def K_at(self, ts: np.ndarray) -> np.ndarray:
        """Control weight K(t) = K_inv(t)^-1 stacked over times: (N, m, m)."""
        return np.linalg.inv(self.K_inv_at(ts))


def _gain_matrix(K, dim: int, name: str) -> np.ndarray:
    """K as a (dim, dim) matrix; a scalar or 1 x 1 gain is promoted to K * I."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    _require_finite(K, name)
    if K.shape == (1, 1) and dim != 1:
        K = K[0, 0] * np.eye(dim)
    if K.shape != (dim, dim):
        raise ConfigurationError(f"{name} has shape {K.shape}, expected ({dim}, {dim})")
    return K


def _require_finite(M: np.ndarray, name: str) -> None:
    if not np.isfinite(M).all():
        raise ConfigurationError(f"{name} must be finite, got {M.tolist()!r}")


def _require_spd(M: np.ndarray, name: str) -> None:
    M = np.asarray(M, dtype=float)
    _require_finite(M, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=1e-12, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"{name} must be positive-definite") from None


@dataclass
class SolveReport:
    """Final certified iterate of one evolution solve."""

    p_final: np.ndarray
    tf_final: float
    pi_final: np.ndarray
    J_final: float
    residual_norm: float
    g_norm: float
    converged: bool
    tau_reached: float
    wall_time: float

    def as_dict(self) -> dict:
        """The fields as JSON values: floats, lists of floats and a bool."""
        return {k: bool(v) if k == "converged" else np.asarray(v, dtype=float).tolist()
                for k, v in vars(self).items()}


@dataclass
class TraceRow:
    tau: float
    p: np.ndarray
    t_f: float
    pi: np.ndarray
    J: float
    g_norm: float
    residual_norm: float
    V: float


@dataclass
class SolveTrace:
    """Per-tau history of the evolution (rows at >= record_every spacing)."""

    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if self.rows and row.tau <= self.rows[-1].tau:
            raise ValueError("trace taus must be strictly increasing")
        self.rows.append(row)

    def taus(self) -> np.ndarray:
        return np.array([r.tau for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class ValidationReport:
    """Per-evaluator maximum relative derivative errors over the samples."""

    samples: int
    errors: dict[str, float]

    def max_error(self) -> float:
        return max(self.errors.values())


_EXPECTED_SHAPES = {
    "f": lambda p: (p.n,), "f_x": lambda p: (p.n, p.n), "f_u": lambda p: (p.n, p.m),
    "L": lambda p: (), "L_x": lambda p: (p.n,), "L_u": lambda p: (p.m,),
    "phi": lambda p: (), "phi_x": lambda p: (p.n,), "phi_t": lambda p: (),
    "g": lambda p: (p.q,), "g_x": lambda p: (p.q, p.n), "g_t": lambda p: (p.q,),
}


def _check_shapes(prob: OcpProblem, x, u, t, tf) -> None:
    for name, shape in _EXPECTED_SHAPES.items():     # running callbacks, then terminal
        args = (x, tf) if name.startswith(("phi", "g")) else (x, u, t)
        out, want = np.asarray(getattr(prob, name)(*args), dtype=float), shape(prob)
        if out.shape != want:
            raise DimensionError(f"{name} returned shape {out.shape}, expected {want}")


def _central_diff(fun, z0, h=1e-5):
    """Jacobian of fun at z0 by central differences; columns index z."""
    z0 = np.asarray(z0, dtype=float)
    cols = []
    for i in range(z0.size):
        dz = np.zeros_like(z0)
        dz[i] = h * max(1.0, abs(z0[i]))
        hi = np.asarray(fun(z0 + dz), dtype=float)
        lo = np.asarray(fun(z0 - dz), dtype=float)
        cols.append((hi - lo) / (2 * dz[i]))
    return np.stack(cols, axis=-1)


def validate_problem(prob: OcpProblem, samples: int, *, tol: float = 1e-4,
                     seed: int = 0) -> ValidationReport:
    """Check every analytic derivative against central finite differences.

    Raises :class:`DimensionError` on shape mismatches and
    :class:`DerivativeMismatchError` when any derivative disagrees with the
    finite-difference probe beyond ``tol`` (relative).  Returns the error
    table otherwise.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    horizon = (prob.tf_fixed - prob.t0) if prob.tf_fixed is not None else 1.0

    def rel(an, fd):
        an, fd = np.asarray(an, float), np.asarray(fd, float)
        scale = max(1.0, np.abs(an).max(initial=0.0), np.abs(fd).max(initial=0.0))
        return np.abs(an - fd).max(initial=0.0) / scale

    worst: dict[str, float] = {}
    for k in range(samples):
        x = prob.x0 + rng.uniform(-1.0, 1.0, prob.n)
        u = rng.uniform(-1.0, 1.0, prob.m)
        t = prob.t0 + rng.uniform(0.1, 0.9) * horizon
        tf = prob.t0 + rng.uniform(0.5, 1.5) * horizon
        if k == 0:
            _check_shapes(prob, x, u, t, tf)

        checks = {
            "f_x": (prob.f_x(x, u, t), _central_diff(lambda z: prob.f(z, u, t), x)),
            "f_u": (prob.f_u(x, u, t), _central_diff(lambda z: prob.f(x, z, t), u)),
            "L_x": (prob.L_x(x, u, t), _central_diff(lambda z: prob.L(z, u, t), x)),
            "L_u": (prob.L_u(x, u, t), _central_diff(lambda z: prob.L(x, z, t), u)),
            "phi_x": (prob.phi_x(x, tf), _central_diff(lambda z: prob.phi(z, tf), x)),
            "phi_t": (prob.phi_t(x, tf),
                      _central_diff(lambda z: prob.phi(x, z[0]), np.array([tf]))[..., 0]),
            "g_x": (prob.g_x(x, tf), _central_diff(lambda z: prob.g(z, tf), x)),
            "g_t": (prob.g_t(x, tf),
                    _central_diff(lambda z: prob.g(x, z[0]), np.array([tf]))[..., 0]),
        }
        for name, (an, fd) in checks.items():
            err = rel(an, fd)
            worst[name] = max(worst.get(name, 0.0), err)
            if err > tol:
                raise DerivativeMismatchError(
                    f"{name} disagrees with finite differences: relative error "
                    f"{err:.3e} > {tol:.1e} at x={x!r}, u={u!r}, t={t!r}")
    return ValidationReport(samples=samples, errors=worst)


def _batch_eval(prob: OcpProblem, name: str, xs, us, ts) -> np.ndarray:
    """The callback ``name`` at stacked points: xs (*P, n), us (*P, m), ts
    broadcasting to the point shape *P (lanes of a time grid); returns (*P, ...).

    A single point (P = ()) is one plain call.  Otherwise a vectorized problem
    takes one stacked call, any other one call per point.
    """
    fn = getattr(prob, name)
    points = xs.shape[:-1]
    if not points:
        return np.asarray(fn(xs, us, ts), dtype=float)
    if len(points) > 1 or isinstance(ts, float):    # lanes of points, or a time they share
        xs, us = xs.reshape(-1, xs.shape[-1]), us.reshape(-1, us.shape[-1])
        ts = np.broadcast_to(ts, points).reshape(-1)
    if prob.vectorized:
        out = np.asarray(fn(xs, us, ts), dtype=float)
    else:
        out = np.stack([np.asarray(fn(xs[i], us[i], ts[i]), dtype=float)
                        for i in range(ts.size)])
    return out.reshape(*points, *out.shape[1:]) if len(points) > 1 else out


def _terminal_eval(prob: OcpProblem, name: str, x_f: np.ndarray, t_f: float) -> np.ndarray:
    """The terminal callback ``name`` at x_f (n,), or at B lanes' states (B, n)
    sharing t_f: one stacked call on a vectorized problem, else one per lane."""
    fn = getattr(prob, name)
    if x_f.ndim == 1:
        return np.asarray(fn(x_f, t_f), dtype=float)
    out = np.empty((len(x_f), *_EXPECTED_SHAPES[name](prob)))
    if prob.vectorized:
        out[...] = fn(x_f, t_f)
    else:
        for b, x in enumerate(x_f):
            out[b] = fn(x, t_f)
    return out


def _state_solution(prob: OcpProblem, u_of_ts, t_f: float, ode: OdeSettings | None,
                    breakpoints, lanes: tuple = ()) -> DenseTrajectory:
    """The forward solve of :func:`simulate_control`, without J and g.

    The control ``u_of_ts(ts) -> (N, m)`` runs once per step attempt, at
    all of its stage times (see :func:`integrate_ivp`).  With ``lanes = (B,)``
    it gives (B, N, m), the B systems run as the lanes of one solve, and
    ``f`` and ``L`` take the B lanes as stacked points.
    """
    if t_f <= prob.t0:
        raise ValueError("t_f must exceed t0")
    n, f, L, stage_input = prob.n, prob.f, prob.L, u_of_ts
    if lanes:                           # the lanes are stacked points at one time
        ones = np.ones(lanes)
        f = lambda x, u, t: _batch_eval(prob, "f", x, u, t * ones)
        L = lambda x, u, t: _batch_eval(prob, "L", x, u, t * ones)
        stage_input = lambda ts: u_of_ts(ts).swapaxes(0, 1)     # times first
    shape = (*lanes, n + 1)
    # the state's and the cost's channels of each lane
    x_of, cost_of = ((..., slice(None, n)), (..., n)) if lanes else (slice(None, n), n)

    def rhs(t, ya, u):
        x = ya[x_of]
        out = np.empty(shape)
        out[x_of] = f(x, u, t)
        out[cost_of] = L(x, u, t)
        return out

    y0 = np.empty(shape)
    y0[..., :n] = prob.x0
    y0[..., n] = 0.0
    return integrate_ivp(rhs, y0, (prob.t0, t_f), ode or OdeSettings(),
                         breakpoints=breakpoints, _stage_input=stage_input)


def simulate_control(prob: OcpProblem, u_of_t, t_f: float,
                     ode: OdeSettings | None = None,
                     breakpoints=()) -> tuple[DenseTrajectory, float, np.ndarray]:
    """Forward solve under a control ``u_of_t(t) -> (m,)``; returns (solution, J, g).

    The returned dense solution has n+1 channels: the state plus the running
    cost accumulated as an augmented state.
    """
    sol = _state_solution(prob, lambda ts: [u_of_t(t) for t in ts.tolist()], t_f, ode, breakpoints)
    n = prob.n
    x_f, cost = sol.values[-1, :n], sol.values[-1, n]
    J = float(prob.phi(x_f, t_f)) + cost
    g_val = np.asarray(prob.g(x_f, t_f), dtype=float)
    return sol, J, g_val
