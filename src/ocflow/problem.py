"""Optimal control problem definition, gains, and simulation-based values.

An :class:`OcpProblem` bundles the dynamics, running/terminal costs and the
terminal constraint together with their analytic first derivatives.  The
derivatives are trusted inside the solver; :func:`validate_problem` checks
them against central finite differences so a bad Jacobian fails loudly up
front instead of silently bending gradients.

The cost integral is accumulated as an extra state during the forward solve,
so its accuracy is tied to the adaptive integrator rather than to a separate
quadrature.  The n+1-th channel also keeps the forward steps fine enough for
mu, whose forcing is L_x, as the adjoint replay cuts them for its stability
alone: with J summed on the Simpson grid instead, pipelines ran faster, but
an LQR-like flow stalled at residual 2.4e-6, and mu broke its 1e-4 bound in a
test of the adjoint equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DerivativeMismatchError, DimensionError,
                     _require_gain, _require_number, _require_numbers)
from .integrate import DenseTrajectory, OdeSettings, _lane_rates, integrate_ivp


@dataclass(frozen=True)
class OcpProblem:
    """Bolza problem: minimize phi(x(t_f), t_f) + int L dt s.t. x' = f, g(x_f, t_f) = 0.

    Evaluators take per-point arguments ``(x, u, t)`` (dynamics/running cost)
    or ``(x_f, t_f)`` (terminal cost/constraint).  At stacked points the
    solver calls them once per point, or, with ``vectorized=True``, once on
    the stacked inputs ``(N, n), (N, m), (N,)``, or for the terminal ones
    stacked states ``(N, n)`` at one shared t_f, and reads stacked outputs; a
    terminal output without the leading axis holds for every state.  The
    quadrature layer and the lanes of a batch exploit this.

    ``n`` and ``m`` are integers >= 1 and ``q`` an integer >= 0; ``q = 0``
    (no terminal constraint) is allowed: ``g`` returns an empty vector, and
    the constrained formulas run on empty axes.  ``t0`` and ``tf_fixed`` are
    finite.  A bad value raises :class:`ConfigurationError`.
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
        for name, least in (("n", 1), ("m", 1), ("q", 0)):
            object.__setattr__(self, name, _require_number(getattr(self, name), name,
                                                           integer=True, least=least))
        for name in ("t0",) + (() if self.tf_fixed is None else ("tf_fixed",)):
            object.__setattr__(self, name, _require_number(getattr(self, name), name))
        object.__setattr__(self, "x0", _require_numbers(self.x0, "x0"))
        if self.x0.shape != (self.n,):
            raise DimensionError(f"x0 has shape {self.x0.shape}, expected ({self.n},)")
        if self.tf_mode not in ("fixed", "free"):
            raise ConfigurationError(f"tf_mode must be 'fixed' or 'free', got {self.tf_mode!r}")
        if self.tf_mode == "fixed":
            if self.tf_fixed is None:
                raise ConfigurationError("tf_mode='fixed' requires tf_fixed")
            if self.tf_fixed <= self.t0:
                raise ConfigurationError(f"tf_fixed must exceed t0 = {self.t0!r}, "
                                         f"got {self.tf_fixed!r}")


@dataclass(frozen=True)
class Gains:
    """Evolution gains: inverse control weight, terminal-time and constraint gains.

    ``K_inv`` is the m x m SPD *inverse* control weight, an array or a
    callable of t; ``k_tf`` >= 0 scales the terminal-time equation (ignored
    when t_f is fixed); the SPD ``K_g`` sets the decay rate of the constraint
    violation.  Each is checked here, a gain by :func:`errors._require_gain`
    (a scalar is 1 x 1), sizes and a callable at t0 with the problem.
    """

    K_inv: np.ndarray | Callable[[float], np.ndarray]
    k_tf: float
    K_g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k_tf", _require_number(self.k_tf, "k_tf", least=0))
        for name in ("K_g",) + (() if callable(self.K_inv) else ("K_inv",)):
            object.__setattr__(self, name, _require_gain(getattr(self, name), name))

    @classmethod
    def constant(cls, K, m: int, q: int, *, k_tf: float = 0.0, K_g=0.1) -> "Gains":
        """Build time-invariant gains from scalars or matrices.

        ``K`` is the (m, m) control weight (its inverse enters the Gram
        matrix) and ``K_g`` the (q, q) constraint gain; scalars are promoted
        to multiples of the identity, and any other shape is refused.
        """
        return cls(K_inv=_inverse_weight(K, m), k_tf=k_tf, K_g=_require_gain(K_g, "K_g", q))

    def K_inv_at(self, ts: np.ndarray) -> np.ndarray:
        """Inverse control weight stacked over an array of times: (N, m, m), or
        (B, N, m, m) for the (B, N) times of lanes."""
        ts = np.atleast_1d(ts)
        if callable(self.K_inv):
            K = np.stack([np.asarray(self.K_inv(t), dtype=float) for t in ts.reshape(-1)])
            return K.reshape(*ts.shape, *K.shape[1:])
        return np.broadcast_to(self.K_inv, (*ts.shape, *self.K_inv.shape))

    def K_at(self, ts: np.ndarray) -> np.ndarray:
        """Control weight K(t) = K_inv(t)^-1 stacked over times: (N, m, m)."""
        return np.linalg.inv(self.K_inv_at(ts))


def _inverse_weight(K, m: int) -> np.ndarray:
    """K^-1 of the (m, m) SPD control weight K, symmetrized; a scalar stands for K * I."""
    K_inv = np.linalg.inv(_require_gain(K, "K", m))
    return 0.5 * (K_inv + K_inv.T)      # exact when inv's rounding kept it symmetric


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


def _central_diff(fun, z0, h=1e-5, *, batch=False):
    """Jacobian of fun at z0 by central differences; columns index z.  With
    ``batch``, fun takes the 2 z0.size points, stacked, in one call."""
    z0 = np.asarray(z0, dtype=float)
    dz = h * np.maximum(1.0, np.abs(z0))
    points = np.concatenate([z0 + np.diag(dz), z0 - np.diag(dz)])
    values = (np.asarray(fun(points), dtype=float) if batch
              else np.stack([np.asarray(fun(z), dtype=float) for z in points]))
    diff = (values[:z0.size] - values[z0.size:]) / (2 * dz).reshape(-1, *[1] * (values.ndim - 1))
    return np.moveaxis(diff, 0, -1)


def validate_problem(prob: OcpProblem, samples: int, *, tol: float = 1e-4,
                     seed: int = 0) -> ValidationReport:
    """Check every analytic derivative against central finite differences.

    Raises :class:`DimensionError` on shape mismatches and
    :class:`DerivativeMismatchError` when any derivative disagrees with the
    finite-difference probe beyond ``tol`` (relative).  Returns the error
    table otherwise.  ``samples``, the number of random probe points, must
    be an integer >= 1 (:class:`ConfigurationError` otherwise).
    """
    samples = _require_number(samples, "samples", integer=True, least=1)
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


def _batch_eval(prob: OcpProblem, name: str, xs, *args) -> np.ndarray:
    """The callback ``name`` at stacked states xs (*P, n): a running one at
    ``(us, ts)``, us (*P, m) and ts broadcasting to *P (lanes of a time
    grid), a terminal one at ``(t_f,)``, one t_f the B lanes share or a (B,)
    array; returns (*P, ...).  A single point (P = ()) is one plain call.
    Otherwise a vectorized problem takes one stacked call at one t_f, any
    other one call per point; a terminal output fills the shape
    :data:`_EXPECTED_SHAPES` gives, so one without the leading axis holds.
    """
    fn = getattr(prob, name)
    points = xs.shape[:-1]
    if not points:
        return np.asarray(fn(xs, *args), dtype=float)
    if len(args) == 1:                  # a terminal callback: all lanes, or each one
        (t_f,), out = args, np.empty((*points, *_EXPECTED_SHAPES[name](prob)))
        own = isinstance(t_f, np.ndarray)
        for b, x in [(..., xs)] if prob.vectorized and not own else enumerate(xs):
            out[b] = fn(x, float(t_f[b]) if own else t_f)
        return out
    us, ts = args                       # a running callback: its points flat, each at its time
    xs, us = xs.reshape(-1, xs.shape[-1]), us.reshape(-1, us.shape[-1])
    ts = np.broadcast_to(ts, points).reshape(-1)
    if prob.vectorized:
        out = np.asarray(fn(xs, us, ts), dtype=float)
    else:
        out = np.stack([np.asarray(fn(xs[i], us[i], ts[i]), dtype=float)
                        for i in range(ts.size)])
    return out.reshape(*points, *out.shape[1:])


def _objective(prob: OcpProblem, sol: DenseTrajectory) -> tuple:
    """(J, g) = (phi(x_f) + the running cost, g(x_f)) at the end t_f of a state
    solve, or per lane, (B,) and (B, q), of a solve of B lanes at their t_f."""
    end, t_f = sol.last, sol.end
    x_f = end[..., :prob.n]
    return (_batch_eval(prob, "phi", x_f, t_f) + end[..., prob.n],
            _batch_eval(prob, "g", x_f, t_f))


def _state_solution(prob: OcpProblem, u_of_ts, t_f, ode: OdeSettings | None,
                    breakpoints, lanes: int) -> DenseTrajectory:
    """The forward solve of ``lanes`` = B systems as the lanes of one solve, without J and g.

    The controls ``u_of_ts(ts) -> (B, N, m)`` run once per step attempt, at
    all of its stage times (see :func:`integrate_ivp`), and ``f`` and ``L``
    take the B lanes as stacked points, a vectorized problem's in one direct
    call; with a (B,) ``t_f`` each lane runs at its own rate and time on the
    first lane's clock.
    """
    n, f, L, c, ends = prob.n, prob.f, prob.L, None, None
    if not prob.vectorized:
        f, L = (partial(_batch_eval, prob, name) for name in "fL")
    ones = np.ones(lanes)
    at = lambda t: t * ones             # the lanes are stacked points at one time
    if isinstance(t_f, np.ndarray):     # or each at its own time and rate
        ends, t_f, rates = t_f, t_f[0], _lane_rates(prob.t0, t_f)
        t0, slope, c = prob.t0, rates - 1.0, rates[:, None]
        at = lambda t: t + (t - t0) * slope                     # as _lane_times

    def rhs(t, ya, u):
        x, t = ya[:, :n], at(t)         # the state's channels of each lane; the cost's is n
        out = np.empty((lanes, n + 1))
        out[:, :n] = f(x, u, t)
        out[:, n] = L(x, u, t)
        if c is not None:
            out *= c
        return out

    y0 = np.zeros((lanes, n + 1))       # the cost channel starts at 0
    y0[:, :n] = prob.x0
    sol = integrate_ivp(rhs, y0, (prob.t0, t_f), ode, breakpoints=breakpoints,
                        _stage_input=lambda ts: u_of_ts(ts).swapaxes(0, 1), _quadrature=n)
    sol.ends = ends
    return sol


def simulate_control(prob: OcpProblem, u_of_t, t_f: float,
                     ode: OdeSettings | None = None,
                     breakpoints=()) -> tuple[DenseTrajectory, float, np.ndarray]:
    """Forward solve under a control ``u_of_t(t) -> (m,)``; returns (solution, J, g).

    The returned dense solution has n+1 channels: the state plus the running
    cost accumulated as an augmented state.  A control value not shaped (m,)
    raises :class:`DimensionError`.
    """
    def u_of_ts(ts):                    # the one lane's (1, N, m)
        us = [np.asarray(u_of_t(t), dtype=float) for t in ts.tolist()]
        if bad := [u.shape for u in us if u.shape != (prob.m,)]:
            raise DimensionError(f"u_of_t returned shape {bad[0]}, expected ({prob.m},)")
        return np.stack(us)[None]

    sol, = _state_solution(prob, u_of_ts, t_f, ode, breakpoints, 1).lanes()
    J, g_val = _objective(prob, sol)
    return sol, float(J), g_val
