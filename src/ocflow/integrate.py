"""Adaptive Dormand-Prince 4(5) integration with continuous dense output.

One explicit embedded Runge-Kutta pair serves every initial-value problem in
the package: forward state solves and the outer evolution in virtual time
are adaptive (backward spans run internally in negated time, so a single
code path covers both directions), and the linear adjoint solves replay the
same tableau backward over a forward solve's accepted steps with no error
control.  The free 4th-order interpolant of the pair provides dense output
that downstream quadrature evaluates at arbitrary nodes.  Step-size control
is a standard PI controller (safety 0.9, growth clamped to [0.2, 5.0]) with
a stability cap: each accepted step estimates the dominant eigenvalue of
the right-hand side from its two c = 1 stages,
rho = |K[6] - K[5]| / |y_new - y5| with y5 the state of stage 5
(the DOPRI5 stiffness estimate), and the next step is held to
h * rho <= 0.8 * 3.3, inside the pair's real-axis stability limit.  Without
it the controller grows h past that limit on slowly decaying modes, and a
flow near its equilibrium rides a limit cycle instead of converging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, IntegrationError, StepBudgetError

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_C_STAGE = _C.tolist()
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# difference between the 5th- and embedded 4th-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# free 4th-order interpolant (the ode45 one): y(t+theta*h) = y + h * K^T BI [theta..theta^4]
_BI = np.array([
    [1.0, -183 / 64, 37 / 12, -145 / 128],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 1500 / 371, -1000 / 159, 1000 / 371],
    [0.0, -125 / 32, 125 / 12, -375 / 64],
    [0.0, 9477 / 3392, -729 / 106, 25515 / 6784],
    [0.0, -11 / 7, 11 / 3, -55 / 28],
    [0.0, 3 / 2, -4.0, 5 / 2],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_BETA1 = 0.7 / 5.0   # PI controller exponents
_BETA2 = 0.4 / 5.0
_MIN_STEP_REL = 16 * np.finfo(float).eps   # smallest step relative to |t|
_STABLE_HRHO = 0.8 * 3.3   # next h * rho, 0.8 of the real-axis stability limit
# the stiffness estimate is skipped when |y_new - y5| is at rounding level
_ROUNDING_REL2 = (64 * np.finfo(float).eps) ** 2


def _finite_positive(v) -> bool:
    return math.isfinite(v) and v > 0


@dataclass(frozen=True)
class OdeSettings:
    """Tolerances and budget for one initial-value solve."""

    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    max_steps: int = 100_000

    def __post_init__(self):
        if not _finite_positive(self.rel_tol):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if not _finite_positive(self.abs_tol):
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def dense_output(theta, scale, base, Q) -> np.ndarray:
    """The free interpolant y = base + scale * Q [theta, theta^2, theta^3, theta^4].

    Evaluates stacked points, each with its own segment's data, in one
    batched contraction: ``theta`` and ``scale`` have shape (...,), ``base``
    (..., d) and ``Q`` (..., d, 4), with the leading axes broadcasting.  A
    point's value depends only on its own row, so a one-point stack and the
    same row of a larger one agree bit for bit.
    """
    powers = np.empty((*np.shape(theta), 4))
    powers[..., 0] = theta
    th2 = theta * theta
    powers[..., 1] = th2
    th3 = th2 * theta
    powers[..., 2] = th3
    powers[..., 3] = th3 * theta
    return base + np.asarray(scale)[..., None] * np.einsum("...k,...ck->...c", powers, Q)


class DenseTrajectory:
    """Grid values plus a continuous interpolant over [t_grid[0], t_grid[-1]].

    ``t_grid`` is strictly increasing; evaluation at a grid node returns the
    stored node value exactly.  Between nodes each segment carries its
    interpolation polynomial ``(anchor, denom, scale, base, Q)``, evaluated
    by :func:`dense_output` at theta = (t - anchor) / denom.  A scalar t is
    looked up as a one-point array, so scalar, one-point and batched lookups
    take the same path and agree bit for bit by construction.  A solve sets
    its accepted and rejected step counts ``nsteps`` and ``nrejected``.
    """

    def __init__(self, t_grid, values, segments, *, nsteps=0, nrejected=0):
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.t_grid.ndim != 1 or (self.t_grid[1:] <= self.t_grid[:-1]).any():
            raise ValueError("t_grid must be strictly increasing")
        self.segments = segments
        self.nsteps = nsteps
        self.nrejected = nrejected
        self._slack = 1e-10 * max(1.0, self.t_grid[-1] - self.t_grid[0])

    def __call__(self, t, *others):
        """y(t): (dim,) for scalar t, (N, dim) for an array of N times.

        ``others`` are trajectories on the same grid, such as an adjoint
        replayed on this solve's steps.  With them the result is the tuple of
        every trajectory's values at t, all from one search of the grid.
        """
        ts = np.asarray(t, dtype=float)
        scalar = ts.ndim == 0
        ts = ts.reshape(-1)
        grid = self.t_grid
        lo, hi = grid[0], grid[-1]
        inside = (ts >= lo - self._slack) & (ts <= hi + self._slack)   # False for NaN
        if not inside.all():
            raise DomainError(f"t = {float(ts[~inside][0])!r} outside trajectory domain "
                              f"[{float(lo)!r}, {float(hi)!r}]")
        ts = np.minimum(np.maximum(ts, lo), hi)
        idx = np.minimum(np.maximum(np.searchsorted(grid, ts, side="right") - 1, 0),
                         grid.size - 2)
        # grid nodes are exact by construction
        left = np.flatnonzero(ts == grid.take(idx))
        right = np.flatnonzero(ts == grid.take(idx + 1))
        at_left, at_right = idx[left], idx[right] + 1
        outs = []
        for traj in (self, *others):
            if traj.t_grid is not grid and not np.array_equal(traj.t_grid, grid):
                raise ValueError("trajectories looked up together must share their grid")
            anchor, denom, scale, base, Q = traj.segments
            # the gather keeps Q's memory layout, which sets einsum's summation
            # order: take() gives C order, Q[idx] any other
            Q = Q.take(idx, axis=0) if Q.flags.c_contiguous else Q[idx]
            out = dense_output((ts - anchor.take(idx)) / denom.take(idx), scale.take(idx),
                               base.take(idx, axis=0), Q)
            if left.size:
                out[left] = traj.values[at_left]
            if right.size:
                out[right] = traj.values[at_right]
            outs.append(out[0] if scalar else out)
        return tuple(outs) if others else outs[0]


def _interior(breakpoints, lo: float, hi: float) -> np.ndarray:
    """The distinct breakpoints strictly inside (lo, hi), sorted."""
    b = np.asarray(breakpoints, dtype=float).reshape(-1)
    return np.unique(b[(b > lo) & (b < hi)]) if b.size else b


def _rms(v: np.ndarray) -> float:
    """sqrt(mean(v ** 2)) as a float; it rounds exactly like numpy's expression."""
    return math.sqrt(float(np.add.reduce(v * v)) / v.size)


def _scaled_rms(v: np.ndarray, scale: np.ndarray) -> float:
    """_rms(v / scale); inf, without a numpy warning, when it overflows."""
    with np.errstate(over="ignore"):
        return _rms(v / scale)


def _initial_step(rhs, t0, y0, f0, settings):
    """Hairer-style automatic initial step size; the caller refuses a bad one."""
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0)
    d0 = _scaled_rms(y0, scale)
    d1 = _scaled_rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not _finite_positive(h0):
        return h0
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _scaled_rms(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _interpolant(K: np.ndarray) -> np.ndarray:
    """Q = K^T BI of the free interpolant, for one step's stages (7, d) or stacked ones."""
    return np.swapaxes(K, -1, -2) @ _BI


class _Stepper:
    """Forward-time adaptive stepper over [t0, t_end], restarting at ``cuts``.

    ``cuts`` are increasing interior times where the right-hand side may be
    discontinuous.  No step straddles one: the stepper restarts there with a
    fresh first stage, error history and step budget, carrying the last step
    size across, and holds every stage time one ulp inside its smooth
    subinterval, so a right-continuous discontinuity at a cut never leaks
    across it.  ``backward`` marks a stepper running in negated time s = -t;
    its failures then report the physical time t.  ``guard(t, y) -> bool``
    may veto a step that passed the error test, which is then retried at
    half size.
    """

    def __init__(self, rhs, t0, y0, t_end, settings, guard=None, backward=False,
                 cuts=()):
        self.rhs = rhs
        self.backward = backward
        self.settings = settings
        self.guard = guard
        self.y = np.asarray(y0, dtype=float)
        self.K = np.empty((7, self.y.size))    # stage derivatives
        self._KT = [self.K[:i].T for i in range(8)]   # K[:i]^T, K^T last
        self._ends = [*map(float, cuts), float(t_end)]
        self._clamp = bool(cuts)
        self.lo, self.hi = -math.inf, math.inf
        self.ay = abs(self.y)
        self.h = None
        self.nsteps = 0
        self.nrejected = 0
        self._start(float(t0))

    def _start(self, t0: float) -> None:
        """Begin the next smooth subinterval at (t0, the current state)."""
        t_end = self._ends.pop(0)
        if self._clamp:
            self.lo, self.hi = math.nextafter(t0, t_end), math.nextafter(t_end, t0)
        self.t, self.t_end = t0, t_end
        self.err_old = 1e-4
        self._budget0 = self.nsteps + self.nrejected
        self.f = self._rhs_at(t0, self.y)
        if not np.isfinite(self.f).all():
            raise self._error(DivergenceError, "non-finite right-hand side", t0)
        if self.h is None:
            self.h = _initial_step(self._rhs_at, t0, self.y, self.f, self.settings)
            if not _finite_positive(self.h):    # the scaled norms overflowed
                s = self.settings
                raise self._error(IntegrationError, "no finite positive initial step at "
                                  f"rel_tol = {s.rel_tol!r}, abs_tol = {s.abs_tol!r}", t0)
        self.h = min(self.h, t_end - t0)

    def _rhs_at(self, t, y) -> np.ndarray:
        return np.asarray(self.rhs(min(max(t, self.lo), self.hi), y), dtype=float)

    def _error(self, cls, message: str, s: float) -> IntegrationError:
        return cls(message, time=-s if self.backward else s)

    @property
    def done(self) -> bool:
        return self.t >= self.t_end and not self._ends

    def step(self):
        """Advance one accepted step from (t, y); returns its size h and stages K.

        K (7, d) belongs to the caller; the step's dense segment is
        :func:`dense_output` with anchor t, scale h, base y and
        Q = K^T BI (see :func:`_interpolant`).
        """
        if self.t >= self.t_end:
            self._start(self.t)
        s = self.settings
        rhs, K, KT, lo, hi = self.rhs, self.K, self._KT, self.lo, self.hi
        t, y, t_end = self.t, self.y, self.t_end
        min_step = _MIN_STEP_REL * max(abs(t), abs(t_end))
        while True:
            if self.nsteps + self.nrejected - self._budget0 >= s.max_steps:
                raise self._error(StepBudgetError,
                                  f"exceeded max_steps = {s.max_steps}", t)
            h = min(self.h, t_end - t)
            if h < min_step:
                raise self._error(IntegrationError, "step size underflow", t)
            t_new = t + h
            # stretch marginally short steps to the endpoint so no unsteppable
            # sliver is left behind (a 5% stretch is well inside the error budget)
            if t + 1.05 * h >= t_end:
                t_new = t_end
                h = t_new - t

            # y + h * (K^T a_i), y_new and the error, each formed in place (the
            # same roundings as the plain expressions)
            K[0] = self.f
            for i in range(1, 7):
                yi = KT[i].dot(_A[i])
                yi *= h
                yi += y
                K[i] = rhs(min(max(t + _C_STAGE[i] * h, lo), hi), yi)
                if i == 5:
                    y5 = yi                     # stages 5 and 6 both sit at c = 1
            # a_7j = b_j: the last stage's state is the step's solution, and its
            # derivative K[6], at (t_new, y_new), is the next step's first (FSAL)
            y_new = yi
            ay_new = abs(y_new)
            sc = np.maximum(self.ay, ay_new)
            sc *= s.rel_tol
            sc += s.abs_tol
            err = KT[7].dot(_E)
            err *= h
            err /= sc
            err_norm = _rms(err)
            # a non-finite stage makes the norm non-finite; a finite stage whose
            # scaled error overflows is only rejected
            if not math.isfinite(err_norm) and not np.isfinite(K).all():
                raise self._error(DivergenceError, "non-finite right-hand side", t_new)

            if err_norm <= 1.0:
                if self.guard is not None and not self.guard(t_new, y_new):
                    self.nrejected += 1
                    self.h = 0.5 * h
                    continue
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err_norm ** (-_BETA1) * self.err_old ** _BETA2
                self.h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                dy = y_new - y5
                dy2 = dy.dot(dy)
                if dy2 > _ROUNDING_REL2 * y_new.dot(y_new):
                    dK = K[6] - K[5]
                    rho = math.sqrt(dK.dot(dK) / dy2)
                    if self.h * rho > _STABLE_HRHO:
                        self.h = _STABLE_HRHO / rho
                self.err_old = max(err_norm, 1e-4)
                K = K.copy()
                self.t, self.y, self.f, self.ay = t_new, y_new, K[6], ay_new
                self.nsteps += 1
                return h, K
            self.nrejected += 1
            self.h = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-0.2))


def integrate_ivp(rhs, y0, t_span, settings: OdeSettings | None = None, *,
                  breakpoints=()) -> DenseTrajectory:
    """Solve y' = rhs(t, y) over ``t_span`` with dense output.

    Backward spans (t_end < t_start) integrate in negated time internally.
    ``breakpoints`` are interior times where the right-hand side may be
    discontinuous; the integrator restarts there so no step straddles one,
    carrying the last step size across.
    """
    settings = settings or OdeSettings()
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if t_start == t_end:
        raise ValueError("t_span endpoints must be distinct")

    backward = t_end < t_start
    if backward:
        lo, hi = -t_start, -t_end
        fwd_rhs = lambda s, y: -np.asarray(rhs(-s, y), dtype=float)
    else:
        lo, hi = t_start, t_end
        fwd_rhs = rhs
    cuts = _interior(np.negative(breakpoints) if backward else breakpoints, lo, hi)

    stepper = _Stepper(fwd_rhs, lo, y0, hi, settings, backward=backward,
                       cuts=cuts.tolist())
    ts, ys, hs, Ks = [stepper.t], [stepper.y], [], []
    while not stepper.done:
        h, K = stepper.step()
        ts.append(stepper.t)
        ys.append(stepper.y)
        hs.append(h)
        Ks.append(K)

    ts = np.array(ts)
    ys = np.array(ys)
    anchors, denoms, bases = ts[:-1], ts[1:] - ts[:-1], ys[:-1]
    scales = np.array(hs)
    Qs = _interpolant(np.array(Ks))

    if backward:
        # map segments to increasing physical time t = -s; the local
        # coordinate theta = (t - anchor)/denom is preserved with
        # anchor -> -anchor and denom -> -denom.
        ts, ys = -ts[::-1], ys[::-1]
        anchors, denoms = -anchors[::-1], -denoms[::-1]
        scales, bases, Qs = scales[::-1], bases[::-1], Qs[::-1]

    return DenseTrajectory(ts, ys, (anchors, denoms, scales, bases, Qs),
                           nsteps=stepper.nsteps, nrejected=stepper.nrejected)


def _channels(Y: np.ndarray) -> np.ndarray:
    """(..., n, r) -> (..., n*r): the first column, then the rest row-major."""
    return np.concatenate([Y[..., 0], Y[..., 1:].reshape(*Y.shape[:-2], -1)], axis=-1)


def _divergence(ts, S, Y, Q) -> DivergenceError:
    """The failure a backward replay meets first: its last bad step, first bad stage."""
    bad_S = ~np.isfinite(S).all(axis=(2, 3))                # (steps, 7)
    bad = bad_S.any(axis=1) | ~np.isfinite(Y[:-1]).all(axis=(1, 2)) \
        | ~np.isfinite(Q).all(axis=(1, 2))
    k = np.flatnonzero(bad)[-1]
    stage = np.flatnonzero(bad_S[k])
    return DivergenceError("non-finite right-hand side",
                           time=float(ts[k, stage[0] if stage.size else -1]))


def replay_linear(traj: DenseTrajectory, coefficients, y_end, *,
                  breakpoints=()) -> DenseTrajectory:
    """Integrate Y' = M(t) Y + l(t) e0^T backward over the steps of ``traj``.

    ``traj`` is a solution whose accepted steps ``t_grid`` the replay reuses:
    the Dormand-Prince tableau runs backward from ``Y(t_grid[-1]) = y_end``
    (an (n, r) matrix) over each step with no error control.  The forcing l
    enters the first column only.  ``coefficients(ts, xs) -> (M, l)`` is
    called once with the stage times ``ts`` of every step, flattened, and
    ``traj``'s values there, taken from each step's own segment (node values
    at c = 0 and c = 1); it returns M as (N, n, n) and l as (N, n).  Stage
    times are clamped into their smooth subinterval exactly as in
    :func:`integrate_ivp`; ``traj``'s grid must contain every interior
    breakpoint.  A non-finite stage or value raises :class:`DivergenceError`
    at the first time the backward pass meets it.

    Being linear, each stage is K_i = S_i Y + d_i e0^T, with the stage maps
    of all steps built at once, so stepping is one product per step.  The
    result's channels are Y's first column, then its other columns
    row-major; its dense output is the scheme's own interpolant.
    """
    t_grid = traj.t_grid
    lo, hi = t_grid[0], t_grid[-1]
    cuts = _interior(breakpoints, lo, hi)
    if cuts.size and not (t_grid[np.searchsorted(t_grid, cuts)] == cuts).all():
        raise ValueError("the trajectory's grid must contain every interior breakpoint")
    if not np.isfinite(y_end).all():
        raise DivergenceError("non-finite right-hand side", time=float(hi))
    t_new, t_old = t_grid[:-1], t_grid[1:]      # each step runs t_old -> t_new
    H = t_new - t_old                           # negative step sizes
    steps = H.size
    ts = t_old[:, None] + H[:, None] * _C       # (steps, 7)
    ts[:, 5:] = t_new[:, None]                  # c = 1 sits exactly on the node
    if cuts.size:
        bounds = np.concatenate([[lo], cuts, [hi]])
        j = np.searchsorted(bounds, t_new, side="right") - 1
        a, b = bounds[j, None], bounds[j + 1, None]
        ts = np.minimum(np.maximum(ts, np.nextafter(a, b)), np.nextafter(b, a))

    # traj on each step's own segment
    anchor, denom, scale, base, Qx = traj.segments
    xs = dense_output((ts - anchor[:, None]) / denom[:, None], scale[:, None],
                      base[:, None], Qx[:, None])
    xs[:, 0] = traj.values[1:]
    xs[:, 5:] = traj.values[:-1, None]

    M, l = coefficients(ts.reshape(-1), xs.reshape(steps * 7, -1))
    n = l.shape[-1]
    # the augmented matrix [[M, l], [0, 0]] acting on [Y; e0^T] carries the
    # forcing, so the last column of each stage map S_i is its offset d_i
    Ma = np.zeros((steps, 7, n + 1, n + 1))
    Ma[..., :n, :n] = M.reshape(steps, 7, n, n)
    Ma[..., :n, n] = l.reshape(steps, 7, n)
    S = np.empty_like(Ma)
    S[:, 0] = Ma[:, 0]
    eye = np.eye(n + 1)
    Hm = H[:, None, None]
    Y = np.empty((steps + 1, n + 1, np.shape(y_end)[1]))
    Y[-1, :n] = y_end
    Y[-1, n] = 0.0
    Y[-1, n, 0] = 1.0
    # non-finite entries are reported below as a typed error, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(1, 7):
            Z = (_A[i] @ S[:, :i].reshape(steps, i, -1)).reshape(steps, n + 1, n + 1)
            Z *= Hm                             # I + h sum_j a_ij S_j, in place
            Z += eye
            np.matmul(Ma[:, i], Z, out=S[:, i])
        Phis, Ys = list(Z), list(Y)             # Phi = Z: the last stage's a_7j = b_j
        for k in range(steps - 1, -1, -1):
            np.matmul(Phis[k], Ys[k + 1], out=Ys[k])
        K = _channels((S @ Y[1:, None])[..., :n, :])    # stage derivatives, (steps, 7, ch)
        Q = K.transpose(0, 2, 1) @ _BI
    # a non-finite coefficient reaches Y or, through its stage derivative, Q
    if not (np.isfinite(Y).all() and np.isfinite(Q).all()):
        raise _divergence(ts, S, Y, Q)
    values = _channels(Y[:, :n])
    return DenseTrajectory(t_grid, values, (t_old, H, H, values[1:], Q), nsteps=steps)
