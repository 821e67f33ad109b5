"""Adaptive Dormand-Prince 4(5) integration with continuous dense output.

One explicit embedded Runge-Kutta pair serves every initial-value problem in
the package but the outer flows: forward state solves are adaptive and run
forward only (:func:`integrate_ivp`), and the linear adjoint solves, the only
backward passes, replay the same tableau backward over a forward solve's
accepted steps with no error control (:func:`replay_linear`), restarting
where the forward solve recorded that it did.  :class:`_Radau`, the 3-stage
Radau IIA method, steps every outer flow from its first point and that
point's f, with the same initial step estimate.  The pair's free 4th-order
interpolant gives dense output from one coefficient block per power, a
layout that :class:`DenseTrajectory` alone knows.  A state solve's control
is evaluated once per step attempt, at all of its stage times.
Several independent systems of equal size may run as lanes of one solve, a
(B, d) state stepped, like a (d,) one, in its own shape: they share one step
sequence, each step is held to the tolerance of its worst lane and each
replayed step cut for its worst lane, and lookups come back lanes first; lanes
of their own horizon run on the first lane's clock, each at its own rate
(:func:`_lane_times`).  The first step is Hairer's estimate, its trial step
clamped to the smooth subinterval; a state solve leaves its running-cost
channel, an integral from 0, out of that estimate (as CVODES does its
quadratures) and keeps it under the error test.
Step-size control is a standard PI controller (safety 0.9, growth clamped to
[0.2, 5.0]); every forward step decision is the stepper's alone: an
evaluation that refuses a trial point ends the solve with its own error.
The replay owns its step length: the error test lets a stiff problem's steps
reach h * lambda ~ 4.2, where the replayed propagator amplifies, so the
replay cuts them by its own coefficients (:func:`replay_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, DivergenceError, DomainError, IntegrationError,
                     StepBudgetError, _require_number)

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
_STABLE_HRHO = 0.8 * 3.3   # a replayed step's |h| ||M||, 0.8 of the real-axis stability limit


@dataclass(frozen=True)
class OdeSettings:
    """Tolerances and budget for one initial-value solve."""

    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    max_steps: int = 100_000

    def __post_init__(self):
        for name, rule in (("rel_tol", {"positive": True}), ("abs_tol", {"positive": True}),
                           ("max_steps", {"integer": True, "least": 1})):
            object.__setattr__(self, name, _require_number(getattr(self, name), name, **rule))


_DEFAULT_ODE = OdeSettings()


def _lane_rates(t0: float, t_f: np.ndarray) -> np.ndarray:
    """Each lane's rate c_b = (t_f,b - t0)/(t_f,0 - t0), 1.0 where t_f,b = t_f,0."""
    return (t_f - t0) / (t_f[0] - t0)


def _lane_times(s, t0: float, rates: np.ndarray) -> np.ndarray:
    """Each lane's own time t_b = s + (s - t0)(c_b - 1), (B, *s.shape), at times s
    of the first lane's clock; exactly s at c_b = 1.0."""
    s = np.asarray(s, dtype=float)
    return s + (s - t0) * (rates - 1.0).reshape(-1, *[1] * s.ndim)


def dense_output(theta, scale, base, Q, idx=None) -> np.ndarray:
    """The free interpolant y = base + scale * sum_k Q[k] theta^(k+1), Q powers first.

    Evaluates stacked points, each with its own segment's data: ``theta`` and
    ``scale`` have shape (...,), ``base`` (..., d) and ``Q`` (4, ..., d), with
    the point axes broadcasting; or, with ``idx``, a (P,) theta takes the
    rows ``idx`` of them, Q one power at a time into reused (P, d) buffers.
    The sum runs as (Q_0 theta + Q_2 theta^3) + (Q_1 theta^2 + Q_3 theta^4).
    A point's value depends only on its own row, so a one-point stack and the
    same row of a larger one agree bit for bit.
    """
    th = np.asarray(theta)[..., None]
    th2 = th * th
    th3 = th2 * th
    powers = (th, th2, th3, th3 * th)

    def term(k, out=None):              # Q_k theta^(k+1), into ``out`` if given
        if idx is not None:
            out = Q[k].take(idx, 0, out, "clip")
        return np.multiply(Q[k] if idx is None else out, powers[k], out)

    y, buf = term(0), term(2)
    y += buf
    odd = term(1)
    odd += term(3, buf)
    y += odd
    y *= np.asarray(scale if idx is None else scale.take(idx))[..., None]
    y += base if idx is None else base.take(idx, 0, buf, "clip")
    return y


class DenseTrajectory:
    """Grid values plus a continuous interpolant over [t_grid[0], t_grid[-1]].

    ``t_grid`` is strictly increasing; evaluation at a grid node returns the
    stored node value exactly.  ``values`` holds a flat row of channels per
    node, each segment its polynomial ``(anchor, denom, scale, base, Q)``, Q
    powers first (4, segments, channels), for :func:`dense_output` at theta
    = (t - anchor) / denom.  A scalar t is looked up as a one-point array, so
    all lookups and lane views take the same path and agree bit for bit.  A
    node value has the shape ``channels``, (d,) or a replay's (n, r); a solve
    of ``lane_count`` lanes holds theirs lane after lane, and its lookups and
    :attr:`last` come back lanes first.  A solve sets its accepted and
    rejected step counts ``nsteps`` and ``nrejected``, its step budget
    ``max_steps``, which bounds a replay on its steps too, and ``restarts``,
    the sorted interior nodes where it restarted at a breakpoint (may be
    empty).  Lanes of their own horizons keep their end times as ``ends``
    (else None); :attr:`end` is those, or the grid's end.
    """

    def __init__(self, t_grid, values, segments, *, channels=None, lane_count=None,
                 nsteps=0, nrejected=0, max_steps=_DEFAULT_ODE.max_steps, restarts=(),
                 ends=None):
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.t_grid.ndim != 1 or (self.t_grid[1:] <= self.t_grid[:-1]).any():
            raise ValueError("t_grid must be strictly increasing")
        self.segments = segments
        self.lane_count = lane_count        # None: one system, no lane axis
        self.channels = channels or (self.values.shape[-1] // (lane_count or 1),)
        self.nsteps, self.nrejected, self.max_steps = nsteps, nrejected, max_steps
        self.restarts = np.asarray(restarts, dtype=float)
        self.ends = ends
        self._slack = 1e-10 * max(1.0, self.t_grid[-1] - self.t_grid[0])

    def _shaped(self, flat: np.ndarray) -> np.ndarray:
        """Flat rows (..., C) -> (*lanes, ..., *channels); one (d,) system as is."""
        if self.lane_count is not None:
            v = flat.reshape(*flat.shape[:-1], self.lane_count, flat.shape[-1] // self.lane_count)
            flat = v.transpose(v.ndim - 2, *range(v.ndim - 2), v.ndim - 1)
        if len(self.channels) > 1:
            flat = flat.reshape(*flat.shape[:-1], *self.channels)
        return flat

    last = property(lambda self: self._shaped(self.values[-1]))   # the last node, lanes first
    end = property(lambda self: float(self.t_grid[-1]) if self.ends is None else self.ends)

    def __call__(self, t, *others):
        """y(t): (*channels) for scalar t, (N, *channels) for N times, lanes first.

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
            out = dense_output((ts - anchor.take(idx)) / denom.take(idx), scale, base, Q, idx)
            if left.size:
                out[left] = traj.values[at_left]
            if right.size:
                out[right] = traj.values[at_right]
            outs.append(traj._shaped(out[0] if scalar else out))
        return tuple(outs) if others else outs[0]

    def lanes(self) -> list["DenseTrajectory"]:
        """Each lane's own trajectory, as views; one of its own end on its own
        time, its grid ending exactly there (see :func:`_lane_times`)."""
        width = self.values.shape[-1] // self.lane_count
        anchor, denom, scale, base, Q = self.segments
        if self.ends is not None:
            t0, rates = self.t_grid[0], _lane_rates(self.t_grid[0], self.ends)
            grids, anchors, restarts = (_lane_times(a, t0, rates)
                                        for a in (self.t_grid, anchor, self.restarts))
            grids[:, -1] = self.ends
        out = [object.__new__(DenseTrajectory) for _ in range(self.lane_count)]
        for b, lane in enumerate(out):     # the grid is already checked
            c = slice(b * width, (b + 1) * width)
            lane.__dict__.update(self.__dict__, values=self.values[:, c], lane_count=None,
                                 segments=(anchor, denom, scale, base[:, c], Q[..., c]))
            if self.ends is not None:
                lane.__dict__.update(t_grid=grids[b], restarts=restarts[b], ends=None,
                                     segments=(anchors[b], denom * rates[b], *lane.segments[2:]),
                                     _slack=1e-10 * max(1.0, self.ends[b] - t0))
        return out

    def map_channels(self, fn) -> "DenseTrajectory":
        """The trajectory of fn(y) for one system, ``fn`` linear in a node value
        (..., *channels) -> (..., *out): it maps node values and interpolant alike."""
        anchor, denom, scale, base, Q = self.segments
        values, base, Q = (fn(a.reshape(*a.shape[:-1], *self.channels))
                           for a in (self.values, base, Q))
        flat = lambda a, axes: a.reshape(*a.shape[:axes], -1)
        return DenseTrajectory(self.t_grid, flat(values, 1),
                               (anchor, denom, scale, flat(base, 1), flat(Q, 2)),
                               channels=values.shape[1:])

    def refined(self, t_grid) -> "DenseTrajectory":
        """This trajectory, all else kept, on ``t_grid``, a finer float array with
        all its nodes, each segment its parent step's polynomial: bit for bit."""
        idx = np.minimum(np.searchsorted(self.t_grid, t_grid, side="right") - 1,
                         self.t_grid.size - 2)
        anchor, denom, scale, base, Q = self.segments
        values = dense_output((t_grid - anchor.take(idx)) / denom.take(idx), scale, base, Q, idx)
        values[np.searchsorted(t_grid, self.t_grid)] = self.values
        out, seg = object.__new__(DenseTrajectory), idx[:-1]
        out.__dict__.update(self.__dict__, t_grid=t_grid, values=values,
                            segments=(anchor[seg], denom[seg], scale[seg], base[seg], Q[:, seg]))
        return out


def _rms(v: np.ndarray) -> float:
    """The largest sqrt(mean(v_b ** 2)) over the lanes v_b of v, (d,) or (B, d),
    as a float (NaN if any lane is).

    It rounds exactly like numpy's expression sqrt(mean(v ** 2)) on each lane.
    """
    return math.sqrt(float(np.add.reduce(v * v, axis=-1).max()) / v.shape[-1])


def _scaled_rms(v: np.ndarray, scale: np.ndarray) -> list[float]:
    """Each lane's rms of v / scale, v (d,) or (B, d); inf, without a numpy
    warning, when it overflows."""
    with np.errstate(over="ignore"):
        sq = np.add.reduce((v / scale) ** 2, axis=-1)
    return [math.sqrt(x / v.shape[-1]) for x in np.atleast_1d(sq).tolist()]


def _initial_step(rhs, t0, y0, f0, settings, span: float,
                  estimated=slice(None)) -> float:
    """Hairer-style automatic initial step size, or :class:`IntegrationError`
    at t0 when none is finite and positive (the scaled norms overflowed).

    The norms run over the ``estimated`` channels of the last axis only, and
    the trial step h0, whose right-hand side ``rhs(t, y)`` is probed at
    t0 + h0, is clamped to ``span``, the length of the smooth subinterval (as
    DOPRI5's HINIT clamps it to hmax).  With lanes, y0 (B, d), h0 is the
    smallest lane's, and the result the smallest of the lanes' steps from
    their own norms at that h0.
    """
    y0e, f0e = y0[..., estimated], f0[..., estimated]
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0e)
    d1s = _scaled_rms(f0e, scale)
    h0 = span
    for d0, d1 in zip(_scaled_rms(y0e, scale), d1s):
        h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        if not 0 < h < math.inf:        # no trial step to probe
            break
        h0 = min(h0, h)
    else:
        y1 = y0 + h0 * f0
        f1 = rhs(t0 + h0, y1)
        h1 = math.inf
        for d1, d2 in zip(d1s, _scaled_rms(f1[..., estimated] - f0e, scale)):
            d2 /= h0
            h1 = min(h1, max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
                     else (0.01 / max(d1, d2)) ** 0.2)
        h = min(100 * h0, h1)
    if not 0 < h < math.inf:
        raise IntegrationError("no finite positive initial step at rel_tol = "
                               f"{settings.rel_tol!r}, abs_tol = {settings.abs_tol!r}", t0)
    return h


def _finite(f: np.ndarray, t) -> np.ndarray:
    """A first stage f at t, or :class:`DivergenceError` there if it is not finite."""
    if not np.isfinite(f).all():
        raise DivergenceError("non-finite right-hand side", t)
    return f


def _attempt(h, t, t_end, settings, attempts):
    """The next attempt's (h, t + h) from the proposed h, after ``attempts``
    attempts on this step budget, or the typed error that ends the solve."""
    if attempts >= settings.max_steps:
        raise StepBudgetError(f"exceeded max_steps = {settings.max_steps}", t)
    h = min(h, t_end - t)
    if h < _MIN_STEP_REL * max(abs(t), abs(t_end)):
        raise IntegrationError("step size underflow", t)
    # stretch marginally short steps to the endpoint so no unsteppable
    # sliver is left behind (a 5% stretch is well inside the error budget)
    if t + 1.05 * h >= t_end:
        return t_end - t, t_end
    return h, t + h


def _interpolant(K: np.ndarray) -> np.ndarray:
    """Q = K^T BI of the free interpolant, powers first: (4, d) for one step's
    stages (7, d), (4, steps, d) for stacked ones; a view of the product."""
    return np.moveaxis(np.swapaxes(K, -1, -2) @ _BI, -1, 0)


class _Stepper:
    """Forward-time adaptive stepper over [t0, t_end], restarting at ``cuts``.

    ``cuts`` are increasing interior times where the right-hand side may be
    discontinuous.  No step straddles one: the stepper restarts there with a
    fresh first stage, error history and step budget, carrying the last step
    size across, and holds every stage time one ulp inside its smooth
    subinterval, so a right-continuous discontinuity at a cut never leaks
    across it.  The state is stepped in its own shape, (d,), or (B, d) for B
    independent systems as lanes, whose error norm is the largest over the
    lanes.  The right-hand side is ``rhs(t, y, v)``, taking and returning that
    shape (its first f is checked against it), v the row at t of
    ``stage_input(ts)``, which runs once per step attempt at its six stage
    times, seven for a restart's first attempt (its stage 0 too), and at one
    point where rhs runs alone.  The first step is estimated from the
    ``estimated`` channels alone (see :func:`_initial_step`); every channel
    stays under the error test.
    """

    def __init__(self, rhs, stage_input, t0, y0, t_end, settings,
                 cuts=(), estimated=slice(None)):
        self.rhs, self.stage_input, self.estimated = rhs, stage_input, estimated
        self.settings, self.y = settings, np.asarray(y0, dtype=float)
        self.K = np.empty((7, *self.y.shape))     # stage derivatives
        self._KT = [self.K.reshape(7, -1)[:i].T for i in range(8)]   # flat K[:i]^T, K^T last
        self._ends = [*map(float, cuts), float(t_end)]
        self._clamp = bool(cuts)
        self.lo, self.hi = -math.inf, math.inf
        self.ay, self.h = abs(self.y), None
        self.nsteps = self.nrejected = 0
        self._start(float(t0))

    def _start(self, t0: float) -> None:
        """Begin the next smooth subinterval at (t0, the current state)."""
        t_end = self._ends.pop(0)
        if self._clamp:
            self.lo, self.hi = math.nextafter(t0, t_end), math.nextafter(t_end, t0)
        self.t, self.t_end = t0, t_end
        self.err_old = 1e-4
        self._budget0 = self.nsteps + self.nrejected
        self.f = None                   # the first attempt's stage times serve stage 0
        if self.h is None:
            self.f = _finite(self._rhs_at(t0, self.y), t0)
            if self.f.shape != self.y.shape:
                raise DimensionError(f"rhs returned shape {self.f.shape}, "
                                     f"expected {self.y.shape}")
            self.h = _initial_step(self._rhs_at, t0, self.y, self.f, self.settings,
                                   t_end - t0, self.estimated)
        self.h = min(self.h, t_end - t0)

    def _rhs_at(self, t, y) -> np.ndarray:
        t = min(max(t, self.lo), self.hi)
        return np.asarray(self.rhs(t, y, self.stage_input(np.array([t]))[0]), dtype=float)

    @property
    def done(self) -> bool:
        return self.t >= self.t_end and not self._ends

    def step(self):
        """Advance one accepted step from (t, y); returns its size h and stages K.

        K (7, *y.shape) belongs to the caller; the step's dense segment is
        :func:`dense_output` with anchor t, scale h, base y and
        Q = :func:`_interpolant` of K's (7, y.size) flat rows.
        """
        if self.t >= self.t_end:
            self._start(self.t)
        s = self.settings
        rhs, K, KT, lo, hi, shape = self.rhs, self.K, self._KT, self.lo, self.hi, self.y.shape
        t, y = self.t, self.y
        while True:
            h, t_new = _attempt(self.h, t, self.t_end, s,
                                self.nsteps + self.nrejected - self._budget0)
            ts = [min(max(t + c * h, lo), hi) for c in _C_STAGE]
            vs = self.stage_input(np.array(ts[self.f is not None:]))
            if self.f is None:          # a restart: all seven stages in one evaluation
                self.f = _finite(np.asarray(rhs(ts[0], y, vs[0]), dtype=float), t)
                vs = vs[1:]
            # y + h * (K^T a_i), y_new and the error, each formed in place (the
            # same roundings as the plain expressions) and viewed in y's shape
            K[0] = self.f
            for i in range(1, 7):
                yi = KT[i].dot(_A[i]).reshape(shape)
                yi *= h
                yi += y
                K[i] = rhs(ts[i], yi, vs[i - 1])
            # a_7j = b_j: the last stage's state is the step's solution, and its
            # derivative K[6], at (t_new, y_new), is the next step's first (FSAL)
            y_new = yi
            ay_new = abs(y_new)
            sc = np.maximum(self.ay, ay_new)
            sc *= s.rel_tol
            sc += s.abs_tol
            err = KT[7].dot(_E).reshape(shape)
            err *= h
            err /= sc
            err_norm = _rms(err)
            # a non-finite stage makes the norm non-finite; a finite stage whose
            # scaled error overflows is only rejected
            if not math.isfinite(err_norm) and not np.isfinite(K).all():
                raise DivergenceError("non-finite right-hand side", t_new)

            if err_norm <= 1.0:
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err_norm ** (-_BETA1) * self.err_old ** _BETA2
                self.h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                self.err_old = max(err_norm, 1e-4)
                K = K.copy()
                self.t, self.y, self.f, self.ay = t_new, y_new, K[6], ay_new
                self.nsteps += 1
                return h, K
            self.nrejected += 1
            self.h = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-0.2))


# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, IV.8): its nodes and
# matrix, the real eigenvalue of A^-1, the embedded estimate's weights on the
# stage increments Z / h, and the collocation cubic's powers from Z / h (rows)
_S6 = math.sqrt(6.0)
_RADAU_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1.0])
_RADAU_A = np.array([[(88 - 7 * _S6) / 360, (296 - 169 * _S6) / 1800, (-2 + 3 * _S6) / 225],
                     [(296 + 169 * _S6) / 1800, (88 + 7 * _S6) / 360, (-2 - 3 * _S6) / 225],
                     [(16 - _S6) / 36, (16 + _S6) / 36, 1 / 9]])
_RADAU_MU = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
_RADAU_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1.0]) / 3
_RADAU_P = np.array([[13 / 3 + 7 * _S6 / 3, -23 / 3 - 22 * _S6 / 3, 10 / 3 + 5 * _S6, 0.0],
                     [13 / 3 - 7 * _S6 / 3, -23 / 3 + 22 * _S6 / 3, 10 / 3 - 5 * _S6, 0.0],
                     [1 / 3, -8 / 3, 10 / 3, 0.0]])
_NEWTON_ITERS = 6
# a Newton rate above which the next step re-forms J (RADAU5's THET for costly
# Jacobians): a slow J's Newton error, up to tol, stalls a flow near equilibrium
_THET = 0.1


def _broyden(J: np.ndarray, dy: np.ndarray, dF: np.ndarray) -> None:
    """Broyden's rank-one update of J in place, so that J dy = dF afterwards."""
    dy2 = dy.dot(dy)
    if dy2 > 0.0:
        J += np.outer(dF - J @ dy, dy / dy2)


class _Radau:
    """The 3-stage Radau IIA method (order 5, L-stable) as in RADAU5 for an
    autonomous y' = f(y) over [0, t_end], whose ``rhs(ys)`` gives f at a list
    of points.

    It starts from y0 and its f0, which the caller has already evaluated:
    the first step is Hairer's estimate (:func:`_initial_step`), its probe a
    one-point call of ``rhs``, and J = ``jac(y0)`` is formed next.
    Simplified Newton on the real matrix I - h A (x) J solves the collocation
    system from the last step's collocation cubic, each iteration one call
    of the three stage points.  It ends on RADAU5's contraction factor: the
    last measured rate's theta / (1 - theta), carried from step to step, so a
    converged step takes one iteration; each solve raises the carried factor
    to the power 0.8, so while no rate is measured it climbs toward 1 until
    a second iteration measures one again.  It fails on a singular matrix, a
    non-finite stage or a rate that says 6 iterations will not do; J =
    ``jac(y)`` is then re-formed once, and a second failure halves h; a step
    whose Newton contracted slower than ``_THET`` has the next re-form J.  An
    accepted step leaves f(y_new) pending: the next step's first call sends
    y_new ahead of its stage points, and J takes its Broyden update with
    that f before the Newton matrix is formed, so the last step makes no f
    call.  The error is the embedded estimate filtered by (mu/h I - J)^-1,
    refined once after a rejection; the next h is Gustafsson's.  A step's K
    is Z / h.
    """

    segment = staticmethod(lambda K: _RADAU_P.T @ K)    # a step's K -> its dense Q

    def __init__(self, rhs, jac, y0, f0, t_end, settings):
        self.rhs, self.jac, self.settings = rhs, jac, settings
        self.t, self.y, self.t_end = 0.0, np.asarray(y0, dtype=float), float(t_end)
        self.nsteps = self.nrejected = 0
        self.f = _finite(np.asarray(f0, dtype=float), 0.0)
        self.h = min(_initial_step(lambda t, y: rhs([y])[0], 0.0, self.y, self.f, settings,
                                   self.t_end), self.t_end)
        self.J, self._fresh, self._slow = self._jacobian(), True, False
        self._last = None               # the last step's (h, y, f, K, error norm)
        self._faccon = 1.0              # RADAU5's carried theta / (1 - theta)
        self._tol = max(10 * np.finfo(float).eps / self.settings.rel_tol,
                        min(0.03, math.sqrt(self.settings.rel_tol)))

    def _jacobian(self) -> np.ndarray:
        J = np.array(self.jac(self.y), dtype=float)
        if not np.isfinite(J).all():
            raise DivergenceError("non-finite Jacobian", self.t)
        return J

    def _newton(self, y, h, Z, scale):
        """(Z, iterations) solving the collocation system, or None if Newton fails.

        Newton ends once faccon * norm < tol, after any iteration: faccon
        starts at the carried factor to the power 0.8, which is carried in
        its place (RADAU5's FACCON), and from the second iteration on is the
        current rate's theta / (1 - theta), which is carried.  While f(y) is
        pending the first call leads with y, whose f is checked and gives J
        its Broyden update before the Newton matrix is formed.
        """
        faccon = self._faccon = max(self._faccon, np.finfo(float).eps) ** 0.8
        M = norm_old = None
        self._slow = False
        for k in range(_NEWTON_ITERS):
            F = np.array(self.rhs([y] * (self.f is None) + list(y + Z)), dtype=float)
            if M is None:
                if self.f is None:
                    self.f = _finite(F[0], self.t)
                    F = F[1:]
                    _, y0, f0 = self._last[:3]
                    _broyden(self.J, y - y0, self.f - f0)
                try:
                    M = np.linalg.inv(np.eye(Z.size) - h * np.kron(_RADAU_A, self.J))
                except np.linalg.LinAlgError:
                    return None
            if not np.isfinite(F).all():
                return None
            dZ = (M @ (h * (_RADAU_A @ F) - Z).ravel()).reshape(Z.shape)
            norm = _rms((dZ / scale).ravel())
            if norm_old is not None:
                rate = norm / norm_old
                if not rate < 1:            # diverging, or a NaN norm
                    return None
                faccon = self._faccon = rate / (1 - rate)
                self._slow = rate > _THET
                if rate ** (_NEWTON_ITERS - k) / (1 - rate) * norm > self._tol:
                    return None
            Z = Z + dZ
            if faccon * norm < self._tol:
                return Z, k + 1
            norm_old = norm
        # at the sixth iteration the slow-convergence test and the stop test
        # both compare rate/(1 - rate) norm with the tolerance, so only an
        # exact tie gets here
        return None

    @property
    def done(self) -> bool:
        return self.t >= self.t_end

    def step(self):
        """Advance one accepted step; returns its size h and K for :meth:`segment`."""
        s, t, y, rejected = self.settings, self.t, self.y, False
        if self._slow and not self._fresh:
            self.J, self._fresh = self._jacobian(), True
        while True:
            h, t_new = _attempt(self.h, t, self.t_end, s, self.nsteps + self.nrejected)
            h0, y0, _, K0, err0 = self._last or (h, y, None, None, None)
            Z = (np.zeros((3, y.size)) if K0 is None else
                 dense_output(1.0 + h / h0 * _RADAU_C, h0, y0, self.segment(K0)) - y)
            solved = self._newton(y, h, Z, s.abs_tol + s.rel_tol * abs(y))
            if solved is None and not self._fresh:
                self.J, self._fresh = self._jacobian(), True
                solved = self._newton(y, h, Z, s.abs_tol + s.rel_tol * abs(y))
            if solved is None:
                self.h, rejected, self.nrejected = 0.5 * h, True, self.nrejected + 1
                continue
            Z, iters = solved
            y_new = y + Z[2]
            ZE = _RADAU_E @ Z / h
            filt = (_RADAU_MU / h) * np.eye(y.size) - self.J
            sc = s.abs_tol + s.rel_tol * np.maximum(abs(y), abs(y_new))
            err = np.linalg.solve(filt, self.f + ZE)
            if rejected and _rms(err / sc) > 1.0:
                err = np.linalg.solve(filt, np.asarray(self.rhs([y + err])[0]) + ZE)
            err_norm = max(_rms(err / sc), 1e-10)
            predicted = 1.0 if err0 is None else min(1.0, h / h0 * (err0 / err_norm) ** 0.25)
            factor = (_SAFETY * (2 * _NEWTON_ITERS + 1) / (2 * _NEWTON_ITERS + iters)
                      * predicted * err_norm ** -0.25)
            if not err_norm <= 1.0:
                self.h = h * max(_MIN_FACTOR, factor)
                rejected, self.nrejected = True, self.nrejected + 1
                continue
            K = Z / h
            self.h, self._fresh = h * min(_MAX_FACTOR, factor), False
            self._last = (h, y, self.f, K, err_norm)
            self.t, self.y, self.f, self.nsteps = t_new, y_new, None, self.nsteps + 1
            return h, K


def integrate_ivp(rhs, y0, t_span, settings: OdeSettings | None = None, *,
                  breakpoints=(), _stage_input=None, _quadrature=None) -> DenseTrajectory:
    """Solve y' = rhs(t, y) forward over ``t_span`` with dense output.

    The span must run forward, t_start < t_end (:class:`ValueError`
    otherwise); the package's backward passes are :func:`replay_linear`'s.
    ``breakpoints`` are interior times where the right-hand side may be
    discontinuous; the integrator restarts there so no step straddles one,
    carrying the last step size across; the solution's ``restarts`` are the
    distinct ones inside the span.  ``y0`` is (d,), or (B, d) to run B
    independent d-channel systems as lanes of one solve, d, B >= 1 (else
    :class:`DimensionError`): ``rhs`` takes and returns arrays of y0's shape
    (a first f of another shape raises :class:`DimensionError`), the lanes
    share every step, each step is held to its worst lane's error, and the
    solution's lookups come back lanes first, (B, ..., d)
    (:meth:`DenseTrajectory.lanes` gives each lane's own).
    ``_stage_input``, private to :func:`problem._state_solution`, is an input
    ``rhs(t, y, v)`` takes, evaluated per step attempt (see :class:`_Stepper`);
    without it the input is the stage times, so ``rhs(t, y)`` steps alike.
    ``_quadrature``, private to the same caller, is the index of each lane's
    channel that integrates a running cost: the first step is estimated
    without it, since from a zero start its scale is ``abs_tol`` alone.
    """
    settings = settings or _DEFAULT_ODE
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2) or not y0.size:
        raise DimensionError(f"y0 has shape {y0.shape}, expected (d,) or (B, d) "
                             "with d, B >= 1")
    estimated = slice(None)
    if _quadrature is not None:
        estimated = np.arange(y0.shape[-1]) != _quadrature
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if not t_start < t_end:
        raise ValueError(f"t_span must run forward, got ({t_start!r}, {t_end!r})")
    cuts = np.asarray(breakpoints, dtype=float).reshape(-1)
    if cuts.size:                       # np.unique has a fixed cost, even on no entries
        cuts = np.unique(cuts[(cuts > t_start) & (cuts < t_end)])
    if _stage_input is None:            # the stage times are the input
        plain, _stage_input = rhs, (lambda ts: ts)
        rhs = lambda t, y, _: plain(t, y)
    stepper = _Stepper(rhs, _stage_input, t_start, y0, t_end, settings, cuts=cuts.tolist(),
                       estimated=estimated)
    ts, ys, hs, Ks = [stepper.t], [stepper.y], [], []
    while not stepper.done:
        h, K = stepper.step()
        ts.append(stepper.t)
        ys.append(stepper.y)
        hs.append(h)
        Ks.append(K)

    ts, ys = np.array(ts), np.array(ys).reshape(len(ts), -1)     # flat rows of channels
    Q = np.ascontiguousarray(_interpolant(np.array(Ks).reshape(len(Ks), 7, -1)))   # by power
    return DenseTrajectory(ts, ys, (ts[:-1], ts[1:] - ts[:-1], np.array(hs), ys[:-1], Q),
                           lane_count=len(y0) if y0.ndim == 2 else None, nsteps=stepper.nsteps,
                           nrejected=stepper.nrejected, max_steps=settings.max_steps,
                           restarts=cuts)


def _divergence(ts, S, Y, Q) -> DivergenceError:
    """The failure a backward replay meets first: its last bad step, first bad stage."""
    steps = len(ts)
    bad_S = ~np.isfinite(S.reshape(steps, 7, -1)).all(axis=2)
    bad = bad_S.any(axis=1) | ~np.isfinite(Y[:-1].reshape(steps, -1)).all(axis=1) \
        | ~np.isfinite(Q).all(axis=(0, 2))
    k = np.flatnonzero(bad)[-1]
    stage = np.flatnonzero(bad_S[k])
    return DivergenceError("non-finite right-hand side",
                           time=float(ts[k, stage[0] if stage.size else -1]))


def replay_linear(traj: DenseTrajectory, coefficients, y_end) -> DenseTrajectory:
    """Integrate Y' = M(t) Y + l(t) e0^T backward over the steps of ``traj``.

    ``traj`` is a solution whose accepted steps ``t_grid`` the replay reuses:
    the Dormand-Prince tableau runs backward from ``Y(t_grid[-1]) = y_end``
    (an (n, r) matrix) over each step with no error control.  The forcing l
    enters the first column only.  ``coefficients(ts, xs) -> (M, l)`` is
    called once with the times ``ts`` of stages 0-5 of every step, flattened,
    and ``traj``'s values there, (N, d), taken from each step's own segment
    (node values at c = 0 and c = 1); it returns M as (N, n, n) and l as
    (N, n).  Stage 6 sits at stage 5's (t, x), so it reuses stage 5's M and
    l.  A (B, n, r) ``y_end`` replays the B lanes of ``traj`` at once, lanes
    first throughout: xs is (B, N, d), M (B, N, n, n) and l (B, N, n), and
    the result's lookups are (B, ..., n, r).  Any other shape of y_end, M or
    l raises :class:`DimensionError`.  Stage times are clamped into their
    smooth subinterval between ``traj``'s own ``restarts`` exactly as in
    :func:`integrate_ivp`.  A step whose |h| max ||M||_inf over its stages and
    lanes exceeds 0.8 * 3.3, inside the real-axis stability limit, is cut into
    equal steps on ``traj``'s polynomials (:meth:`DenseTrajectory.refined`)
    until none needs it, so the result's grid may be finer than ``traj``'s;
    cuts past ``traj.max_steps`` steps raise :class:`StepBudgetError`.  A
    non-finite stage or value cuts nothing and raises
    :class:`DivergenceError` at the first time the backward pass meets it.

    Being linear, each stage is K_i = S_i Y + d_i e0^T, with the stage maps
    of all steps built at once, so stepping is one product per step.  The
    result's node values are the (n, r) blocks of Y, stored row-major, so its
    values and stage derivatives are reshapes of the stepped blocks; its
    dense output is the scheme's own interpolant.
    """
    t_grid, cuts = traj.t_grid, traj.restarts
    lo, hi = t_grid[0], t_grid[-1]
    y_end = np.asarray(y_end, dtype=float)
    if y_end.ndim not in (2, 3):
        raise DimensionError(f"y_end has shape {y_end.shape}, expected (n, r) or (B, n, r)")
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
    xs = dense_output((ts[:, :6] - anchor[:, None]) / denom[:, None], scale[:, None],
                      base[:, None], Qx[:, :, None])
    xs[:, 0] = traj.values[1:]
    xs[:, 5] = traj.values[:-1]

    M, l = coefficients(ts[:, :6].reshape(-1), traj._shaped(xs.reshape(steps * 6, -1)))
    *lanes, n, r = y_end.shape
    if np.shape(M) != (*lanes, steps * 6, n, n) or np.shape(l) != (*lanes, steps * 6, n):
        raise DimensionError(f"coefficients returned M {np.shape(M)} and l {np.shape(l)}, "
                             f"expected M as (..., {n}, {n}) and l as (..., {n})")
    # the steps each step takes (a non-finite M cuts nothing: it is reported below)
    with np.errstate(over="ignore"):
        rows = np.einsum("...ij->...i", np.abs(M)).reshape(-1, steps, 6 * n)
        k = np.ceil(-H * rows.max((0, 2)) / _STABLE_HRHO)
    k[~(k < np.inf) | (k < 1)] = 1.0
    if (k > 1).any():
        over = np.flatnonzero(np.cumsum(k[::-1]) > traj.max_steps)
        if over.size:
            raise StepBudgetError(f"replay would exceed max_steps = {traj.max_steps}",
                                  float(t_old[steps - 1 - over[0]]))
        step = np.repeat(np.arange(steps), k.astype(int))
        frac = (np.arange(step.size) - (np.cumsum(k) - k)[step]) / k[step]
        return replay_linear(traj.refined(np.append(t_new[step] - H[step] * frac, hi)),
                             coefficients, y_end)
    M, l = np.moveaxis(M, -3, 0), np.moveaxis(l, -2, 0)     # the steps' stacks first
    maps = (*lanes, n + 1, n + 1)                  # each lane's stage maps
    # the augmented matrix [[M, l], [0, 0]] acting on [Y; e0^T] carries the
    # forcing, so the last column of each stage map S_i is its offset d_i
    Ma = np.zeros((steps, 6, *maps))
    Ma[..., :n, :n] = M.reshape(steps, 6, *lanes, n, n)
    Ma[..., :n, n] = l.reshape(steps, 6, *lanes, n)
    S = np.empty((steps, 7, *maps))
    S[:, 0] = Ma[:, 0]
    eye = np.eye(n + 1)
    Hm = H.reshape(steps, *[1] * len(lanes), 1, 1)
    Y = np.empty((steps + 1, *lanes, n + 1, r))
    Y[-1, ..., :n, :] = y_end
    Y[-1, ..., n, :] = 0.0
    Y[-1, ..., n, 0] = 1.0
    # non-finite entries are reported below as a typed error, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(1, 7):
            Z = (_A[i] @ S[:, :i].reshape(steps, i, -1)).reshape(steps, *maps)
            Z *= Hm                             # I + h sum_j a_ij S_j, in place
            Z += eye
            np.matmul(Ma[:, min(i, 5)], Z, out=S[:, i])
        Phis, Ys = list(Z), list(Y)             # Phi = Z: the last stage's a_7j = b_j
        for k in range(steps - 1, -1, -1):
            np.matmul(Phis[k], Ys[k + 1], out=Ys[k])
        # stage derivatives, (steps, 7, channels)
        K = (S[..., :n, :] @ Y[1:, None]).reshape(steps, 7, -1)
        Q = _interpolant(K)
    # a non-finite coefficient reaches Y or, through its stage derivative, Q
    if not (np.isfinite(Y).all() and np.isfinite(Q).all()):
        raise _divergence(ts, S, Y, Q)
    values = Y[..., :n, :].reshape(steps + 1, -1)
    return DenseTrajectory(t_grid, values, (t_old, H, H, values[1:], np.ascontiguousarray(Q)),
                           channels=(n, r), lane_count=lanes[0] if lanes else None, nsteps=steps,
                           ends=traj.ends)
