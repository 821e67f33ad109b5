"""Adaptive Dormand-Prince 4(5) integration with continuous dense output.

One explicit embedded Runge-Kutta pair serves every initial-value problem in
the package: forward state solves, backward adjoint solves (run internally in
negated time, so a single code path covers both directions), and the outer
evolution in virtual time.  The free 4th-order interpolant of the pair
provides dense output that downstream quadrature evaluates at arbitrary
nodes.  Step-size control is a standard PI controller (safety 0.9, growth
clamped to [0.2, 5.0]).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, IntegrationError, StepBudgetError

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
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


def _finite_positive(v) -> bool:
    return math.isfinite(v) and v > 0


@dataclass(frozen=True)
class OdeSettings:
    """Tolerances and budget for one initial-value solve."""

    rel_tol: float = 1e-3
    abs_tol: float = 1e-6
    max_steps: int = 100_000
    initial_step: float | None = None

    def __post_init__(self):
        if not _finite_positive(self.rel_tol):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if not _finite_positive(self.abs_tol):
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.initial_step is not None and not _finite_positive(self.initial_step):
            raise ValueError(
                f"initial_step must be finite and positive, got {self.initial_step}")


class DenseTrajectory:
    """Grid values plus a continuous interpolant over [t_grid[0], t_grid[-1]].

    ``t_grid`` is strictly increasing; evaluation at a grid node returns the
    stored node value exactly.  Between nodes each segment carries its
    interpolation polynomial ``(anchor, denom, scale, base, Q)``:
    y = base + scale * Q [theta..theta^4] with theta = (t - anchor) / denom.
    Scalar and array lookups agree bit for bit.
    """

    def __init__(self, t_grid, values, segments):
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.t_grid.ndim != 1 or np.any(np.diff(self.t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        self.segments = segments
        # Python-float copies for the scalar lookup
        self._grid = self.t_grid.tolist()
        self._lo, self._hi = self._grid[0], self._grid[-1]
        self._slack = 1e-10 * max(1.0, self._hi - self._lo)
        self._anchor, self._denom = segments[0].tolist(), segments[1].tolist()

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _domain_error(self, bad) -> DomainError:
        return DomainError(
            f"t = {bad!r} outside trajectory domain [{self._lo!r}, {self._hi!r}]")

    def _segment(self, seg: int, powers: np.ndarray) -> np.ndarray:
        """base + scale * powers @ Q^T on one segment; ``powers`` is (k, 4)."""
        _, _, scale, base, Q = self.segments
        k = len(powers)
        if k == 1:
            # BLAS takes another kernel, with other rounding, for a one-row
            # product; a lone row goes as a pair so every lookup rounds alike
            powers = np.concatenate((powers, powers))
        return base[seg] + scale[seg] * (powers @ Q[seg].T)[:k]

    def __call__(self, t):
        lo, hi, slack = self._lo, self._hi, self._slack
        if isinstance(t, float) or np.ndim(t) == 0:
            tv = float(t)
            if tv < lo - slack or tv > hi + slack:
                raise self._domain_error(tv)
            tv = min(max(tv, lo), hi)
            grid = self._grid
            i = min(max(bisect_right(grid, tv) - 1, 0), len(grid) - 2)
            if tv == grid[i]:
                return self.values[i].copy()
            if tv == grid[i + 1]:
                return self.values[i + 1].copy()
            th = (tv - self._anchor[i]) / self._denom[i]
            th2 = th * th                     # powers as np.vander builds them
            th3 = th2 * th
            return self._segment(i, np.array([[th, th2, th3, th3 * th]]))[0]

        ts = np.asarray(t, dtype=float)
        if ts.min(initial=np.inf) < lo - slack or ts.max(initial=-np.inf) > hi + slack:
            raise self._domain_error(ts[(ts < lo - slack) | (ts > hi + slack)][0])
        ts = np.clip(ts, lo, hi)

        anchor, denom = self.segments[:2]
        idx = np.clip(np.searchsorted(self.t_grid, ts, side="right") - 1,
                      0, len(self.t_grid) - 2)
        out = np.empty((ts.size, self.dim))
        for seg in np.unique(idx):
            sel = idx == seg
            theta = (ts[sel] - anchor[seg]) / denom[seg]
            powers = np.vander(theta, 5, increasing=True)[:, 1:]  # theta..theta^4
            out[sel] = self._segment(seg, powers)
        # grid nodes are exact by construction
        left = ts == self.t_grid[idx]
        out[left] = self.values[idx[left]]
        right = ts == self.t_grid[idx + 1]
        out[right] = self.values[idx[right] + 1]
        return out


class DenseSolution(DenseTrajectory):
    """A dense trajectory plus step-acceptance statistics."""

    def __init__(self, t_grid, values, segments, *, nsteps, nrejected, last_error):
        super().__init__(t_grid, values, segments)
        self.nsteps = nsteps
        self.nrejected = nrejected
        self.last_error = last_error


def _initial_step(rhs, t0, y0, f0, direction, settings):
    """Hairer-style automatic initial step size."""
    scale = settings.abs_tol + settings.rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1), dtype=float)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


class _Stepper:
    """Forward-time adaptive stepper over one smooth subinterval."""

    def __init__(self, rhs, t0, y0, t_end, settings, h_init=None, guard=None):
        self.rhs = rhs
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=float)
        self.t_end = float(t_end)
        self.settings = settings
        self.guard = guard
        self.f = np.asarray(rhs(self.t, self.y), dtype=float)
        if not np.all(np.isfinite(self.f)):
            raise DivergenceError("non-finite right-hand side", time=self.t)
        h = h_init if h_init is not None else _initial_step(
            rhs, self.t, self.y, self.f, 1.0, settings)
        self.h = min(h, self.t_end - self.t)
        self.K = np.empty((7, self.y.size))    # stage derivatives
        self.err_old = 1e-4
        self.nsteps = 0
        self.nrejected = 0
        self.last_error = np.nan

    @property
    def done(self) -> bool:
        return self.t >= self.t_end

    def step(self):
        """Advance one accepted step; returns the dense-segment record."""
        s = self.settings
        K = self.K
        min_step = _MIN_STEP_REL * max(abs(self.t), abs(self.t_end))
        while True:
            if self.nsteps + self.nrejected >= s.max_steps:
                raise StepBudgetError(
                    f"exceeded max_steps = {s.max_steps}", time=self.t)
            h = min(self.h, self.t_end - self.t)
            if h < min_step:
                raise IntegrationError("step size underflow", time=self.t)
            t_new = self.t + h
            # stretch marginally short steps to the endpoint so no unsteppable
            # sliver is left behind (a 5% stretch is well inside the error budget)
            if self.t + 1.05 * h >= self.t_end:
                t_new = self.t_end
                h = t_new - self.t

            K[0] = self.f
            for i in range(1, 7):
                yi = self.y + h * (K[:i].T @ _A[i])
                K[i] = self.rhs(self.t + _C[i] * h, yi)
            if not np.all(np.isfinite(K)):
                raise DivergenceError("non-finite right-hand side", time=t_new)
            y_new = self.y + h * (K.T @ _B)
            # stage 7 sits at (t_new, y_new); reuse on acceptance (FSAL)
            err = h * (K.T @ _E)
            sc = s.abs_tol + s.rel_tol * np.maximum(np.abs(self.y), np.abs(y_new))
            err_norm = np.sqrt(np.mean((err / sc) ** 2))

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
                self.err_old = max(err_norm, 1e-4)
                seg = (self.t, h, self.y.copy(), K.T @ _BI)  # (anchor, scale, base, Q)
                self.t, self.y, self.f = t_new, y_new, K[6].copy()
                self.nsteps += 1
                self.last_error = err_norm
                return seg
            self.nrejected += 1
            self.h = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-0.2))


def _forward_rhs(rhs, backward: bool, clamp):
    """rhs in forward time s (t = -s when ``backward``), s clamped into ``clamp``."""
    if clamp is None:
        return (lambda s, y: -np.asarray(rhs(-s, y), dtype=float)) if backward else rhs
    lo, hi = clamp
    if backward:
        return lambda s, y: -np.asarray(rhs(-min(max(s, lo), hi), y), dtype=float)
    return lambda s, y: rhs(min(max(s, lo), hi), y)


def integrate_ivp(rhs, y0, t_span, settings: OdeSettings | None = None, *,
                  breakpoints=(), guard=None) -> DenseSolution:
    """Solve y' = rhs(t, y) over ``t_span`` with dense output.

    Backward spans (t_end < t_start) integrate in negated time internally.
    ``breakpoints`` are interior times where the right-hand side may be
    discontinuous; the integrator restarts there so no step straddles one.
    ``guard(t, y) -> bool`` may veto a trial step, which is then retried at
    half size.
    """
    settings = settings or OdeSettings()
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if t_start == t_end:
        raise ValueError("t_span endpoints must be distinct")

    backward = t_end < t_start
    if backward:
        fwd_guard = None if guard is None else (lambda s, y: guard(-s, y))
        fwd_span = (-t_start, -t_end)
        fwd_breaks = sorted(-b for b in breakpoints)
    else:
        fwd_guard = guard
        fwd_span = (t_start, t_end)
        fwd_breaks = sorted(breakpoints)

    lo, hi = fwd_span
    cuts = [b for b in fwd_breaks if lo < b < hi]
    bounds = [lo, *cuts, hi]

    ts = [lo]
    ys = [np.asarray(y0, dtype=float)]
    anchors, denoms, scales, bases, Qs = [], [], [], [], []
    nsteps = nrejected = 0
    last_error = np.nan
    h_carry = settings.initial_step

    for a, b in zip(bounds[:-1], bounds[1:]):
        # keep stage evaluations strictly inside the smooth subinterval so
        # a right-continuous discontinuity at a cut never leaks across it
        clamp = (np.nextafter(a, b), np.nextafter(b, a)) if cuts else None
        stepper = _Stepper(_forward_rhs(rhs, backward, clamp), a, ys[-1], b, settings,
                           h_init=h_carry, guard=fwd_guard)
        while not stepper.done:
            t_prev = stepper.t
            anchor, h, base, Q = stepper.step()
            ts.append(stepper.t)
            ys.append(stepper.y.copy())
            anchors.append(anchor)
            denoms.append(stepper.t - t_prev)
            scales.append(h)
            bases.append(base)
            Qs.append(Q)
        nsteps += stepper.nsteps
        nrejected += stepper.nrejected
        last_error = stepper.last_error
        h_carry = stepper.h

    ts = np.array(ts)
    ys = np.array(ys)
    anchors = np.array(anchors)
    denoms = np.array(denoms)
    scales = np.array(scales)
    bases = np.array(bases)
    Qs = np.array(Qs)

    if backward:
        # map segments to increasing physical time t = -s; the local
        # coordinate theta = (t - anchor)/denom is preserved with
        # anchor -> -anchor and denom -> -denom.
        ts, ys = -ts[::-1], ys[::-1]
        anchors, denoms = -anchors[::-1], -denoms[::-1]
        scales, bases, Qs = scales[::-1], bases[::-1], Qs[::-1]

    return DenseSolution(ts, ys, (anchors, denoms, scales, bases, Qs),
                         nsteps=nsteps, nrejected=nrejected, last_error=last_error)


def integrate_fixed_step(rhs, y0, t_span, n_steps: int) -> np.ndarray:
    """Fixed-step 5th-order propagation (no error control); returns y(t_end)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / n_steps
    y = np.asarray(y0, dtype=float)
    t = t0
    for _ in range(n_steps):
        K = np.empty((7, y.size))
        K[0] = rhs(t, y)
        for i in range(1, 7):
            K[i] = rhs(t + _C[i] * h, y + h * (K[:i].T @ _A[i]))
        y = y + h * (K.T @ _B)
        t += h
    return y
