"""Control parameterizations u(t; p) and u(t; p, t_f) with sensitivities.

Four linear-in-parameter bases are provided: global polynomials, Lagrange
interpolation through equally spaced nodes, piecewise-linear interpolation
(hat functions), and the piecewise-constant step approximation.  A kind is
its k scalar basis functions, and u = U(t; t_f) p is their contraction with
p, so the parameter Jacobian u_p = U(t; t_f) takes no p.  The node-based
kinds place their nodes at ``t_i = t0 + i (t_f - t0)/N``, so when t_f is
free they depend on the terminal time and must use form 2; their
t_f-sensitivity is the exact chain rule through the moving nodes, which for
every node-based kind collapses to

    du/dt_f = -(t - t0)/(t_f - t0) * du/dt,

evaluated analytically in scaled time sigma = (t - t0)/(t_f - t0).  Form-1
parameterizations (no t_f dependence) report a zero t_f-sensitivity.

Piecewise kinds find a time's segment by comparing it with their node
times, the array :meth:`Parameterization.breakpoints` returns and every
integrator and quadrature splits at: segment k is [t_k, t_{k+1}), so
evaluation is right-continuous and the closing node t = t_f falls in the last
segment.  A stage time or panel endpoint kept one ulp inside its subinterval
therefore evaluates on that subinterval's own segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DependentBasisError, DimensionError, DomainError,
                     _require_number, _require_numbers)
from .integrate import _lane_rates, _lane_times
from .quadrature import QuadratureSpec, _gram, simpson_points

FORM1 = "form1"
FORM2 = "form2"
_NODE_KINDS = ("lagrange_nodes", "piecewise_linear", "piecewise_constant")


@dataclass(frozen=True)
class Parameterization:
    """A control basis with parameter and terminal-time sensitivities.

    A kind is its k scalar basis functions: ``values_fn(ts, t_f)`` gives
    their (N, k) values at a time array and ``derivs_fn(ts, t_f)`` their
    (N, k) derivatives in sigma (None for the global polynomial, which does
    not depend on t_f).  Each of the m controls has its own copy of them,
    node-major, so s = m k and the (N, m, s) parameter Jacobian u_p is the
    block of the values.  Every kind is linear in p, and :func:`_contract`
    is the one contraction of a block with p: u = u_p p, at stage times or
    from a grid's stored u_p, and u_tf = -sigma/(t_f - t0) du/dsigma.  The
    piecewise-constant kind evaluates :meth:`bind`'s u as a plain gather of
    p's entries instead, equal to the contraction bit for bit.  Each row is
    summed on its own, so a time's value does not depend on the other times
    in the array.  Wherever a method takes ``p`` it also takes B parameter
    vectors as a (B, s) array, the lanes of a batch: the results then carry
    a leading lane axis, and t_f may be a (B,) array of their own: times are
    then the first lane's clock, where every lane has the first lane's sigma,
    so a node basis reads each lane on the first lane's values and segments;
    the global polynomial is read at each lane's own time.  ``jac_p`` takes
    no p: u_p is the basis alone.  Every method takes t_f, and a t_f
    at or before t0 is a :class:`DomainError`: the basis is the one judge of
    the horizon.  A p or t_f of the wrong shape is a :class:`DimensionError`.
    """

    kind: str
    form: str
    m: int
    s: int
    t0: float
    values_fn: Callable
    derivs_fn: Callable | None
    breakpoints_fn: Callable
    meta: dict = field(default_factory=dict)

    def _check_p(self, p) -> np.ndarray:
        p = _require_numbers(p, "p")
        if p.ndim not in (1, 2) or p.shape[-1] != self.s:
            raise DimensionError(f"p has shape {p.shape}, expected ({self.s},) or (B, {self.s})")
        return p

    def _times(self, t_f: float) -> Callable:
        """The one time check: a 1-d float array back, each of its times in
        [t0, t_f] up to 1e-12 relative slack (DomainError otherwise, also for
        NaN).  It tests time by time, quicker than numpy's reductions on the
        few stage times of an integrator step."""
        t0 = self.t0
        slack = 1e-12 * max(1.0, t_f - t0)
        lo, hi = t0 - slack, t_f + slack

        def checked(ts):
            for s in ts.tolist():
                if not lo <= s <= hi:
                    raise DomainError(f"t = {s!r} outside control domain [{t0!r}, {t_f!r}]")
            return ts
        return checked

    def _prep(self, t, t_f, lanes=None):
        """(times, t_f) of a Jacobian evaluation, each checked."""
        t_f = self._resolve_tf(t_f, lanes)
        return self._times(_clock(t_f))(np.asarray(t, dtype=float).reshape(-1)), t_f

    def _block(self, t_f) -> Callable:
        """ts -> the (N, m, s) block of the basis values at times ts, or
        (B, N, m, s) at each lane's own time for the global polynomial at
        lanes' own t_f."""
        m, s, values, clock = self.m, self.s, self.values_fn, _clock(t_f)
        if not isinstance(t_f, np.ndarray) or self.derivs_fn is not None:
            return lambda ts: _block_jac(values(ts, clock), m)
        t0, rates = self.t0, _lane_rates(self.t0, t_f)
        return lambda ts: _block_jac(values(_lane_times(ts, t0, rates).reshape(-1), clock),
                                     m).reshape(len(rates), ts.size, m, s)

    def bind(self, p, t_f) -> Callable:
        """The control u(t) of one iterate, or of B lanes, validating p and t_f once.

        The evaluator maps (N,) times to (N, m), or (B, N, m) for a (B, s) p; a
        scalar t is a one-point array, returned as (m,) or (B, m).
        """
        p = self._check_p(p)
        t_f = self._resolve_tf(t_f, p.shape[:-1])
        clock, m = _clock(t_f), self.m
        checked = self._times(clock)
        if self.kind == "piecewise_constant":      # a gather, quicker at stage times
            P, breaks = p.reshape(*p.shape[:-1], -1, m), self.breakpoints_fn(clock)
            u = lambda ts: P.take(_segments(ts, breaks), axis=-2)
        else:
            block = self._block(t_f)
            u = lambda ts: _contract(block(ts), p)

        def u_of_t(t):
            ts = np.asarray(t, dtype=float)
            if ts.ndim == 0:
                return u_of_t(ts.reshape(1))[..., 0, :]
            return u(checked(ts))
        return u_of_t

    def eval(self, t, p, t_f):
        """Control value u(t); (m,) for scalar t, (N, m) for array t: :meth:`bind`'s."""
        return self.bind(p, t_f)(t)

    def jac_p(self, t, t_f):
        """Parameter Jacobian u_p(t), the block of the basis values; ([B,] [N,] m, s)."""
        ts, t_f = self._prep(t, t_f)
        out = self._block(t_f)(ts)
        return out[..., 0, :, :] if np.ndim(t) == 0 else out

    def jac_tf(self, t, p, t_f):
        """Terminal-time sensitivity u_tf(t); (m,) or (N, m), zero in form 1.

        The nodes move with t_f while the node values stay fixed, so
        du/dt_f = -sigma/(t_f - t0) * du/dsigma, each lane with its own t_f.
        """
        p = self._check_p(p)
        ts, t_f = self._prep(t, t_f, p.shape[:-1])
        if self.form == FORM1:
            out = np.zeros((*p.shape[:-1], ts.size, self.m))
        else:
            clock = _clock(t_f)
            du_dsigma = _contract(_block_jac(self.derivs_fn(ts, clock), self.m), p)
            sigma = _sigma(ts, self.t0, clock) / np.expand_dims(t_f - self.t0, -1)
            out = -sigma[..., None] * du_dsigma
        return out[..., 0, :] if np.ndim(t) == 0 else out

    def breakpoints(self, t_f) -> np.ndarray:
        """Interior times where the control is not smooth (may be empty)."""
        return self.breakpoints_fn(_clock(self._resolve_tf(t_f)))

    def _resolve_tf(self, t_f, lanes=None):
        """t_f as a float, or a (B,) array of the lanes' own (``lanes`` = (B,) if
        given), each > t0; lanes that share one t_f get it as a float."""
        if not isinstance(t_f, float) and np.ndim(t_f):
            t_f = _require_numbers(t_f, "t_f")
            if t_f.ndim != 1 or not t_f.size or lanes not in (None, t_f.shape):
                raise DimensionError(f"t_f has shape {t_f.shape}, expected one per lane")
            if (t_f != t_f[0]).any():
                self._resolve_tf(t_f.min())
                return t_f
            t_f = t_f[0]
        t_f = _require_number(t_f, "t_f")
        if t_f <= self.t0:
            raise DomainError(f"t_f = {t_f!r} must exceed t0 = {self.t0!r}")
        return t_f


def _clock(t_f) -> float:
    """The t_f of the first lane's clock: t_f itself, or a lane array's first."""
    return t_f[0] if isinstance(t_f, np.ndarray) else t_f


def _sigma(ts, t0, t_f):
    return (ts - t0) / (t_f - t0)


def _block_jac(vals: np.ndarray, m: int) -> np.ndarray:
    """(N, k) basis values -> (N, m, m*k) node-major block Jacobian."""
    if m == 1:
        return vals[:, None, :]
    N, k = vals.shape
    out = np.zeros((N, m, m * k))
    eye = np.eye(m)
    for i in range(k):
        out[:, :, i * m:(i + 1) * m] = vals[:, i, None, None] * eye
    return out


def _contract(U: np.ndarray, p: np.ndarray) -> np.ndarray:
    """([B,] N, m) values U p of an ([B,] N, m, s) block of basis values, the one
    contraction with p, each row summed on its own."""
    return np.einsum("...tms,...s->...tm", U, p)


def _lagrange_terms(sig: np.ndarray, nodes: list) -> list:
    """The k Lagrange basis values at scaled times ``sig``."""
    k = len(nodes)
    terms = []
    for i in range(k):
        prod = 1.0
        for j in range(k):
            if j != i:
                prod *= (sig - nodes[j]) / (nodes[i] - nodes[j])
        terms.append(prod)
    return terms


def _lagrange_derivs(sig: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(N, k) derivatives d Lambda_i / d sigma."""
    k = nodes.size
    out = np.zeros((sig.size, k))
    for i in range(k):
        for r in range(k):
            if r == i:
                continue
            prod = np.full_like(sig, 1.0 / (nodes[i] - nodes[r]))
            for j in range(k):
                if j != i and j != r:
                    prod *= (sig - nodes[j]) / (nodes[i] - nodes[j])
            out[:, i] += prod
    return out


def _segments(ts: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Segment index of each time: the number of breakpoints at or before it."""
    return breaks.searchsorted(ts, side="right")


def _hat_values(sig: np.ndarray, idx: np.ndarray, n_seg: int) -> np.ndarray:
    frac = sig * n_seg - idx
    out = np.zeros((sig.size, n_seg + 1))
    rows = np.arange(sig.size)
    out[rows, idx] = 1.0 - frac
    out[rows, idx + 1] += frac
    return out


def _hat_derivs(idx: np.ndarray, n_seg: int) -> np.ndarray:
    # the slope of the time's own segment: right-sided at the nodes
    out = np.zeros((idx.size, n_seg + 1))
    rows = np.arange(idx.size)
    out[rows, idx] = -float(n_seg)
    out[rows, idx + 1] += float(n_seg)
    return out


def _step_values(idx: np.ndarray, n_seg: int) -> np.ndarray:
    out = np.zeros((idx.size, n_seg))
    out[np.arange(idx.size), idx] = 1.0
    return out


def make_basis(kind: str, m: int, t0: float, form: str, *,
               order: int | None = None, n_segments: int | None = None) -> Parameterization:
    """Construct a control parameterization.

    ``global_polynomial`` needs an integer ``order`` (>= 0) and must use
    form 1 (it has no t_f dependence).  The node-based kinds
    (``lagrange_nodes``, ``piecewise_linear``, ``piecewise_constant``) need
    an integer ``n_segments`` (>= 1) and may use form 1 only when the
    terminal time is fixed.  ``m`` is an integer >= 1 and ``t0`` finite.
    Anything else raises :class:`ConfigurationError`.
    """
    if form not in (FORM1, FORM2):
        raise ConfigurationError(f"form must be {FORM1!r} or {FORM2!r}, got {form!r}")
    m = _require_number(m, "m", integer=True, least=1)
    t0 = _require_number(t0, "t0")
    no_breaks = lambda t_f: np.empty(0)

    if kind == "global_polynomial":
        order = _require_number(order, "global_polynomial order", integer=True, least=0)
        if form != FORM1:
            raise ConfigurationError("global_polynomial has no t_f dependence; use form1")
        k = order + 1

        def powers(ts, t_f):            # (N, k): 1, t, t^2, ..., the products np.vander forms
            out = np.empty((ts.size, k))
            out[:, 0] = 1.0
            for j in range(1, k):
                out[:, j] = out[:, j - 1] * ts
            return out
        return Parameterization(kind=kind, form=form, m=m, s=m * k, t0=t0,
                                values_fn=powers, derivs_fn=None,
                                breakpoints_fn=no_breaks, meta={"order": order})

    if kind not in _NODE_KINDS:
        raise ConfigurationError(f"unknown parameterization kind {kind!r}")
    N = _require_number(n_segments, f"{kind} n_segments", integer=True, least=1)
    inner = np.arange(1, N)
    breaks = lambda t_f: t0 + (t_f - t0) * inner / N
    segments = lambda ts, t_f: _segments(ts, breaks(t_f))

    if kind == "lagrange_nodes":
        nodes = np.linspace(0.0, 1.0, N + 1)
        node_list = nodes.tolist()
        values = lambda ts, t_f: np.column_stack(_lagrange_terms(_sigma(ts, t0, t_f), node_list))
        derivs = lambda ts, t_f: _lagrange_derivs(_sigma(ts, t0, t_f), nodes)
        k = N + 1
    elif kind == "piecewise_linear":
        values = lambda ts, t_f: _hat_values(_sigma(ts, t0, t_f), segments(ts, t_f), N)
        derivs = lambda ts, t_f: _hat_derivs(segments(ts, t_f), N)
        k = N + 1
    else:  # piecewise_constant
        values = lambda ts, t_f: _step_values(segments(ts, t_f), N)
        derivs = lambda ts, t_f: np.zeros((ts.size, N))
        k = N

    return Parameterization(kind=kind, form=form, m=m, s=m * k, t0=t0,
                            values_fn=values, derivs_fn=derivs,
                            breakpoints_fn=no_breaks if kind == "lagrange_nodes" else breaks,
                            meta={"n_segments": N})


def validate_independence(par: Parameterization, t_f, quad_nodes: int) -> float:
    """Smallest eigenvalue of the basis Gram matrix int u_p^T u_p dt.

    A strictly positive value certifies that the basis columns are linearly
    independent on [t0, t_f].  ``quad_nodes`` must be an integer >= s (an
    even count is raised by one; :class:`ConfigurationError` otherwise).
    Raises :class:`DependentBasisError` when the Gram matrix is numerically
    rank deficient (lambda_min <= 1e-10 * lambda_max), reporting the
    offending null direction.
    """
    quad_nodes = _require_number(quad_nodes, "quad_nodes", integer=True, least=par.s)
    nodes = quad_nodes if quad_nodes % 2 == 1 else quad_nodes + 1
    spec = QuadratureSpec(nodes=max(3, nodes))
    pts, w = simpson_points(par.t0, t_f, spec, par.breakpoints(t_f))
    up = par.jac_p(pts, t_f)                                   # (N, m, s)
    gram = _gram(w, None, up, up)
    vals, vecs = np.linalg.eigh(gram)
    lam_min, lam_max = vals[0], vals[-1]
    if lam_min <= 1e-10 * max(lam_max, 0.0):
        null = vecs[:, 0]
        raise DependentBasisError(
            "basis columns are linearly dependent: Gram lambda_min = "
            f"{lam_min:.3e} (lambda_max = {lam_max:.3e}); null direction "
            f"{np.array2string(null, precision=4)}")
    return float(lam_min)
