"""Control parameterizations u(t; p) and u(t; p, t_f) with sensitivities.

Four linear-in-parameter bases are provided: global polynomials, Lagrange
interpolation through equally spaced nodes, piecewise-linear interpolation
(hat functions), and the piecewise-constant step approximation.  The
node-based kinds place their nodes at ``t_i = t0 + i (t_f - t0)/N``, so when
t_f is free they depend on the terminal time and must use form 2; their
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

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DependentBasisError, DomainError
from .quadrature import QuadratureSpec, _gram, simpson_points

FORM1 = "form1"
FORM2 = "form2"


@dataclass(frozen=True)
class Parameterization:
    """A control basis with parameter and terminal-time sensitivities.

    The evaluators work on time arrays: ``jac_p_fn(ts, p, t_f)`` gives the
    (N, m, s) parameter Jacobian and ``jac_tf_fn`` the (N, m) terminal-time
    sensitivity (identically zero for form 1).  Every kind is linear in p, so
    the (N, m) control values are ``jac_p @ p``.  ``control_fn(p, t_f)``
    returns the unchecked array evaluator ``u(ts) -> (N, m)`` behind
    :meth:`bind` and :meth:`eval`, the only code that turns p into u(t): the
    contraction of the basis values with p, or for the piecewise-constant
    kind a plain gather of p's entries.  Each row is summed on its own, so a
    time's value does not depend on the other times in the array (tests pin
    this bit for bit for m = 1).  Wherever a method takes ``p`` it also takes
    B parameter vectors as a (B, s) array, the lanes of a batch: the results
    then carry a leading lane axis, except ``jac_p``, which no kind's p
    changes.
    """

    kind: str
    form: str
    m: int
    s: int
    t0: float
    jac_p_fn: Callable
    jac_tf_fn: Callable
    breakpoints_fn: Callable
    control_fn: Callable
    meta: dict = field(default_factory=dict)

    def _slack(self, t_f: float) -> float:
        return 1e-12 * max(1.0, abs(t_f - self.t0))

    def _check_p(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != self.s:
            raise ValueError(f"p has shape {p.shape}, expected ({self.s},) or (B, {self.s})")
        return p

    def _prep(self, t, p, t_f):
        """(times, p, t_f) of a Jacobian evaluation, each checked."""
        t_f = self._resolve_tf(t_f)
        ts = np.asarray(t, dtype=float).reshape(-1)
        lo, hi = self.t0 - self._slack(t_f), t_f + self._slack(t_f)
        if ts.size and not (np.minimum.reduce(ts) >= lo and np.maximum.reduce(ts) <= hi):
            bad = ts[~((ts >= lo) & (ts <= hi))][0]            # NaN too
            raise DomainError(f"t = {bad!r} outside control domain [{self.t0!r}, {t_f!r}]")
        return ts, self._check_p(p), t_f

    def bind(self, p, t_f=None) -> Callable:
        """The control u(t) of one iterate, or of B lanes, validating p and t_f once.

        The evaluator maps (N,) times to (N, m), or (B, N, m) for a (B, s) p; a
        scalar t is a one-point array, returned as (m,) or (B, m).  It checks
        each time against [t0, t_f] with the Jacobians' slack (DomainError
        otherwise, also for NaN) one by one, quicker than numpy's reductions
        on the few stage times of an integrator step.
        """
        t_f = self._resolve_tf(t_f)
        u = self.control_fn(self._check_p(p), t_f)
        t0 = self.t0
        slack = self._slack(t_f)
        lo, hi = t0 - slack, t_f + slack

        def u_of_t(t):
            ts = np.asarray(t, dtype=float)
            if ts.ndim == 0:
                return u_of_t(ts.reshape(1))[..., 0, :]
            for s in ts.tolist():
                if not lo <= s <= hi:
                    raise DomainError(f"t = {s!r} outside control domain [{t0!r}, {t_f!r}]")
            return u(ts)
        return u_of_t

    def eval(self, t, p, t_f=None):
        """Control value u(t); (m,) for scalar t, (N, m) for array t: :meth:`bind`'s."""
        return self.bind(p, t_f)(t)

    def jac_p(self, t, p, t_f=None):
        """Parameter Jacobian u_p(t); (m, s) or (N, m, s)."""
        ts, p, t_f = self._prep(t, p, t_f)
        out = self.jac_p_fn(ts, p, t_f)
        return out[0] if np.ndim(t) == 0 else out

    def jac_tf(self, t, p, t_f=None):
        """Terminal-time sensitivity u_tf(t); (m,) or (N, m)."""
        ts, p, t_f = self._prep(t, p, t_f)
        out = self.jac_tf_fn(ts, p, t_f)
        return out[..., 0, :] if np.ndim(t) == 0 else out

    def breakpoints(self, t_f) -> np.ndarray:
        """Interior times where the control is not smooth (may be empty)."""
        return self.breakpoints_fn(self._resolve_tf(t_f))

    def _resolve_tf(self, t_f):
        if t_f is None:
            raise ValueError("t_f is required (pass the problem's fixed value if any)")
        if t_f <= self.t0:
            raise ValueError("t_f must exceed t0")
        return float(t_f)


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


def _contract(vals: np.ndarray, m: int, p: np.ndarray) -> np.ndarray:
    """([B,] N, m) control values from (N, k) basis values: the block
    Jacobian contracted with p, each row summed on its own."""
    return np.einsum("tms,...s->...tm", _block_jac(vals, m), p)


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


def _integer_at_least(value, what: str, least: int) -> int:
    """``value`` as an int >= ``least``; :class:`ConfigurationError` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{what} >= {least}, got {value!r}")
    return int(value)


def make_basis(kind: str, m: int, t0: float, form: str, *,
               order: int | None = None, n_segments: int | None = None) -> Parameterization:
    """Construct a control parameterization.

    ``global_polynomial`` needs an integer ``order`` (>= 0) and must use
    form 1 (it has no t_f dependence).  The node-based kinds
    (``lagrange_nodes``, ``piecewise_linear``, ``piecewise_constant``) need
    an integer ``n_segments`` (>= 1) and may use form 1 only when the
    terminal time is fixed.  Anything else raises :class:`ConfigurationError`.
    """
    if form not in (FORM1, FORM2):
        raise ConfigurationError(f"form must be {FORM1!r} or {FORM2!r}, got {form!r}")
    m = _integer_at_least(m, "m must be an integer", 1)

    def zero_tf(ts, p, t_f):            # form 1: no t_f dependence
        return np.zeros((*p.shape[:-1], ts.size, m))

    if kind == "global_polynomial":
        order = _integer_at_least(order, "global_polynomial requires an integer order", 0)
        if form != FORM1:
            raise ConfigurationError("global_polynomial has no t_f dependence; use form1")
        k = order + 1
        s = m * k

        def powers(ts):                 # (N, k): 1, t, t^2, ..., the products np.vander forms
            out = np.empty((ts.size, k))
            out[:, 0] = 1.0
            for j in range(1, k):
                out[:, j] = out[:, j - 1] * ts
            return out
        return Parameterization(
            kind=kind, form=form, m=m, s=s, t0=t0,
            jac_p_fn=lambda ts, p, t_f: _block_jac(powers(ts), m), jac_tf_fn=zero_tf,
            breakpoints_fn=lambda t_f: np.empty(0),
            control_fn=lambda p, t_f: lambda ts: _contract(powers(ts), m, p),
            meta={"order": order})

    if kind not in ("lagrange_nodes", "piecewise_linear", "piecewise_constant"):
        raise ConfigurationError(f"unknown parameterization kind {kind!r}")
    N = _integer_at_least(n_segments, f"{kind} requires an integer n_segments", 1)

    # values(sig, idx) and derivs(sig, idx) give the (N, k) basis values and
    # sigma-derivatives at scaled times sig lying on segments idx
    if kind == "lagrange_nodes":
        nodes = np.linspace(0.0, 1.0, N + 1)
        node_list = nodes.tolist()
        values = lambda sig, idx: np.column_stack(_lagrange_terms(sig, node_list))
        derivs = lambda sig, idx: _lagrange_derivs(sig, nodes)
        k = N + 1
        smooth = True
    elif kind == "piecewise_linear":
        values = lambda sig, idx: _hat_values(sig, idx, N)
        derivs = lambda sig, idx: _hat_derivs(idx, N)
        k = N + 1
        smooth = False
    else:  # piecewise_constant
        values = lambda sig, idx: _step_values(idx, N)
        derivs = lambda sig, idx: np.zeros((sig.size, N))
        k = N
        smooth = False
    s = m * k

    def control_fn(p, t_f):
        breaks = breakpoints_fn(t_f)
        if kind == "piecewise_constant":
            P = p.reshape(*p.shape[:-1], N, m)
            return lambda ts: P.take(_segments(ts, breaks), axis=-2)
        return lambda ts: _contract(values(_sigma(ts, t0, t_f), _segments(ts, breaks)), m, p)

    def jac_p_fn(ts, p, t_f):
        idx = _segments(ts, breakpoints_fn(t_f))
        return _block_jac(values(_sigma(ts, t0, t_f), idx), m)

    jac_tf_fn = zero_tf
    if form == FORM2:
        def jac_tf_fn(ts, p, t_f):
            # nodes move with t_f while node values stay fixed:
            # du/dt_f = -sigma/(t_f - t0) * du/dsigma
            sig = _sigma(ts, t0, t_f)
            du_dsigma = _contract(derivs(sig, _segments(ts, breakpoints_fn(t_f))), m, p)
            return -(sig / (t_f - t0))[:, None] * du_dsigma

    def breakpoints_fn(t_f):
        if smooth:
            return np.empty(0)
        return t0 + (t_f - t0) * np.arange(1, N) / N

    return Parameterization(
        kind=kind, form=form, m=m, s=s, t0=t0,
        jac_p_fn=jac_p_fn, jac_tf_fn=jac_tf_fn,
        breakpoints_fn=breakpoints_fn, control_fn=control_fn,
        meta={"n_segments": N})


def validate_independence(par: Parameterization, p, t_f, quad_nodes: int) -> float:
    """Smallest eigenvalue of the basis Gram matrix int u_p^T u_p dt.

    A strictly positive value certifies that the basis columns are linearly
    independent on [t0, t_f] at this iterate.  Raises
    :class:`DependentBasisError` when the Gram matrix is numerically rank
    deficient (lambda_min <= 1e-10 * lambda_max), reporting the offending
    null direction.
    """
    if quad_nodes < par.s:
        raise ValueError(f"quad_nodes must be >= s = {par.s}")
    nodes = quad_nodes if quad_nodes % 2 == 1 else quad_nodes + 1
    spec = QuadratureSpec(nodes=max(3, nodes))
    pts, w = simpson_points(par.t0, t_f, spec, par.breakpoints(t_f))
    up = par.jac_p(pts, np.asarray(p, dtype=float), t_f)       # (N, m, s)
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
