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

Piecewise-constant controls evaluate right-continuously on [t_i, t_{i+1});
the closing node t = t_f returns the last segment's value.  Their node times
are exposed via :meth:`Parameterization.breakpoints` so integrators can avoid
stepping across the jumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DependentBasisError, DomainError
from .quadrature import QuadratureSpec, simpson_points

FORM1 = "form1"
FORM2 = "form2"


@dataclass(frozen=True)
class Parameterization:
    """A control basis with parameter and terminal-time sensitivities.

    The evaluator triple works on time arrays: ``eval_fn(ts, p, t_f)`` gives
    (N, m) control values, ``jac_p_fn`` the (N, m, s) parameter Jacobian, and
    ``jac_tf_fn`` the (N, m) terminal-time sensitivity (identically zero for
    form 1).  All provided kinds are linear in p, so ``eval = jac_p @ p``
    holds exactly.
    """

    kind: str
    form: str
    m: int
    s: int
    t0: float
    eval_fn: Callable
    jac_p_fn: Callable
    jac_tf_fn: Callable
    breakpoints_fn: Callable
    linear_in_p: bool = True
    meta: dict = field(default_factory=dict)

    def _check_domain(self, ts: np.ndarray, t_f: float) -> None:
        slack = 1e-12 * max(1.0, abs(t_f - self.t0))
        if ts.min(initial=np.inf) < self.t0 - slack or ts.max(initial=-np.inf) > t_f + slack:
            bad = ts[(ts < self.t0 - slack) | (ts > t_f + slack)][0]
            raise DomainError(f"t = {bad!r} outside control domain [{self.t0!r}, {t_f!r}]")

    def _prep(self, t, p, t_f):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_domain(ts, t_f)
        p = np.asarray(p, dtype=float)
        if p.shape != (self.s,):
            raise ValueError(f"p has shape {p.shape}, expected ({self.s},)")
        return ts, p

    def eval(self, t, p, t_f=None):
        """Control value u(t); (m,) for scalar t, (N, m) for array t."""
        t_f = self._resolve_tf(t_f)
        ts, p = self._prep(t, p, t_f)
        out = self.eval_fn(ts, p, t_f)
        return out[0] if np.ndim(t) == 0 else out

    def jac_p(self, t, p, t_f=None):
        """Parameter Jacobian u_p(t); (m, s) or (N, m, s)."""
        t_f = self._resolve_tf(t_f)
        ts, p = self._prep(t, p, t_f)
        out = self.jac_p_fn(ts, p, t_f)
        return out[0] if np.ndim(t) == 0 else out

    def jac_tf(self, t, p, t_f=None):
        """Terminal-time sensitivity u_tf(t); (m,) or (N, m)."""
        t_f = self._resolve_tf(t_f)
        ts, p = self._prep(t, p, t_f)
        out = self.jac_tf_fn(ts, p, t_f)
        return out[0] if np.ndim(t) == 0 else out

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


def _lagrange_values(sig: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(N, k) Lagrange basis values at scaled times for the given nodes."""
    k = nodes.size
    out = np.empty((sig.size, k))
    for i in range(k):
        prod = np.ones_like(sig)
        for j in range(k):
            if j != i:
                prod *= (sig - nodes[j]) / (nodes[i] - nodes[j])
        out[:, i] = prod
    return out


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


def _hat_values(sig: np.ndarray, n_seg: int) -> np.ndarray:
    idx = np.clip(np.floor(sig * n_seg).astype(int), 0, n_seg - 1)
    frac = sig * n_seg - idx
    out = np.zeros((sig.size, n_seg + 1))
    rows = np.arange(sig.size)
    out[rows, idx] = 1.0 - frac
    out[rows, idx + 1] += frac
    return out


def _hat_derivs(sig: np.ndarray, n_seg: int) -> np.ndarray:
    # right-sided slope at the nodes, matching right-continuous evaluation
    idx = np.clip(np.floor(sig * n_seg).astype(int), 0, n_seg - 1)
    out = np.zeros((sig.size, n_seg + 1))
    rows = np.arange(sig.size)
    out[rows, idx] = -float(n_seg)
    out[rows, idx + 1] += float(n_seg)
    return out


def _step_values(sig: np.ndarray, n_seg: int) -> np.ndarray:
    idx = np.clip(np.floor(sig * n_seg).astype(int), 0, n_seg - 1)
    out = np.zeros((sig.size, n_seg))
    out[np.arange(sig.size), idx] = 1.0
    return out


def make_basis(kind: str, m: int, t0: float, form: str, *,
               order: int | None = None, n_segments: int | None = None) -> Parameterization:
    """Construct a control parameterization.

    ``global_polynomial`` needs ``order`` (>= 0) and must use form 1 (it has
    no t_f dependence).  The node-based kinds (``lagrange_nodes``,
    ``piecewise_linear``, ``piecewise_constant``) need ``n_segments`` (>= 1)
    and may use form 1 only when the terminal time is fixed.
    """
    if form not in (FORM1, FORM2):
        raise ConfigurationError(f"form must be {FORM1!r} or {FORM2!r}, got {form!r}")
    if m < 1:
        raise ConfigurationError("m must be >= 1")

    if kind == "global_polynomial":
        if order is None or order < 0:
            raise ConfigurationError("global_polynomial requires order >= 0")
        if form != FORM1:
            raise ConfigurationError("global_polynomial has no t_f dependence; use form1")
        k = order + 1
        s = m * k

        def jac_p_fn(ts, p, t_f, _k=k, _m=m):
            powers = np.vander(ts, _k, increasing=True)     # (N, k): 1, t, ...
            return _block_jac(powers, _m)

        def jac_tf_fn(ts, p, t_f):
            return np.zeros((ts.size, m))

        return Parameterization(
            kind=kind, form=form, m=m, s=s, t0=t0,
            eval_fn=lambda ts, p, t_f: np.einsum("tms,s->tm", jac_p_fn(ts, p, t_f), p),
            jac_p_fn=jac_p_fn, jac_tf_fn=jac_tf_fn,
            breakpoints_fn=lambda t_f: np.empty(0),
            meta={"order": order})

    if kind not in ("lagrange_nodes", "piecewise_linear", "piecewise_constant"):
        raise ConfigurationError(f"unknown parameterization kind {kind!r}")
    if n_segments is None or n_segments < 1:
        raise ConfigurationError(f"{kind} requires n_segments >= 1")
    N = n_segments

    if kind == "lagrange_nodes":
        nodes = np.linspace(0.0, 1.0, N + 1)
        values = lambda sig: _lagrange_values(sig, nodes)
        derivs = lambda sig: _lagrange_derivs(sig, nodes)
        k = N + 1
        smooth = True
    elif kind == "piecewise_linear":
        values = lambda sig: _hat_values(sig, N)
        derivs = lambda sig: _hat_derivs(sig, N)
        k = N + 1
        smooth = False
    else:  # piecewise_constant
        values = lambda sig: _step_values(sig, N)
        derivs = lambda sig: np.zeros((sig.size, N))
        k = N
        smooth = False
    s = m * k

    def jac_p_fn(ts, p, t_f):
        return _block_jac(values(_sigma(ts, t0, t_f)), m)

    if form == FORM1:
        def jac_tf_fn(ts, p, t_f):
            return np.zeros((ts.size, m))
    else:
        def jac_tf_fn(ts, p, t_f):
            # nodes move with t_f while node values stay fixed:
            # du/dt_f = -sigma/(t_f - t0) * du/dsigma
            dvals = derivs(_sigma(ts, t0, t_f))
            djac = _block_jac(dvals, m)
            du_dsigma = np.einsum("tms,s->tm", djac, p)
            return -(_sigma(ts, t0, t_f) / (t_f - t0))[:, None] * du_dsigma

    def breakpoints_fn(t_f):
        if smooth:
            return np.empty(0)
        return t0 + (t_f - t0) * np.arange(1, N) / N

    return Parameterization(
        kind=kind, form=form, m=m, s=s, t0=t0,
        eval_fn=lambda ts, p, t_f: np.einsum("tms,s->tm", jac_p_fn(ts, p, t_f), p),
        jac_p_fn=jac_p_fn, jac_tf_fn=jac_tf_fn,
        breakpoints_fn=breakpoints_fn,
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
    gram = np.einsum("t,tmi,tmj->ij", w, up, up)
    vals, vecs = np.linalg.eigh(gram)
    lam_min, lam_max = vals[0], vals[-1]
    if lam_min <= 1e-10 * max(lam_max, 0.0):
        null = vecs[:, 0]
        raise DependentBasisError(
            "basis columns are linearly dependent: Gram lambda_min = "
            f"{lam_min:.3e} (lambda_max = {lam_max:.3e}); null direction "
            f"{np.array2string(null, precision=4)}")
    return float(lam_min)
