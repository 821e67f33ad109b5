"""Forward/backward solves and the matrices driving the evolution equations.

For an iterate (p, t_f) the pipeline is: simulate the state forward, then
integrate two adjoint quantities backward along the stored trajectory:

* ``mu(t)`` -- the reduced cost adjoint, ``mu' = -f_x^T mu - L_x`` with
  ``mu(t_f) = phi_x``; the pointwise control gradient of the cost is then
  ``p_u(t) = L_u + f_u^T mu``.
* ``Psi(t)`` -- the n x q terminal-constraint adjoint, ``Psi' = -f_x^T Psi``
  with ``Psi(t_f) = g_x^T``; ``f_u^T Psi`` is the pointwise control
  sensitivity of the terminal constraint.

The state-transition matrix itself is never formed: every place it would
appear is contracted into one n x (1+q) block Y = [mu | Psi], carried whole
from the backward replay to the flow direction.  On the shared Simpson grid,
where u = U_p p is the basis's contraction of its stored columns U_p,
[p_u | f_u^T Psi] = f_u^T Y + [L_u | 0], and over the basis columns U of
theta [r | Gamma] = int U^T [p_u | f_u^T Psi] dt is one matrix product with
the weighted basis, held with the metric in one :class:`ThetaQuantities`
``(rGamma, M)``: ``r_1p``, ``Gamma_1p``, ``M_p`` for theta = p, and
``r_2ptf``, ``Gamma_2ptf``, ``M_ptf`` when theta also holds t_f, one more
column u_tf = du/dt_f (zero for a form-1 basis) whose row also holds the
terminal brackets, one row f^T Y(t_f) + [phi_t + L | g_t] off the replay's
terminal block Y(t_f) = [phi_x | g_x^T] (:func:`_terminal_values`).  The NLP
gradients are the same integrals without a metric.

Every stage runs B iterates at once, as lanes: p is (B, s), one state solve
and one adjoint replay carry all lanes on one step sequence, and the results
carry a leading lane axis, as the trajectories' lookups do; an (s,) p is
solved as one lane, whose own trajectory the later stages take as it is.
Lanes of their own t_f, a (B,) array, step on the first lane's clock, lane
b at the rate c_b = (t_f,b - t0)/(t_f,0 - t0) that scales its right-hand
side, replay coefficients and integrals.  The grid's p-independent samples
(points, weights, u_p, w u_p and K^-1) of one t_f are built once and reused
while the iterates share it (:func:`_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionError, RankError
from .integrate import DenseTrajectory, OdeSettings, _lane_rates, _lane_times, replay_linear
# not called here, but kept bound: bench/tracing.py wraps sensitivity.integrate_ivp
from .integrate import integrate_ivp  # noqa: F401
from .parameterization import Parameterization, _contract
from .problem import Gains, OcpProblem, _batch_eval, _state_solution
from .quadrature import QuadratureSpec, _gram, simpson_points


_EPS = np.finfo(float).eps


def spd_solve(M: np.ndarray, B: np.ndarray, context: str) -> np.ndarray:
    """Solve M X = B for symmetric positive-definite M, failing loudly.

    A Cholesky factorization certifies M, then LAPACK's LU solve gives X.
    Raises :class:`RankError` when M or B has a non-finite entry, M has no
    Cholesky factor, or M is numerically singular: some pivot L_kk^2 is at
    most n * eps * M_kk.  A matrix that is singular in exact arithmetic (say,
    a Gram matrix with a duplicated column) often factors with pivots of that
    rounding size instead of failing.  Stacked systems, (..., n, n) and
    (..., n, k) broadcasting as in ``np.linalg.solve``, are solved at once.
    """
    M = np.asarray(M, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.isfinite(M).all() and np.isfinite(B).all()):
        raise RankError(f"{context}: system has non-finite entries")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"{context}: matrix is not positive-definite ({exc})") from None
    pivots = L.diagonal(0, -2, -1) ** 2
    if not (pivots > M.shape[-1] * _EPS * M.diagonal(0, -2, -1)).all():
        raise RankError(f"{context}: matrix is numerically singular")
    return np.linalg.solve(M, B)


@dataclass
class AdjointBundle:
    """State and adjoint trajectories of one iterate, its one record.

    ``x_traj`` carries n+1 channels (state plus accumulated running cost);
    ``adjoint_sol`` carries the joint backward solve, the n x (1+q) block
    Y = [mu | Psi], so mu and the constraint adjoint Psi are views of its
    lookups.  The basis and parameters that produced the iterate ride along;
    t0, t_f and n are read off the trajectories.  A (B, s) ``p`` makes it
    the bundle of B lanes: every accessor returns a leading lane axis, t_f
    is a (B,) array where they differ, and :meth:`lanes` gives each lane's
    own bundle.
    """

    x_traj: DenseTrajectory
    adjoint_sol: DenseTrajectory
    par: Parameterization
    p: np.ndarray

    t0 = property(lambda self: float(self.x_traj.t_grid[0]))
    t_f = property(lambda self: self.x_traj.end)
    n = property(lambda self: self.adjoint_sol.channels[0])

    def x_at(self, ts):
        return self.x_traj(ts)[..., :self.n]

    def mu_psi_at(self, ts):
        """(mu, Psi) stacked over times with one dense evaluation, views of Y."""
        Y = self.adjoint_sol(ts)
        return Y[..., 0], Y[..., 1:]

    def at(self, ts):
        """(x, Y = [mu | Psi]) stacked over times, from one search where they
        share their grid (every replay that cuts no step)."""
        xa, Y = self.x_traj(ts, self.adjoint_sol)
        return xa[..., :self.n], Y

    @property
    def x_f(self) -> np.ndarray:
        """x(t_f), the forward solve's last node value."""
        return self.x_traj.last[..., :self.n]

    def lanes(self) -> list["AdjointBundle"]:
        """Each lane's own bundle (views) of a bundle of lanes; a one-iterate
        bundle has none (its trajectory's :class:`DimensionError`)."""
        return [replace(self, x_traj=x, adjoint_sol=a, p=p)
                for x, a, p in zip(self.x_traj.lanes(), self.adjoint_sol.lanes(), self.p)]


@dataclass
class ThetaQuantities:
    """The theta-space terms of one iterate, over the basis columns of theta.

    ``rGamma`` is the (dim, 1+q) block [r | Gamma] of the cost gradient ``r``
    (r_1p, r_2ptf or f_theta) and the constraint sensitivity ``Gamma``
    (Gamma_1p, Gamma_2ptf or g_theta^T), both views of it, and ``M`` the
    metric (M_p or M_ptf; None for the NLP gradients).  When theta holds t_f,
    its row of r and Gamma includes the terminal brackets.  Assembled over a
    bundle of lanes, every field has a leading lane axis but M_p, the lanes'
    shared read-only G_pp; M_ptf borders it per lane.
    """

    rGamma: np.ndarray
    M: np.ndarray | None

    r = property(lambda self: self.rGamma[..., 0])
    Gamma = property(lambda self: self.rGamma[..., 1:])

    def lanes(self) -> list["ThetaQuantities"]:
        """Each lane's own record of a record assembled over lanes; a
        one-iterate record has none (:class:`DimensionError`)."""
        if self.rGamma.ndim != 3:
            raise DimensionError("lanes() of a one-iterate record: it has no lane axis")
        M = self.M
        return [ThetaQuantities(self.rGamma[b], M if M is None or M.ndim == 2 else M[b])
                for b in range(len(self.rGamma))]


def solve_state(prob: OcpProblem, par: Parameterization, p, t_f: float,
                ode: OdeSettings | None = None) -> DenseTrajectory:
    """Forward solve under u(t; p[, t_f]); n+1 channels (state + cost).

    A (B, s) ``p`` solves the B iterates as lanes of one solve, whose
    lookups come back lanes first, each lane at its own t_f if ``t_f`` is (B,).
    An (s,) ``p`` runs as one lane, whose own trajectory comes back.
    """
    p = par._check_p(p)
    t_f = par._resolve_tf(t_f, p.shape[:-1])
    P = p.reshape(-1, par.s)
    sol = _state_solution(prob, par.bind(P, t_f), t_f, ode, par.breakpoints(t_f), len(P))
    return sol if p.ndim == 2 else sol.lanes()[0]


def solve_adjoints(prob: OcpProblem, par: Parameterization, p,
                   x_traj: DenseTrajectory) -> AdjointBundle:
    """Integrate the cost and constraint adjoints backward along x(t).

    Both adjoints share one backward pass over the horizon [t0, t_f] of
    ``x_traj``, replayed on its accepted steps and restarting where it did
    (so the forward solve's settings and breakpoints govern it too), with x,
    u, ``f_x`` and ``L_x`` evaluated in one batch for every stage of every
    step.  Terminal values are exact: ``mu(t_f) = phi_x`` and ``Psi(t_f) =
    g_x^T``, the t_f brackets' source.  The bundle holds ``x_traj`` as it
    was given: where the replay cuts steps, its adjoint has a finer grid than
    x.  A (B, s) ``p`` replays the lanes of ``x_traj`` together, each at its
    own rate when their t_f differ; a p whose lanes are not those of
    ``x_traj`` raises :class:`DimensionError` before any callback runs.
    """
    n, t_f = prob.n, x_traj.end
    p = np.asarray(p, dtype=float)
    c = _lane_rates(prob.t0, t_f)[:, None, None] if isinstance(t_f, np.ndarray) else None
    if x_traj.t_grid[0] != prob.t0:
        raise ValueError("x_traj must start at t0")
    lanes = () if x_traj.lane_count is None else (x_traj.lane_count,)
    if p.shape[:-1] != lanes:
        raise DimensionError(f"p has shape {p.shape}, lanes {p.shape[:-1]}, but x_traj "
                             f"has lanes {lanes}")

    x_f = x_traj.last[..., :n]
    y_f = np.empty((*p.shape[:-1], n, 1 + prob.q))
    y_f[..., 0] = _batch_eval(prob, "phi_x", x_f, t_f)
    y_f[..., 1:] = _batch_eval(prob, "g_x", x_f, t_f).swapaxes(-1, -2)

    def coefficients(ts, xs):           # lane b's over its own time: dt = c_b ds
        xs, us = xs[..., :n], par.eval(ts, p, t_f)
        ts = ts if c is None else _lane_times(ts, prob.t0, c)
        f_x = _batch_eval(prob, "f_x", xs, us, ts).swapaxes(-1, -2)
        L_x = _batch_eval(prob, "L_x", xs, us, ts)
        return (-f_x, -L_x) if c is None else (-c[..., None] * f_x, -c * L_x)

    return AdjointBundle(x_traj=x_traj, adjoint_sol=replay_linear(x_traj, coefficients, y_f),
                         par=par, p=p)


@dataclass
class _GridData:
    """Integrand samples on the shared quadrature grid, lanes first.

    The basis columns of theta are ``U_p``, one p-block that every lane
    shares, then each lane's own ``u_tf`` when theta holds t_f (else None).
    :func:`_grid` memoises it, read-only, with w U_p and U_p's Gram matrix.
    Lanes of their own t_f sample the first lane's clock, where an integral over
    lane b's own time is its rate c_b (``rates``, else None) times the clock's;
    ``G_pp`` is each lane's own.
    """

    ts: np.ndarray
    w: np.ndarray
    U_p: np.ndarray           # ([B,] N, m, s)
    wU_p: np.ndarray          # ([B,] N * m, s)
    u_tf: np.ndarray | None   # ([B,] N, m)
    pg: np.ndarray            # ([B,] N, m, 1+q): [p_u | f_u^T Psi]
    kinv: np.ndarray | None   # ([B,] N, m, m)
    G_pp: np.ndarray | None   # ([B,] s, s)
    rates: np.ndarray | None  # (B,)


def _terminal_values(prob: OcpProblem, bundle: AdjointBundle) -> np.ndarray:
    """The terminal brackets h = [phi_t + L + phi_x^T f | g_x f + g_t] of the
    t_f equation, ([B,] 1+q): f^T Y(t_f) off the replay's terminal block
    Y(t_f) = [phi_x | g_x^T], plus [phi_t + L | g_t], one call of each."""
    t_f, x_f = bundle.t_f, bundle.x_f
    u_f = bundle.par.eval(bundle.x_traj.t_grid[-1], bundle.p, t_f)
    f_f = _batch_eval(prob, "f", x_f, u_f, t_f)
    h = (f_f[..., None, :] @ bundle.adjoint_sol.last)[..., 0, :]
    h[..., 0] += _batch_eval(prob, "phi_t", x_f, t_f)
    h[..., 0] += _batch_eval(prob, "L", x_f, u_f, t_f)
    h[..., 1:] += _batch_eval(prob, "g_t", x_f, t_f)
    return h


_GRID = None     # the latest ((t0, t_f, quad, par, gains), (ts, w, U_p, w U_p, K^-1, G_pp))


def _grid(par: Parameterization, t0: float, t_f, quad: QuadratureSpec,
          gains: Gains | None) -> tuple:
    """The read-only Simpson points and weights, U_p = u_p(ts), w U_p as
    ([B,] N * m, s), K^-1 samples and G_pp = int U_p^T K^-1 U_p dt,
    symmetrized exactly (both None without gains), of one t_f, or of the
    first lane's clock for lanes of their own (B,) t_f, with U_p and K^-1 per
    lane where they vary with a lane's own time; the latest serves while
    (t0, t_f, quad), basis and gains stay the same, and a request without
    gains whatever gains built it."""
    global _GRID
    memo, lanes = _GRID, isinstance(t_f, np.ndarray)
    if memo is not None:
        (t0_, t_f_, quad_, par_, gains_), value = memo
        if (par_ is par and (gains is None or gains is gains_)
                and (t0_, quad_) == (t0, quad) and np.array_equal(t_f_, t_f)):
            return value if gains is gains_ else (*value[:4], None, None)
    ts, w = simpson_points(t0, t_f[0] if lanes else t_f, quad, par.breakpoints(t_f))
    at = (_lane_times(ts, t0, _lane_rates(t0, t_f))
          if lanes and gains is not None and callable(gains.K_inv) else ts)
    up, kinv = par.jac_p(ts, t_f), None if gains is None else gains.K_inv_at(at)
    G = None if gains is None else _gram(w, kinv, up, up)
    value = (ts, w, up, (w[:, None, None] * up).reshape(*up.shape[:-3], -1, up.shape[-1]),
             kinv, None if G is None else 0.5 * (G + G.swapaxes(-1, -2)))
    for a in value:
        if a is not None:
            a.flags.writeable = False
    _GRID = ((t0, np.array(t_f), quad, par, gains), value)   # a copy: t_f may be a caller's array
    return value


def _grid_data(prob: OcpProblem, bundle: AdjointBundle, quad: QuadratureSpec, *,
               gains: Gains | None = None, with_tf: bool = False) -> _GridData:
    par, t_f, p = bundle.par, bundle.t_f, bundle.p
    ts, w, up, wup, kinv, G_pp = _grid(par, bundle.t0, t_f, quad, gains)
    rates = _lane_rates(bundle.t0, t_f) if isinstance(t_f, np.ndarray) else None  # lane 0's clock
    tb = ts if rates is None else _lane_times(ts, bundle.t0, rates)
    G_pp = G_pp if rates is None or G_pp is None else rates[:, None, None] * G_pp
    xs, Y = bundle.at(ts)                          # ([B,] N, n) and ([B,] N, n, 1+q)
    us = _contract(up, p)                          # u = U_p p, from the stored U_p
    fu = _batch_eval(prob, "f_u", xs, us, tb)                  # ([B,] N, n, m)
    pg = np.einsum("...tnm,...tnc->...tmc", fu, Y)             # f_u^T [mu | Psi]
    pg[..., 0] += _batch_eval(prob, "L_u", xs, us, tb)
    utf = par.jac_tf(ts, p, t_f) if with_tf else None          # ([B,] N, m)
    return _GridData(ts=ts, w=w, U_p=up, wU_p=wup, u_tf=utf, pg=pg, kinv=kinv, G_pp=G_pp,
                     rates=rates)


def _theta_integrals(gd: _GridData, terminal=None) -> np.ndarray:
    """[r | Gamma] = int U^T [p_u | f_u^T Psi] dt over the columns U of theta:
    the p-rows are one product with the shared w U_p (per lane of a pass), and
    the t_f row u_tf's own product plus the ``terminal`` brackets; a lane of
    its own t_f integrates over its own time, its rate times the clock's."""
    *lanes, N, m, c = gd.pg.shape
    pg, s = gd.pg.reshape(*lanes, N * m, c), gd.wU_p.shape[-1]
    if gd.rates is not None:
        pg = pg * gd.rates[:, None, None]
    rGamma = np.empty((*lanes, s + (terminal is not None), c))
    np.matmul(gd.wU_p.swapaxes(-1, -2), pg, out=rGamma[..., :s, :])
    if terminal is not None:
        wutf = (gd.w[:, None] * gd.u_tf).reshape(*lanes, 1, N * m)
        np.matmul(wutf, pg, out=rGamma[..., s:, :])
        rGamma[..., -1, :] += terminal
    return rGamma


def _require_iterate(b: AdjointBundle, par: Parameterization, t_f=None, p=None) -> None:
    """Refuse to assemble at another basis or iterate than the one bundle ``b`` holds."""
    if par is not b.par:
        raise ValueError(f"par ({par.kind}) is not the bundle's basis ({b.par.kind})")
    if (not (t_f is None or np.array_equal(t_f, b.t_f))
            or not (p is None or p is b.p or np.array_equal(p, b.p))):
        raise ValueError(f"(p, t_f = {t_f!r}) is not the bundle's iterate")


def assemble_form1(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, t_f: float, quad: QuadratureSpec) -> ThetaQuantities:
    """r_1p, Gamma_1p and M_p over theta = p."""
    _require_iterate(bundle, par, t_f)
    gd = _grid_data(prob, bundle, quad, gains=gains)
    return ThetaQuantities(_theta_integrals(gd), gd.G_pp)


def assemble_form2(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, p, t_f: float, quad: QuadratureSpec) -> ThetaQuantities:
    """r_2ptf, Gamma_2ptf and M_ptf over theta = (p, t_f), for any basis.

    t_f is one more basis column u_tf; the metric M_ptf is the Gram matrix
    of all s+1 columns, the shared G_pp bordered per lane by u_tf, plus 1/k_tf
    on its last diagonal entry.  For a form-1 basis u_tf = 0, so M_ptf =
    diag(M_p, 1/k_tf) and the t_f row is the terminal brackets alone.
    """
    _require_iterate(bundle, par, t_f, p)
    if gains.k_tf <= 0:
        raise ConfigurationError("free t_f requires k_tf > 0 (it enters as 1/k_tf)")
    gd = _grid_data(prob, bundle, quad, gains=gains, with_tf=True)
    rGamma = _theta_integrals(gd, _terminal_values(prob, bundle))
    s, utf = par.s, gd.u_tf[..., None]
    M = np.empty((*rGamma.shape[:-2], s + 1, s + 1))
    M[..., :s, :s] = gd.G_pp
    M[..., :s, s:] = _gram(gd.w, gd.kinv, gd.U_p, utf)
    M[..., s:, s:] = _gram(gd.w, gd.kinv, utf, utf)
    if gd.rates is not None:            # G_pp is each lane's own already
        M[..., :, s:] *= gd.rates[:, None, None]
    M[..., s:, :s] = M[..., :s, s:].swapaxes(-1, -2)
    M[..., s:, s:] += 1.0 / gains.k_tf
    return ThetaQuantities(rGamma, M)


def nlp_gradients(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                  p, t_f: float, quad: QuadratureSpec, *,
                  with_tf: bool = True) -> ThetaQuantities:
    """Gradients of simulated J and g with respect to theta = (p, t_f).

    These are the integrals of :func:`assemble_form2` without its metric
    (identical grid, identical summation), so ``M`` is None and they hold for
    both forms: f_theta is ``r``, and g_theta is ``Gamma.T``, whose p-block is
    exactly the transpose of the constraint sensitivity; the t_f entries
    carry the control-shape sensitivity u_tf next to the terminal brackets.
    With ``with_tf=False`` theta is p alone, no terminal brackets are formed,
    and ``r`` and ``Gamma`` are the p-entries of the full ones, bit for bit.
    """
    _require_iterate(bundle, par, t_f, p)
    gd = _grid_data(prob, bundle, quad, with_tf=with_tf)
    return ThetaQuantities(
        _theta_integrals(gd, _terminal_values(prob, bundle) if with_tf else None), None)
