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
appear is contracted into ``mu`` and ``Psi`` (n + n*q backward states
total).  Quadrature then assembles, over the basis columns of theta, the
Gram matrix, the cost gradient and the constraint sensitivity: ``M_p``,
``r_1p``, ``Gamma_1p`` for theta = p, and ``M_ptf``, ``r_2ptf``,
``Gamma_2ptf`` when theta also holds t_f, which is then one more column
u_tf = du/dt_f (zero for a form-1 basis).  The plain NLP gradients are the
same integrals without the metric.  Everything sits on the shared Simpson
grid, so alternative assemblies of the same integral agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankError
from .integrate import DenseSolution, OdeSettings, replay_linear
# not called here, but kept bound: bench/tracing.py wraps sensitivity.integrate_ivp
from .integrate import integrate_ivp  # noqa: F401
from .parameterization import Parameterization
from .problem import Gains, OcpProblem, _state_solution
from .quadrature import QuadratureSpec, simpson_points


_EPS = np.finfo(float).eps


def spd_solve(M: np.ndarray, B: np.ndarray, context: str) -> np.ndarray:
    """Solve M X = B for symmetric positive-definite M, failing loudly.

    A Cholesky factorization certifies M, then LAPACK's LU solve gives X.
    Raises :class:`RankError` when M or B has a non-finite entry, M has no
    Cholesky factor, or M is numerically singular: some pivot L_kk^2 is at
    most n * eps * M_kk.  A matrix that is singular in exact arithmetic (say,
    a Gram matrix with a duplicated column) often factors with pivots of that
    rounding size instead of failing.
    """
    M = np.asarray(M, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.isfinite(M).all() and np.isfinite(B).all()):
        raise RankError(f"{context}: system has non-finite entries")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"{context}: matrix is not positive-definite ({exc})") from None
    if not (L.diagonal() ** 2 > len(M) * _EPS * M.diagonal()).all():
        raise RankError(f"{context}: matrix is numerically singular")
    return np.linalg.solve(M, B)


@dataclass
class AdjointBundle:
    """State and adjoint trajectories of one iterate.

    ``x_traj`` carries n+1 channels (state plus accumulated running cost);
    ``adjoint_sol`` carries the joint backward solve, mu in its first n
    channels and the n x q constraint adjoint Psi row-major flattened after
    them.  The parameterization and parameters that produced the iterate ride
    along so downstream assemblies need no extra bookkeeping.
    """

    x_traj: DenseSolution
    adjoint_sol: DenseSolution
    t0: float
    t_f: float
    n: int
    q: int
    par: Parameterization
    p: np.ndarray

    def u_of_t(self, t):
        """Control of the iterate; (m,) for scalar t, (N, m) for array t."""
        return self.par.eval(t, self.p, self.t_f)

    def x_at(self, ts):
        return self.x_traj(ts)[..., : self.n]

    def psi_at(self, ts):
        return self.mu_psi_at(ts)[1]

    def mu_psi_at(self, ts):
        """(mu, Psi) stacked over times with one dense evaluation."""
        return self._mu_psi(self.adjoint_sol(ts))

    def at(self, ts):
        """(x, mu, Psi) stacked over times, from one search of the shared grid."""
        xa, flat = self.x_traj(ts, self.adjoint_sol)
        return (xa[..., : self.n], *self._mu_psi(flat))

    def _mu_psi(self, flat):
        return (flat[..., : self.n],
                flat[..., self.n:].reshape(*flat.shape[:-1], self.n, self.q))

    @property
    def x_f(self) -> np.ndarray:
        """x(t_f), the forward solve's last node value."""
        return self.x_traj.values[-1, : self.n]

    @property
    def cost_integral(self) -> float:
        return float(self.x_traj.values[-1, self.n])


@dataclass
class Form1Quantities:
    """Assembled quantities for the t_f-independent parameterization.

    ``M_p`` is the basis Gram matrix under the inverse control weight,
    ``r_1p`` the cost gradient, ``Gamma_1p`` the terminal-constraint
    sensitivity, and (``tf_scalar``, ``tf_row``) the terminal brackets
    driving the terminal-time equation.
    """

    M_p: np.ndarray
    r_1p: np.ndarray
    Gamma_1p: np.ndarray
    tf_scalar: float
    tf_row: np.ndarray


@dataclass
class Form2Quantities:
    """Assembled quantities over theta = (p, t_f), for any basis with free t_f.

    Form 1's over the columns [u_p | u_tf], with the terminal brackets added
    to the t_f row and 1/k_tf to the last diagonal entry of ``M_ptf``.
    """

    M_ptf: np.ndarray
    r_2ptf: np.ndarray
    Gamma_2ptf: np.ndarray
    tf_scalar: float
    tf_row: np.ndarray


@dataclass
class NlpGradients:
    """Plain NLP gradients of the simulated objective and constraint."""

    f_theta: np.ndarray     # (s+1,), or (s,) for p alone
    g_theta: np.ndarray     # (q, s+1), or (q, s)


def solve_state(prob: OcpProblem, par: Parameterization, p, t_f: float,
                ode: OdeSettings | None = None) -> DenseSolution:
    """Forward solve under u(t; p[, t_f]); n+1 channels (state + cost)."""
    return _state_solution(prob, par.bind(p, t_f), t_f, ode, par.breakpoints(t_f))


def solve_adjoints(prob: OcpProblem, par: Parameterization, p,
                   x_traj: DenseSolution, t_f: float) -> AdjointBundle:
    """Integrate the cost and constraint adjoints backward along x(t).

    Both adjoints share one backward pass, replayed on the accepted steps of
    ``x_traj`` (so the forward solve's settings govern it too), with x, u,
    ``f_x`` and ``L_x`` evaluated in one batch for every stage of every step.
    Terminal values are exact: ``mu(t_f) = phi_x`` and ``Psi(t_f) = g_x^T``.
    """
    n, q = prob.n, prob.q
    p = np.asarray(p, dtype=float)
    if x_traj.t_grid[0] != prob.t0 or x_traj.t_grid[-1] != t_f:
        raise ValueError("x_traj must span [t0, t_f]")

    x_f = x_traj.values[-1, :n]
    mu_f = np.asarray(prob.phi_x(x_f, t_f), dtype=float)
    psi_f = np.asarray(prob.g_x(x_f, t_f), dtype=float).T.reshape(n, q)
    y_f = np.column_stack([mu_f, psi_f])

    def coefficients(ts, xs):
        xs = xs[:, :n]
        us = par.eval(ts, p, t_f)
        f_x = _batch_eval(prob, "f_x", xs, us, ts)
        L_x = _batch_eval(prob, "L_x", xs, us, ts)
        return -f_x.transpose(0, 2, 1), -L_x

    sol = replay_linear(x_traj, coefficients, y_f, breakpoints=par.breakpoints(t_f))
    return AdjointBundle(x_traj=x_traj, adjoint_sol=sol, t0=prob.t0, t_f=t_f,
                         n=n, q=q, par=par, p=p)


@dataclass
class _GridData:
    """Integrand samples on the shared quadrature grid.

    ``U`` holds the basis columns of theta: u_p, then u_tf if ``with_tf``.
    """

    ts: np.ndarray
    w: np.ndarray
    U: np.ndarray             # (N, m, s) or (N, m, s + 1)
    pu: np.ndarray            # (N, m)
    fupsi: np.ndarray         # (N, m, q)
    kinv: np.ndarray | None   # (N, m, m)


def _batch_eval(prob: OcpProblem, name: str, xs, us, ts) -> np.ndarray:
    fn = getattr(prob, name)
    if prob.vectorized:
        return np.asarray(fn(xs, us, ts), dtype=float)
    return np.stack([np.asarray(fn(xs[i], us[i], ts[i]), dtype=float)
                     for i in range(ts.size)])


def _terminal_values(prob: OcpProblem, bundle: AdjointBundle) -> tuple[float, np.ndarray]:
    """The terminal brackets (tf_scalar, tf_row) of the t_f equation."""
    t_f, x_f = bundle.t_f, bundle.x_f
    u_f = bundle.u_of_t(t_f)
    f_f = np.asarray(prob.f(x_f, u_f, t_f), dtype=float)
    tf_scalar = (float(prob.phi_t(x_f, t_f))
                 + float(np.dot(np.asarray(prob.phi_x(x_f, t_f), float), f_f))
                 + float(prob.L(x_f, u_f, t_f)))
    if prob.q:
        tf_row = np.asarray(prob.g_x(x_f, t_f), float) @ f_f \
            + np.asarray(prob.g_t(x_f, t_f), float)
    else:
        tf_row = np.zeros(0)
    return tf_scalar, tf_row


def _grid_data(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
               quad: QuadratureSpec, *, gains: Gains | None = None,
               with_tf: bool = False) -> _GridData:
    t_f = bundle.t_f
    ts, w = simpson_points(bundle.t0, t_f, quad, par.breakpoints(t_f))
    xs, mus, psis = bundle.at(ts)
    up = par.jac_p(ts, bundle.p, t_f)
    us = np.einsum("tms,s->tm", up, bundle.p)                  # as par.eval does
    fu = _batch_eval(prob, "f_u", xs, us, ts)                  # (N, n, m)
    lu = _batch_eval(prob, "L_u", xs, us, ts)                  # (N, m)
    pu = lu + np.einsum("tnm,tn->tm", fu, mus)
    if prob.q:
        fupsi = np.einsum("tnm,tnq->tmq", fu, psis)            # psis: (N, n, q)
    else:
        fupsi = np.zeros((ts.size, prob.m, 0))
    if with_tf:
        up = np.concatenate([up, par.jac_tf(ts, bundle.p, t_f)[..., None]], axis=-1)
    kinv = gains.K_inv_at(ts) if gains is not None else None
    return _GridData(ts=ts, w=w, U=up, pu=pu, fupsi=fupsi, kinv=kinv)


def _gram(gd: _GridData) -> np.ndarray:
    """int U^T K^-1 U dt from grid samples, as one matrix product.

    The product's two triangles round apart, so it is symmetrized exactly.
    """
    N, m, k = gd.U.shape
    G = (gd.w[:, None, None] * gd.U).reshape(N * m, k).T @ (gd.kinv @ gd.U).reshape(-1, k)
    return 0.5 * (G + G.T)


def _theta_integrals(gd: _GridData, terminal=None) -> tuple[np.ndarray, np.ndarray]:
    """r = int U^T p_u dt and Gamma = int U^T f_u^T Psi dt over the columns of theta.

    When theta includes t_f, its row also gets the ``terminal`` brackets
    (tf_scalar, tf_row).
    """
    r = np.einsum("t,tmi,tm->i", gd.w, gd.U, gd.pu)
    Gamma = np.einsum("t,tmi,tmq->iq", gd.w, gd.U, gd.fupsi)
    if terminal is not None:
        r[-1] += terminal[0]
        Gamma[-1] += terminal[1]
    return r, Gamma


def assemble_form1(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, t_f: float, quad: QuadratureSpec) -> Form1Quantities:
    """Gram matrix, cost gradient, constraint sensitivity, terminal brackets."""
    gd = _grid_data(prob, par, bundle, quad, gains=gains)
    r_1p, Gamma_1p = _theta_integrals(gd)
    tf_scalar, tf_row = _terminal_values(prob, bundle)
    return Form1Quantities(M_p=_gram(gd), r_1p=r_1p, Gamma_1p=Gamma_1p,
                           tf_scalar=tf_scalar, tf_row=tf_row)


def assemble_form2(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, p, t_f: float, quad: QuadratureSpec) -> Form2Quantities:
    """(s+1)-block quantities over theta = (p, t_f), for any basis.

    t_f is one more basis column u_tf; the metric M_ptf is the Gram matrix
    of all s+1 columns plus 1/k_tf on its last diagonal entry.  For a form-1
    basis u_tf = 0, so M_ptf = diag(M_p, 1/k_tf) and the t_f row is the
    terminal brackets alone.
    """
    if gains.k_tf <= 0:
        raise ConfigurationError("free t_f requires k_tf > 0 (it enters as 1/k_tf)")
    gd = _grid_data(prob, par, bundle, quad, gains=gains, with_tf=True)
    terminal = _terminal_values(prob, bundle)
    r_2ptf, Gamma_2ptf = _theta_integrals(gd, terminal)
    M_ptf = _gram(gd)
    M_ptf[-1, -1] += 1.0 / gains.k_tf
    return Form2Quantities(M_ptf=M_ptf, r_2ptf=r_2ptf, Gamma_2ptf=Gamma_2ptf,
                           tf_scalar=terminal[0], tf_row=terminal[1])


def nlp_gradients(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                  p, t_f: float, quad: QuadratureSpec, *,
                  with_tf: bool = True) -> NlpGradients:
    """Gradients of simulated J and g with respect to theta = (p, t_f).

    These are the integrals of :func:`assemble_form2` without its metric
    (identical grid, identical summation), so they hold for both forms: the
    p-block of ``g_theta`` is exactly the transpose of the constraint
    sensitivity, and the t_f entries carry the control-shape sensitivity
    u_tf next to the terminal brackets.  With ``with_tf=False`` theta is p
    alone, and the result is the p-entries of the full one, bit for bit.
    """
    gd = _grid_data(prob, par, bundle, quad, with_tf=with_tf)
    r, Gamma = _theta_integrals(gd, _terminal_values(prob, bundle) if with_tf else None)
    return NlpGradients(f_theta=r, g_theta=Gamma.T)
