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
total).  Quadrature then assembles the basis Gram matrix ``M_p``, the cost
gradient ``r_1p``, and the constraint sensitivity ``Gamma_1p`` (plus their
terminal-time-extended counterparts and the plain NLP gradients), all on the
shared Simpson grid so alternative assemblies of the same integral agree to
round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RankError
from .integrate import DenseSolution, OdeSettings, replay_linear
# not called here, but kept bound: bench/tracing.py wraps sensitivity.integrate_ivp
from .integrate import integrate_ivp  # noqa: F401
from .parameterization import FORM2, Parameterization
from .problem import Gains, OcpProblem, simulate_control
from .quadrature import QuadratureSpec, simpson_points


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
    if not (np.diag(L) ** 2 > len(M) * np.finfo(float).eps * np.diag(M)).all():
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
        flat = self.adjoint_sol(ts)
        return (flat[..., : self.n],
                flat[..., self.n:].reshape(*flat.shape[:-1], self.n, self.q))

    @property
    def cost_integral(self) -> float:
        return float(self.x_traj(self.t_f)[self.n])


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
    """Assembled (s+1)-block quantities for the t_f-dependent parameterization."""

    M_ptf: np.ndarray
    r_2ptf: np.ndarray
    Gamma_2ptf: np.ndarray
    tf_scalar: float
    tf_row: np.ndarray


@dataclass
class NlpGradients:
    """Plain NLP gradients of the simulated objective and constraint."""

    f_theta: np.ndarray     # (s+1,)
    g_theta: np.ndarray     # (q, s+1)


def solve_state(prob: OcpProblem, par: Parameterization, p, t_f: float,
                ode: OdeSettings | None = None) -> DenseSolution:
    """Forward solve under u(t; p[, t_f]); n+1 channels (state + cost)."""
    sol, _, _ = simulate_control(prob, par.bind(p, t_f), t_f, ode,
                                 breakpoints=par.breakpoints(t_f))
    return sol


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
    """Integrand samples on the shared quadrature grid, plus terminal values."""

    ts: np.ndarray
    w: np.ndarray
    up: np.ndarray            # (N, m, s)
    pu: np.ndarray            # (N, m)
    fupsi: np.ndarray         # (N, m, q)
    utf: np.ndarray | None    # (N, m)
    kinv: np.ndarray | None   # (N, m, m)
    tf_scalar: float
    tf_row: np.ndarray        # (q,)


def _batch_eval(prob: OcpProblem, name: str, xs, us, ts) -> np.ndarray:
    fn = getattr(prob, name)
    if prob.vectorized:
        return np.asarray(fn(xs, us, ts), dtype=float)
    return np.stack([np.asarray(fn(xs[i], us[i], ts[i]), dtype=float)
                     for i in range(ts.size)])


def _terminal_values(prob: OcpProblem, bundle: AdjointBundle) -> tuple[float, np.ndarray]:
    t_f = bundle.t_f
    x_f = bundle.x_at(t_f)
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
               with_utf: bool = False) -> _GridData:
    t_f = bundle.t_f
    ts, w = simpson_points(bundle.t0, t_f, quad, par.breakpoints(t_f))
    xs = bundle.x_at(ts)
    us = par.eval(ts, bundle.p, t_f)
    mus, psis = bundle.mu_psi_at(ts)
    fu = _batch_eval(prob, "f_u", xs, us, ts)                  # (N, n, m)
    lu = _batch_eval(prob, "L_u", xs, us, ts)                  # (N, m)
    pu = lu + np.einsum("tnm,tn->tm", fu, mus)
    if prob.q:
        fupsi = np.einsum("tnm,tnq->tmq", fu, psis)            # psis: (N, n, q)
    else:
        fupsi = np.zeros((ts.size, prob.m, 0))
    up = par.jac_p(ts, bundle.p, t_f)
    utf = par.jac_tf(ts, bundle.p, t_f) if with_utf else None
    kinv = gains.K_inv_at(ts) if gains is not None else None
    tf_scalar, tf_row = _terminal_values(prob, bundle)
    return _GridData(ts=ts, w=w, up=up, pu=pu, fupsi=fupsi, utf=utf,
                     kinv=kinv, tf_scalar=tf_scalar, tf_row=tf_row)


def _gram(w, up, kinv) -> np.ndarray:
    """int u_p^T K^-1 u_p dt from grid samples."""
    return np.einsum("t,tmi,tmn,tnj->ij", w, up, kinv, up)


def _form1_integrals(gd: _GridData) -> tuple[np.ndarray, np.ndarray]:
    """r_1p = int u_p^T p_u dt and Gamma_1p = int u_p^T f_u^T Psi dt."""
    r_1p = np.einsum("t,tmi,tm->i", gd.w, gd.up, gd.pu)
    Gamma_1p = np.einsum("t,tmi,tmq->iq", gd.w, gd.up, gd.fupsi)
    return r_1p, Gamma_1p


def basis_gram(par: Parameterization, gains: Gains, p, t_f: float,
               quad: QuadratureSpec) -> np.ndarray:
    """M_p = int u_p^T K^-1 u_p dt on the shared grid (no bundle needed)."""
    ts, w = simpson_points(par.t0, t_f, quad, par.breakpoints(t_f))
    up = par.jac_p(ts, np.asarray(p, dtype=float), t_f)
    return _gram(w, up, gains.K_inv_at(ts))


def assemble_form1(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, t_f: float, quad: QuadratureSpec, *,
                   M_p: np.ndarray | None = None) -> Form1Quantities:
    """Gram matrix, cost gradient, constraint sensitivity, terminal brackets.

    ``M_p`` may be supplied precomputed (it is constant for linear bases with
    fixed t_f and time-invariant weight); it is rebuilt otherwise.
    """
    gd = _grid_data(prob, par, bundle, quad, gains=gains)
    if M_p is None:
        M_p = _gram(gd.w, gd.up, gd.kinv)
    r_1p, Gamma_1p = _form1_integrals(gd)
    return Form1Quantities(M_p=M_p, r_1p=r_1p, Gamma_1p=Gamma_1p,
                           tf_scalar=gd.tf_scalar, tf_row=gd.tf_row)


def assemble_form2(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                   gains: Gains, p, t_f: float, quad: QuadratureSpec) -> Form2Quantities:
    """(s+1)-block quantities coupling the parameters with the terminal time."""
    if par.form != FORM2:
        raise ConfigurationError("assemble_form2 requires a form2 parameterization")
    if gains.k_tf <= 0:
        raise ConfigurationError("form2 requires k_tf > 0 (it enters as 1/k_tf)")
    gd = _grid_data(prob, par, bundle, quad, gains=gains, with_utf=True)
    A = _gram(gd.w, gd.up, gd.kinv)
    b = np.einsum("t,tmi,tmn,tn->i", gd.w, gd.up, gd.kinv, gd.utf)
    c = 1.0 / gains.k_tf + np.einsum("t,tm,tmn,tn->", gd.w, gd.utf, gd.kinv, gd.utf)
    s = par.s
    M_ptf = np.empty((s + 1, s + 1))
    M_ptf[:s, :s] = A
    M_ptf[:s, s] = b
    M_ptf[s, :s] = b
    M_ptf[s, s] = c
    r_p, Gamma_p = _form1_integrals(gd)
    r_tf = gd.tf_scalar + np.einsum("t,tm,tm->", gd.w, gd.utf, gd.pu)
    Gamma_tf = gd.tf_row + np.einsum("t,tm,tmq->q", gd.w, gd.utf, gd.fupsi)
    return Form2Quantities(
        M_ptf=M_ptf,
        r_2ptf=np.concatenate([r_p, [r_tf]]),
        Gamma_2ptf=np.vstack([Gamma_p, Gamma_tf[None, :]]),
        tf_scalar=gd.tf_scalar, tf_row=gd.tf_row)


def nlp_gradients(prob: OcpProblem, par: Parameterization, bundle: AdjointBundle,
                  p, t_f: float, quad: QuadratureSpec) -> NlpGradients:
    """Gradients of simulated J and g with respect to theta = (p, t_f).

    The p-block of ``f_theta`` reuses the cost-gradient integral of the
    form-1 assembly (identical grid, identical summation), and the p-block of
    ``g_theta`` is exactly the transpose of the constraint sensitivity.
    Requires a form-1 parameterization: for form 2 the terminal-time entries
    would additionally carry the control-shape sensitivity, which lives in
    the form-2 assembly instead.
    """
    if par.form != "form1":
        raise ConfigurationError("nlp_gradients requires a form1 parameterization")
    gd = _grid_data(prob, par, bundle, quad)
    r_1p, Gamma_1p = _form1_integrals(gd)
    f_theta = np.concatenate([r_1p, [gd.tf_scalar]])
    g_theta = np.hstack([Gamma_1p.T, gd.tf_row[:, None]])
    return NlpGradients(f_theta=f_theta, g_theta=g_theta)
