"""The outer initial-value problem in virtual time.

An iterate theta = (p[, t_f]) flows under

    d theta/dtau = -W (r + Gamma pi),

one formula whose stationarity terms r, Gamma and SPD metric W come from
the mode:

* ``form1``  -- r_1p, Gamma_1p and W = M_p^-1.  With free terminal time
  this is form 2's formula for a basis with u_tf = 0: t_f joins theta with
  its terminal brackets and M_ptf = diag(M_p, 1/k_tf).
* ``form2``  -- r_2ptf, Gamma_2ptf and W = M_ptf^-1, for parameterizations
  whose shape depends on t_f; t_f is one more basis column u_tf.
* ``gradient_flow`` -- f_theta, g_theta^T and W = K_theta, an arbitrary
  constant SPD gain; the NLP-side twin of form 1 (they coincide when
  K_theta is the inverse Gram matrix).

In every mode the multiplier pi is chosen so the terminal-constraint
violation obeys dg/dtau = -K_g g, i.e. the infeasibility decays
exponentially along the flow.  Equilibria satisfy the parameterized
optimality conditions; the solver integrates until a residual/feasibility
tolerance or a tau budget is hit, recording a trace row every
``record_every`` units of tau via dense output.  The rows that fall inside
one accepted step of a fixed-t_f flow are evaluated together, as the lanes
of one pipeline pass (:func:`evaluate_iterates`).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, MultiplierBoundWarning
from .integrate import OdeSettings, _finite_positive, _interpolant, _Stepper, dense_output
from .parameterization import FORM1, FORM2, Parameterization
from .problem import (Gains, OcpProblem, SolveReport, SolveTrace, TraceRow,
                      _gain_matrix, _require_finite, _require_spd, _terminal_eval)
from .quadrature import QuadratureSpec
from .sensitivity import (AdjointBundle, ThetaQuantities, assemble_form1,
                          assemble_form2, nlp_gradients, solve_adjoints, solve_state,
                          spd_solve)

_NODE_KINDS = ("lagrange_nodes", "piecewise_linear", "piecewise_constant")
_MODE_KINDS = ("form1", "form2", "gradient_flow")


@dataclass(frozen=True)
class EvolutionState:
    """The unknowns flowing in virtual time."""

    p: np.ndarray
    t_f: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))


@dataclass(frozen=True)
class EvolutionMode:
    """Which right-hand side drives the flow.

    ``K_theta`` is the gradient-flow mode's constant SPD gain (a scalar
    stands for K_theta * I); it and ``kind`` are checked here, and its size
    against theta's with the basis, before any pipeline runs.
    """

    kind: str                          # "form1" | "form2" | "gradient_flow"
    K_theta: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _MODE_KINDS:
            raise ConfigurationError(f"unknown evolution mode {self.kind!r}")
        if self.K_theta is not None:
            K_theta = np.atleast_2d(np.asarray(self.K_theta, dtype=float))
            _require_spd(K_theta, "K_theta")
            object.__setattr__(self, "K_theta", K_theta)

    @classmethod
    def form1(cls) -> "EvolutionMode":
        return cls(kind="form1")

    @classmethod
    def form2(cls) -> "EvolutionMode":
        return cls(kind="form2")

    @classmethod
    def gradient_flow(cls, K_theta=None) -> "EvolutionMode":
        return cls(kind="gradient_flow", K_theta=K_theta)


@dataclass(frozen=True)
class StopCriteria:
    """Stopping and recording policy for one solve."""

    tau_max: float = 300.0
    tol_opt: float = 1e-6
    tol_feas: float = 1e-6
    record_every: float = 1.0
    c1: float = 0.01
    pi_bound: float = 1e6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _finite_positive(value):
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a vector, computed as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x, per lane of a stacked ``x``; one vector takes the plain product."""
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


def lyapunov_diagnostic(g_val, J_val: float, c1: float) -> float:
    """V = ||g|| + c1 * J, the energy-like quantity recorded along the flow."""
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    g_val = np.asarray(g_val, dtype=float)
    return float(np.sqrt(g_val @ g_val) + c1 * J_val)


def multiplier(Gamma, W_Gamma, W_r, K_g, g_val, *,
               pi_bound: float = 1e6) -> np.ndarray:
    """Terminal-constraint multiplier enforcing dg/dtau = -K_g g.

    Solves pi = -(Gamma^T W Gamma)^-1 (Gamma^T W r - K_g g) for the flow
    d theta/dtau = -W (r + Gamma pi), given the metric applied to the
    stationarity terms: ``W_Gamma`` = W Gamma and ``W_r`` = W r.  Stacked
    arguments, a leading lane axis on all but K_g, solve the lanes' systems
    as one stack, warning once for each lane over the bound.
    """
    Gamma = np.asarray(Gamma, dtype=float)
    GT = Gamma.swapaxes(-1, -2)
    rhs = _matvec(GT, W_r) - _matvec(K_g, np.asarray(g_val, dtype=float))
    pi = -spd_solve(GT @ W_Gamma, rhs[..., None], "multiplier system (constraint "
                    "sensitivity lacks full column rank)")[..., 0]
    for norm in map(_norm, np.atleast_2d(pi)):
        if norm > pi_bound:
            warnings.warn(f"||pi|| = {norm:.3e} exceeds bound {pi_bound:.1e}; the "
                          "multiplier boundedness assumption looks violated",
                          MultiplierBoundWarning, stacklevel=2)
    return pi


def _flow_direction(r, Gamma, W_rGamma, K_g, g_val, pi_bound: float):
    """(pi, r + Gamma pi, -W (r + Gamma pi)) from ``W_rGamma`` = W [r | Gamma], per lane."""
    W_r, W_Gamma = W_rGamma[..., 0], W_rGamma[..., 1:]
    pi = multiplier(Gamma, W_Gamma, W_r, K_g, g_val, pi_bound=pi_bound)
    return pi, r + _matvec(Gamma, pi), -(W_r + _matvec(W_Gamma, pi))


@dataclass
class IterateEval:
    """Everything the flow and its diagnostics need at one iterate."""

    p: np.ndarray
    t_f: float
    bundle: AdjointBundle
    quantities: ThetaQuantities
    pi: np.ndarray
    J: float
    g_val: np.ndarray
    g_norm: float
    residual: np.ndarray
    residual_norm: float
    dtheta: np.ndarray        # d theta/dtau, over (p, t_f) when t_f is free


def _check_compat(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                  gains: Gains) -> None:
    """Refuse a mode, problem, basis and gains that cannot run together,
    mis-shaped gains included."""
    free = prob.tf_mode == "free"
    dim = par.s + free                                  # theta's size in gradient flow
    for name, K, shapes in (("K_g", gains.K_g, [(prob.q, prob.q)]),
                            ("K_inv", gains.K_inv_const, [(prob.m, prob.m)]),
                            ("K_theta", mode.K_theta, [(1, 1), (dim, dim)])):
        if K is not None and np.shape(K) not in shapes:
            raise ConfigurationError(f"{name} has shape {np.shape(K)}, expected "
                                     + " or ".join(map(str, shapes)))
    if mode.kind == "form2":
        if par.form != FORM2:
            raise ConfigurationError("form2 mode requires a form2 parameterization")
        if not free:
            raise ConfigurationError("form2 mode targets free-terminal-time problems")
    else:
        if par.form != FORM1:
            raise ConfigurationError(f"{mode.kind} mode requires a form1 parameterization")
        if mode.kind == "gradient_flow" and mode.K_theta is None:
            raise ConfigurationError("gradient_flow mode needs K_theta")
        if free and par.kind in _NODE_KINDS:
            raise ConfigurationError(
                f"{par.kind} nodes move with t_f; use form2 when t_f is free")
    if free and mode.kind != "gradient_flow" and gains.k_tf <= 0:
        raise ConfigurationError("free t_f requires k_tf > 0 (it enters as 1/k_tf)")


def _pipeline(mode: EvolutionMode, prob: OcpProblem, par: Parameterization, gains: Gains,
              p: np.ndarray, t_f: float, ode_inner: OdeSettings | None,
              quad: QuadratureSpec | None, pi_bound: float) -> tuple:
    """(bundle, quantities, J, g, pi, r + Gamma pi, d theta/dtau = -W (r + Gamma pi))
    at (p, t_f), from the stationarity terms r, Gamma over theta and the metric
    W.  A (B, s) ``p`` runs B lanes, and each result has a leading lane axis."""
    _check_compat(mode, prob, par, gains)
    quad = quad or QuadratureSpec()
    bundle = solve_adjoints(prob, par, p, solve_state(prob, par, p, t_f, ode_inner), t_f)
    x_f = bundle.x_f
    J = _terminal_eval(prob, "phi", x_f, t_f) + bundle.cost_integral
    g_val = _terminal_eval(prob, "g", x_f, t_f)
    if mode.kind == "gradient_flow":
        quant = nlp_gradients(prob, par, bundle, p, t_f, quad,
                              with_tf=prob.tf_mode == "free")
    elif prob.tf_mode == "free":
        quant = assemble_form2(prob, par, bundle, gains, p, t_f, quad)
    else:
        quant = assemble_form1(prob, par, bundle, gains, t_f, quad)
    r, Gamma = quant.r, quant.Gamma
    rGamma = np.concatenate([r[..., None], Gamma], axis=-1)      # [r | Gamma]
    if quant.M is None:
        W_rGamma = _gain_matrix(mode.K_theta, r.shape[-1], "K_theta") @ rGamma
    else:
        W_rGamma = spd_solve(quant.M, rGamma, "Gram matrix of the basis columns of theta")
    return (bundle, quant, J, g_val,
            *_flow_direction(r, Gamma, W_rGamma, gains.K_g, g_val, pi_bound))


def _iterate_eval(p, t_f, bundle, quant, J, g_val, pi, residual, dtheta) -> IterateEval:
    return IterateEval(p=p, t_f=t_f, bundle=bundle, quantities=quant, pi=pi, J=float(J),
                       g_val=g_val, g_norm=_norm(g_val), residual=residual,
                       residual_norm=_norm(residual), dtheta=dtheta)


def evaluate_iterate(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                     gains: Gains, p, t_f: float,
                     ode_inner: OdeSettings | None = None,
                     quad: QuadratureSpec | None = None, *,
                     pi_bound: float = 1e6) -> IterateEval:
    """Run the full pipeline (state, adjoints, assembly, multiplier) at (p, t_f)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (par.s,):
        raise ValueError(f"p has shape {p.shape}, expected ({par.s},)")
    return _iterate_eval(p, t_f, *_pipeline(mode, prob, par, gains, p, t_f, ode_inner,
                                            quad, pi_bound))


def evaluate_iterates(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                      gains: Gains, P, t_f: float,
                      ode_inner: OdeSettings | None = None,
                      quad: QuadratureSpec | None = None, *,
                      pi_bound: float = 1e6) -> list[IterateEval]:
    """Run the full pipeline at B iterates (P[b], t_f) as the lanes of one pass.

    ``P`` is (B, s).  One state solve carries all lanes on one step sequence,
    each step held to its worst lane's tolerance and stability limit; one
    adjoint replay, one grid search, one basis evaluation and one Gram
    matrix serve the batch, a vectorized problem's terminal callbacks run
    once, and the lanes' multiplier systems are solved as one stack.  Each
    lane's result is its own :class:`IterateEval`, with a single-lane
    bundle.  Any B, one included, runs this lane path; one lane equals
    :func:`evaluate_iterate` bit for bit.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or len(P) == 0 or P.shape[1] != par.s:
        raise ValueError(f"P has shape {P.shape}, expected (B, {par.s}) with B >= 1")
    bundle, quant, *lanes = _pipeline(mode, prob, par, gains, P, t_f, ode_inner, quad,
                                      pi_bound)
    return [_iterate_eval(p, t_f, *lane)
            for p, *lane in zip(P, bundle.lanes(), quant.lanes(), *lanes)]


def _resolve_init(prob: OcpProblem, init: EvolutionState) -> tuple[np.ndarray, float]:
    """The initial (p0, t_f0); :class:`ConfigurationError` for a non-finite or bad value."""
    p0 = np.asarray(init.p, dtype=float)
    _require_finite(p0, "init.p")
    if init.t_f is not None:
        _require_finite(np.asarray(init.t_f, dtype=float), "init.t_f")
    if prob.tf_mode == "fixed":
        t_f0 = prob.tf_fixed
        if init.t_f is not None and not np.isclose(init.t_f, t_f0):
            raise ConfigurationError(
                f"init.t_f = {init.t_f!r} conflicts with fixed t_f = {t_f0!r}")
    else:
        t_f0 = float(init.t_f)
        if t_f0 <= prob.t0:
            raise ConfigurationError("init.t_f must exceed t0")
    return p0, t_f0


def _memo_last(fn):
    """``fn(theta)`` that reuses its latest result for bit-identical theta.

    The flow's stopping test at tau = 0 and the stepper's first stage see the
    same theta, so this saves one evaluation per solve.
    """
    key, value = None, None

    def memo(theta: np.ndarray):
        nonlocal key, value
        k = theta.tobytes()
        if k != key:
            value = fn(theta)
            key = k
        return value
    return memo


def _flow(rhs, rows, theta0: np.ndarray, stop: StopCriteria, ode: OdeSettings,
          guard=None):
    """Integrate d theta/dtau = rhs(tau, theta) from tau = 0 until a record point is done.

    The record points are tau = 0, the uniform tau grid of spacing
    ``stop.record_every`` (points inside an accepted step come from its
    dense output) and the last tau reached if that is off the grid.
    ``rows(taus, thetas)`` gets them a step at a time, every point inside
    one accepted step together, and yields ``(result, done)`` for each in
    order; the flow stops at the first that is done and takes no later
    one.  Returns the last ``(result, done, tau)``.
    """
    def record(taus, thetas):
        for tau, (result, done) in zip(taus, rows(taus, thetas)):
            if done:
                break
        return result, done, tau

    result, done, tau = record([0.0], [theta0])
    if done:
        return result, done, tau
    stepper = _Stepper(rhs, 0.0, theta0, stop.tau_max, ode, guard=guard)
    next_k = 1
    while not stepper.done and not done:
        tau_prev, theta_prev = stepper.t, stepper.y
        h, K = stepper.step()
        taus = []
        while True:
            tau_rec = next_k * stop.record_every
            if tau_rec > stepper.t + 1e-12 * stop.tau_max or tau_rec > stop.tau_max:
                break
            taus.append(tau_rec)
            next_k += 1
        if taus:
            Q = _interpolant(K)
            thetas = [dense_output((tau_rec - tau_prev) / (stepper.t - tau_prev), h,
                                   theta_prev, Q) for tau_rec in taus]
            result, done, tau = record(taus, thetas)
    if not done and tau < stepper.t:
        result, done, tau = record([stepper.t], [stepper.y])
    return result, done, tau


def solve_evolution(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                    gains: Gains, init: EvolutionState, stop: StopCriteria,
                    ode_outer: OdeSettings | None = None,
                    ode_inner: OdeSettings | None = None,
                    quad: QuadratureSpec | None = None
                    ) -> tuple[SolveReport, SolveTrace, AdjointBundle]:
    """Integrate the evolution until tolerance convergence or tau_max.

    Trace rows are sampled on the uniform tau grid (spacing
    ``stop.record_every``) via dense output; the stopping test runs at those
    same points.  With a fixed t_f, the rows inside one accepted step are
    evaluated as the lanes of one :func:`evaluate_iterates` pass, and rows
    are appended in tau order up to the first that meets the tolerances.
    The answer is the last trace row: the report's p, t_f, pi, J, residual,
    ||g|| and tau are that row's, and the returned adjoint bundle (from
    which costates are reconstructed) is its pipeline's, a lane of a pass
    included.  So a converged report meets ``tol_opt`` and ``tol_feas``.
    Returns the final report, the trace, and that bundle.
    """
    t_start = time.perf_counter()
    _check_compat(mode, prob, par, gains)
    ode_outer = ode_outer or OdeSettings()
    quad = quad or QuadratureSpec()
    free = prob.tf_mode == "free"
    p0, t_f0 = _resolve_init(prob, init)

    @_memo_last
    def evaluate(theta: np.ndarray) -> IterateEval:
        p, t_f = (theta[:-1], theta[-1]) if free else (theta, t_f0)
        return evaluate_iterate(mode, prob, par, gains, p, t_f, ode_inner, quad,
                                pi_bound=stop.pi_bound)

    def rhs(tau, theta):
        return evaluate(theta).dtheta

    def evaluate_rows(thetas):
        """The rows' results in order: one batch when they share t_f."""
        if free or len(thetas) == 1:
            return map(evaluate, thetas)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return evaluate_iterates(mode, prob, par, gains, np.stack(thetas), t_f0,
                                         ode_inner, quad, pi_bound=stop.pi_bound)
        except Exception:
            # whatever the batch raised or warned, the rows run again one at a
            # time, so a row fails or warns exactly as its own pipeline does,
            # and only if the flow reaches it
            return map(evaluate, thetas)

    guard = None
    if free:
        eps_t = 1e-6 * (t_f0 - prob.t0)
        guard = lambda tau, theta: theta[-1] > prob.t0 + eps_t

    theta = np.concatenate([p0, [t_f0]]) if free else p0.copy()
    trace = SolveTrace()

    def rows(taus, thetas):
        for tau, it in zip(taus, evaluate_rows(thetas)):
            trace.append(TraceRow(
                tau=tau, p=it.p.copy(), t_f=it.t_f, pi=it.pi.copy(), J=it.J,
                g_norm=it.g_norm, residual_norm=it.residual_norm,
                V=lyapunov_diagnostic(it.g_val, it.J, stop.c1)))
            yield it, it.residual_norm <= stop.tol_opt and it.g_norm <= stop.tol_feas

    final_it, done, tau_final = _flow(rhs, rows, theta, stop, ode_outer, guard)
    report = SolveReport(
        p_final=final_it.p.copy(), tf_final=final_it.t_f,
        pi_final=final_it.pi.copy(), J_final=final_it.J,
        residual_norm=final_it.residual_norm, g_norm=final_it.g_norm,
        converged=bool(done), tau_reached=tau_final,
        wall_time=time.perf_counter() - t_start)
    return report, trace, final_it.bundle


def gradient_flow_generic(f_grad, h_val, h_jac, K_theta, K_h, theta0,
                          stop: StopCriteria,
                          ode: OdeSettings | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Equality-constrained gradient flow for a plain NLP.

    The ``gradient_flow`` mode's flow, multiplier and stopping test without
    the inner simulation: d theta/dtau = -K_theta (f_grad + h_jac^T pi) with
    pi = -(h_jac K_theta h_jac^T)^-1 (h_jac K_theta f_grad - K_h h), until
    ||f_grad + h_jac^T pi|| and ||h|| meet ``stop``'s tolerances on its record
    grid; returns (theta*, pi*).  With an empty constraint this is plain
    gradient flow.  At convergence pi* equals the least-squares multiplier
    -(h_jac^T)^+ f_grad, independent of K_theta.  ``K_theta`` must be
    (dim, dim) and ``K_h`` (q, q), or scalars.  The default integration
    tolerances are tight, as they alone limit the flow's accuracy.
    """
    theta0 = np.asarray(theta0, dtype=float)
    K_theta = _gain_matrix(K_theta, theta0.size, "K_theta")
    K_h = _gain_matrix(K_h, np.asarray(h_val(theta0)).size, "K_h")

    @_memo_last
    def evaluate(theta):
        grad = np.asarray(f_grad(theta), dtype=float)
        h = np.asarray(h_val(theta), dtype=float)
        H = (np.atleast_2d(np.asarray(h_jac(theta), dtype=float)) if h.size
             else np.zeros((0, theta.size)))
        pi, residual, dtheta = _flow_direction(
            grad, H.T, K_theta @ np.column_stack([grad, H.T]), K_h, h, stop.pi_bound)
        return pi, residual, dtheta, h

    def rhs(tau, theta):
        return evaluate(theta)[2]

    def rows(taus, thetas):
        for theta in thetas:
            pi, residual, _, h = evaluate(theta)
            yield (theta, pi), (np.linalg.norm(residual) <= stop.tol_opt
                                and np.linalg.norm(h) <= stop.tol_feas)

    (theta, pi), _, _ = _flow(rhs, rows, theta0, stop,
                              ode or OdeSettings(rel_tol=1e-8, abs_tol=1e-10))
    return theta, pi
