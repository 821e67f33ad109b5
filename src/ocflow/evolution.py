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
  constant SPD gain and the one mode that takes it; the NLP-side twin of
  form 1 (they coincide when K_theta is the inverse Gram matrix).

In every mode the multiplier pi is chosen so the terminal-constraint
violation obeys dg/dtau = -K_g g, i.e. the infeasibility decays
exponentially along the flow.  Equilibria satisfy the parameterized
optimality conditions; the solver integrates until a residual/feasibility
tolerance or a tau budget is hit, recording a trace row every
``record_every`` units of tau via dense output, with the energy-like
V = ||g|| + 0.01 J.  Every flow steps on Radau IIA from tau = 0, with no
hand-over: each Newton iteration's stage points and the forward-difference
Jacobian are calls of the flow's one evaluator, and the rows inside one
accepted step ride with the next step's first Newton call, ahead of f at its
start point, so a converged step is one call.  The evaluator runs a call as
the lanes of one pipeline pass (:func:`evaluate_iterates`), free t_f
included, as lanes may differ in t_f, and a lone point as a pass of one lane
(:func:`evaluate_iterate`).  The basis is the one judge of t_f, so
a free-t_f flow that drives t_f to t0 ends on its :class:`DomainError`.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigurationError, DimensionError, MultiplierBoundWarning,
                     _require_gain, _require_number, _require_numbers)
from .integrate import _DEFAULT_ODE, OdeSettings, _Radau, dense_output
from .parameterization import _NODE_KINDS, FORM1, FORM2, Parameterization
from .problem import Gains, OcpProblem, SolveReport, SolveTrace, TraceRow, _objective
from .quadrature import QuadratureSpec
from .sensitivity import (AdjointBundle, ThetaQuantities, assemble_form1,
                          assemble_form2, nlp_gradients, solve_adjoints, solve_state,
                          spd_solve)

_MODE_KINDS = ("form1", "form2", "gradient_flow")
_FD_REL = 1e-6         # Jacobian forward-difference step over max(1, |theta_j|)
_PI_BOUND = 1e6        # ||pi|| over which the multiplier boundedness assumption looks violated
_C1 = 0.01             # the weight of J in the trace's V = ||g|| + c1 J
_ROW_LANES = 16        # the most trace rows one call of the flow's evaluator takes


@dataclass(frozen=True)
class EvolutionState:
    """The unknowns flowing in virtual time, as given; the solve reads them
    through :func:`_resolve_init`, which refuses a bad value."""

    p: np.ndarray
    t_f: float


@dataclass(frozen=True)
class EvolutionMode:
    """Which right-hand side drives the flow.

    ``K_theta`` is the gradient-flow mode's constant SPD gain (a scalar
    stands for K_theta * I), which no other mode takes; it and ``kind`` are
    checked here, its size against theta's with the basis before any pipeline.
    """

    kind: str                          # "form1" | "form2" | "gradient_flow"
    K_theta: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _MODE_KINDS:
            raise ConfigurationError(f"unknown evolution mode {self.kind!r}")
        if self.K_theta is not None:
            if self.kind != "gradient_flow":
                raise ConfigurationError(f"{self.kind} mode takes no K_theta")
            object.__setattr__(self, "K_theta", _require_gain(self.K_theta, "K_theta"))

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
    """One solve's tau budget, residual and feasibility tolerances, and trace row
    spacing, each a finite number > 0 kept as a float (else :class:`ConfigurationError`)."""

    tau_max: float = 300.0
    tol_opt: float = 1e-6
    tol_feas: float = 1e-6
    record_every: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _require_number(getattr(self, f.name), f.name, positive=True))


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a vector, computed as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x, for one vector x or per lane of a stacked one."""
    return (A @ x[..., None])[..., 0]


def lyapunov_diagnostic(g_val, J_val: float) -> float:
    """V = ||g|| + c1 J, c1 = 0.01, the energy-like quantity recorded along the flow."""
    g_val = np.asarray(g_val, dtype=float)
    return float(np.sqrt(g_val @ g_val) + _C1 * J_val)


def multiplier(Gamma, W_Gamma, W_r, K_g, g_val) -> np.ndarray:
    """Terminal-constraint multiplier enforcing dg/dtau = -K_g g.

    Solves pi = -(Gamma^T W Gamma)^-1 (Gamma^T W r - K_g g) for the flow
    d theta/dtau = -W (r + Gamma pi), given the metric applied to the
    stationarity terms: ``W_Gamma`` = W Gamma and ``W_r`` = W r.  Stacked
    arguments, a leading lane axis on all but K_g, solve the lanes' systems
    as one stack, warning once for each lane whose ||pi|| exceeds ``_PI_BOUND``.
    """
    Gamma = np.asarray(Gamma, dtype=float)
    GT = Gamma.swapaxes(-1, -2)
    rhs = _matvec(GT, W_r) - _matvec(K_g, np.asarray(g_val, dtype=float))
    pi = -spd_solve(GT @ W_Gamma, rhs[..., None], "multiplier system (constraint "
                    "sensitivity lacks full column rank)")[..., 0]
    for norm in map(_norm, np.atleast_2d(pi)):
        if norm > _PI_BOUND:
            warnings.warn(f"||pi|| = {norm:.3e} exceeds bound {_PI_BOUND:.1e}; the "
                          "multiplier boundedness assumption looks violated",
                          MultiplierBoundWarning, stacklevel=2)
    return pi


def _flow_direction(rGamma, W_rGamma, K_g, g_val):
    """(pi, r + Gamma pi, -W (r + Gamma pi)) from [r | Gamma] and W [r | Gamma], per lane."""
    r, Gamma = rGamma[..., 0], rGamma[..., 1:]
    W_r, W_Gamma = W_rGamma[..., 0], W_rGamma[..., 1:]
    pi = multiplier(Gamma, W_Gamma, W_r, K_g, g_val)
    return pi, r + _matvec(Gamma, pi), -(W_r + _matvec(W_Gamma, pi))


@dataclass
class IterateEval:
    """Everything the flow and its diagnostics need at one iterate, (p, t_f) its bundle's."""

    bundle: AdjointBundle
    quantities: ThetaQuantities
    pi: np.ndarray
    J: float
    g_val: np.ndarray
    g_norm: float
    residual: np.ndarray
    residual_norm: float
    dtheta: np.ndarray        # d theta/dtau, over (p, t_f) when t_f is free

    p = property(lambda self: self.bundle.p)
    t_f = property(lambda self: self.bundle.t_f)


def _check_compat(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                  gains: Gains) -> None:
    """Refuse a mode, problem, basis and gains that cannot run together,
    mis-shaped gains and a basis built for another m or t0 included; a
    time-varying K_inv is checked at t0."""
    for name, built, own in (("m", par.m, prob.m), ("t0", par.t0, prob.t0)):
        if built != own:
            raise ConfigurationError(f"the basis has {name} = {built!r}, "
                                     f"the problem {name} = {own!r}")
    free = prob.tf_mode == "free"
    dim = par.s + free                                  # theta's size in gradient flow
    K_inv = gains.K_inv
    if callable(K_inv):                 # sized below as returned, as K_inv_at stacks it
        _require_gain(K_inv := K_inv(prob.t0), "K_inv(t0)")
    for name, K, shapes in (("K_g", gains.K_g, [(prob.q, prob.q)]),
                            ("K_inv", K_inv, [(prob.m, prob.m)]),
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


def evaluate_iterate(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                     gains: Gains, p, t_f: float,
                     ode_inner: OdeSettings | None = None,
                     quad: QuadratureSpec | None = None) -> IterateEval:
    """Run the full pipeline (state, adjoints, assembly, multiplier) at (p, t_f),
    an (s,) p and one number t_f (else :class:`DimensionError`), as the one
    lane of an :func:`evaluate_iterates` pass."""
    p = _require_numbers(p, "p")
    if p.shape != (par.s,):
        raise DimensionError(f"p has shape {p.shape}, expected ({par.s},)")
    return evaluate_iterates(mode, prob, par, gains, p[None], par._resolve_tf(t_f, ()),
                             ode_inner, quad)[0]


def evaluate_iterates(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                      gains: Gains, P, t_f,
                      ode_inner: OdeSettings | None = None,
                      quad: QuadratureSpec | None = None) -> list[IterateEval]:
    """Run the full pipeline at B iterates (P[b], t_f[b]) as the lanes of one pass.

    ``P`` is (B, s) and ``t_f`` a number or a (B,) array (else
    :class:`DimensionError`).  One state solve carries all lanes on one step
    sequence, each step held to its worst lane's tolerance and stability
    limit, on the first lane's clock when their t_f differ; one adjoint
    replay, one grid search, one basis evaluation and one Gram matrix serve
    the batch, and the lanes' multiplier systems are solved as one stack.
    Each lane's result is its own :class:`IterateEval`, with a single-lane
    bundle ending at its own t_f.  Every pipeline runs here: a pass of one
    lane is :func:`evaluate_iterate`.
    """
    P = _require_numbers(P, "P")
    if P.ndim != 2 or len(P) == 0 or P.shape[1] != par.s:
        raise DimensionError(f"P has shape {P.shape}, expected (B, {par.s}) with B >= 1")
    t_f = par._resolve_tf(t_f, P.shape[:1])
    _check_compat(mode, prob, par, gains)
    quad = quad or QuadratureSpec()
    bundle = solve_adjoints(prob, par, P, solve_state(prob, par, P, t_f, ode_inner))
    J, g_val = _objective(prob, bundle.x_traj)
    if mode.kind == "gradient_flow":
        quant = nlp_gradients(prob, par, bundle, P, t_f, quad, with_tf=prob.tf_mode == "free")
    elif prob.tf_mode == "free":
        quant = assemble_form2(prob, par, bundle, gains, P, t_f, quad)
    else:
        quant = assemble_form1(prob, par, bundle, gains, t_f, quad)
    # d theta/dtau = -W (r + Gamma pi) from the stationarity terms r, Gamma
    # over theta and the metric W, each with a leading lane axis
    rGamma = quant.rGamma
    if quant.M is None:
        W_rGamma = _require_gain(mode.K_theta, "K_theta", rGamma.shape[-2]) @ rGamma
    else:
        W_rGamma = spd_solve(quant.M, rGamma, "Gram matrix of the basis columns of theta")
    pis, residuals, dthetas = _flow_direction(rGamma, W_rGamma, gains.K_g, g_val)
    return [IterateEval(bundle=b, quantities=q, pi=pi, J=float(j), g_val=g, g_norm=_norm(g),
                        residual=res, residual_norm=_norm(res), dtheta=dtheta)
            for b, q, j, g, pi, res, dtheta in zip(bundle.lanes(), quant.lanes(), J, g_val,
                                                    pis, residuals, dthetas)]


def _resolve_init(prob: OcpProblem, init: EvolutionState) -> tuple[np.ndarray, float]:
    """The initial (p0, t_f0); :class:`ConfigurationError` for a bad or missing value."""
    p0 = _require_numbers(init.p, "init.p")
    if init.t_f is None and prob.tf_mode == "free":
        raise ConfigurationError("free t_f needs an initial init.t_f, got None")
    t_f = None if init.t_f is None else _require_number(init.t_f, "init.t_f")
    if prob.tf_mode == "fixed":
        t_f0 = prob.tf_fixed
        if t_f is not None and not np.isclose(t_f, t_f0):
            raise ConfigurationError(
                f"init.t_f = {init.t_f!r} conflicts with fixed t_f = {t_f0!r}")
    else:
        t_f0 = t_f
        if t_f0 <= prob.t0:
            raise ConfigurationError(f"init.t_f must exceed t0 = {prob.t0!r}, got {init.t_f!r}")
    return p0, t_f0


class _Done(Exception):
    """A trace row met the tolerances inside a Radau step's call: the flow ends."""


def _parts(n: int) -> list[slice]:
    """range(n) in ceil(n / _ROW_LANES) parts as equal as the cap allows, in
    order: no lone last point, and one part when all fit."""
    calls = -(-n // _ROW_LANES)
    return [slice(k * n // calls, (k + 1) * n // calls) for k in range(calls)]


def _flow(evaluate, row, theta0: np.ndarray, stop: StopCriteria, ode: OdeSettings):
    """Integrate d theta/dtau = F(theta) from tau = 0 until a record point is done.

    ``evaluate(thetas)`` gives the results at a list of points, in order and
    lazily, each with its F as ``dtheta``.  The record points are tau = 0,
    the uniform tau grid of spacing ``stop.record_every`` (points inside an
    accepted step come from its dense output) and the last tau reached if
    that is off the grid.  ``row(tau, result)`` records each point's result
    in order and says whether it is done; the flow stops at the first that
    is done and takes no later result, so no later call starts.  Returns the
    last ``(result, done, tau)``.

    The flow steps on Radau IIA from tau = 0, its three stage points one
    call.  Radau starts from the row at tau = 0 and its F, so theta0 is
    evaluated once, then forms its Jacobian and sizes its first step on that
    linearization; the start's probe, at that step's end, is a one-point call.
    A Radau step's first call leads with its start point, whose f the step
    before left pending, so a step whose Newton converges at once is one
    call.  An accepted step's row points wait in the same way: the next
    step's first Newton call puts them in front, [rows..., y_new, y + Z_1,
    y + Z_2, y + Z_3], and they are recorded first, so a done row ends the
    flow before any Newton result of its call is drawn.  No call holds more
    than ``_ROW_LANES`` points: a longer list goes out in :func:`_parts`,
    the earlier ones rows alone.  The last step's rows go out on their own,
    as does the last tau reached when it is off the grid.
    Radau's Jacobian, which carries no row, is one call at [theta, theta +
    d_1 e_1, ...], d_j = ``_FD_REL`` max(1, |theta_j|): column j is the
    forward difference against the call's first result over the step taken.
    """
    last, pending = None, []        # the last row's (result, done, tau); rows not yet sent

    def jac(theta):
        E = theta + np.diag(_FD_REL * np.maximum(1.0, np.abs(theta)))
        base, *columns = (result.dtheta for result in evaluate([theta, *E]))
        return np.column_stack([col - base for col in columns]) / (E.diagonal() - theta)

    def send(rows, points=()):
        # records the rows (tau, theta) in order, raising _Done at a done one,
        # then gives F at the points
        nonlocal last
        thetas, out = [theta for _, theta in rows] + list(points), []
        for part in _parts(len(thetas)):
            for k, result in enumerate(evaluate(thetas[part]), part.start):
                if k < len(rows):
                    tau = rows[k][0]
                    last = result, row(tau, result), tau
                    if last[1]:
                        raise _Done
                else:
                    out.append(result.dtheta)
        return out

    def rhs(thetas):
        rows, pending[:] = pending[:], []
        return send(rows, thetas)

    try:
        send([(0.0, theta0)])
        stepper, next_k = _Radau(rhs, jac, theta0, last[0].dtheta, stop.tau_max, ode), 1
        while not stepper.done:
            tau_prev, theta_prev = stepper.t, stepper.y
            h, K = stepper.step()
            taus, end = [], min(stepper.t + 1e-12 * stop.tau_max, stop.tau_max)
            while (tau_rec := next_k * stop.record_every) <= end:
                taus.append(tau_rec)
                next_k += 1
            if taus:
                Q = stepper.segment(K)
                pending += [(tau_rec, dense_output((tau_rec - tau_prev) / (stepper.t - tau_prev),
                                                   h, theta_prev, Q)) for tau_rec in taus]
        rhs([])                          # the last step's rows, on their own
        if last[2] < stepper.t:
            send([(stepper.t, stepper.y)])
    except _Done:
        pass
    return last


def solve_evolution(mode: EvolutionMode, prob: OcpProblem, par: Parameterization,
                    gains: Gains, init: EvolutionState, stop: StopCriteria,
                    ode_outer: OdeSettings | None = None,
                    ode_inner: OdeSettings | None = None,
                    quad: QuadratureSpec | None = None
                    ) -> tuple[SolveReport, SolveTrace, AdjointBundle]:
    """Integrate the evolution until tolerance convergence or tau_max.

    Trace rows are sampled on the uniform tau grid (spacing
    ``stop.record_every``) via dense output; the stopping test runs at those
    same points, and rows are appended in tau order up to the first that
    meets the tolerances.  The flow's one evaluator (see :func:`_flow`) runs
    the points of a call as the lanes of one :func:`evaluate_iterates` pass,
    a step's rows in the same pass as the next step's first Newton points,
    and a lone point, or each point of a pass that raises or warns, as an
    :func:`evaluate_iterate` call, a pass of that one lane, rows first, so a
    point after the converged row never runs alone.  The answer is the last
    trace row: the report's p, t_f, pi, J, residual, ||g|| and tau are that
    row's, and the returned adjoint bundle (from which costates are
    reconstructed) is its pass's lane.  So a converged report meets
    ``tol_opt`` and ``tol_feas``.  Returns the final report, the trace, and
    that bundle.
    """
    t_start = time.perf_counter()
    _check_compat(mode, prob, par, gains)
    ode_outer = ode_outer or _DEFAULT_ODE
    quad = quad or QuadratureSpec()
    free = prob.tf_mode == "free"
    p0, t_f0 = _resolve_init(prob, init)

    def split(theta):                   # (p, t_f) of a theta, or of a stack of them
        return (theta[..., :-1], theta.T[-1]) if free else (theta, t_f0)

    def evaluate_one(theta: np.ndarray) -> IterateEval:
        return evaluate_iterate(mode, prob, par, gains, *split(theta), ode_inner, quad)

    def evaluate(thetas):
        """The points' results in order: one lane pass for two or more."""
        if len(thetas) > 1:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return evaluate_iterates(mode, prob, par, gains, *split(np.stack(thetas)),
                                             ode_inner, quad)
            except Exception:
                # whatever the pass raised or warned, the points run again one
                # at a time, so a point fails or warns exactly as its own
                # pipeline does, and only if the flow takes it
                pass
        return map(evaluate_one, thetas)

    theta = np.concatenate([p0, [t_f0]]) if free else p0.copy()
    trace = SolveTrace()

    def row(tau, it):
        trace.append(TraceRow(
            tau=tau, p=it.p.copy(), t_f=it.t_f, pi=it.pi.copy(), J=it.J,
            g_norm=it.g_norm, residual_norm=it.residual_norm,
            V=lyapunov_diagnostic(it.g_val, it.J)))
        return it.residual_norm <= stop.tol_opt and it.g_norm <= stop.tol_feas

    final_it, done, tau_final = _flow(evaluate, row, theta, stop, ode_outer)
    report = SolveReport(
        p_final=final_it.p.copy(), tf_final=final_it.t_f,
        pi_final=final_it.pi.copy(), J_final=final_it.J,
        residual_norm=final_it.residual_norm, g_norm=final_it.g_norm,
        converged=bool(done), tau_reached=tau_final,
        wall_time=time.perf_counter() - t_start)
    return report, trace, final_it.bundle


@dataclass
class _NlpPoint:
    """:func:`gradient_flow_generic`'s flow at one theta."""

    theta: np.ndarray
    pi: np.ndarray
    residual: np.ndarray
    dtheta: np.ndarray
    h: np.ndarray


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
    -(h_jac^T)^+ f_grad, independent of K_theta.  ``K_theta`` (dim, dim) and
    ``K_h`` (q, q) are SPD gains, or scalars.  The default integration
    tolerances are tight, as they alone limit the flow's accuracy.  From
    theta0 on, a callback output not shaped (dim,), (q,) or (q, dim), q the
    size of h_val(theta0), raises :class:`DimensionError` naming it; a
    leading axis of length 1 may be left out, as in a (dim,) h_jac for q = 1.
    """
    theta0 = _require_numbers(theta0, "theta0")
    h0 = h_val(theta0)                  # sizes K_h, and is the first row's h
    dim, q = theta0.size, np.asarray(h0).size
    K_theta = _require_gain(K_theta, "K_theta", dim)
    K_h = _require_gain(K_h, "K_h", q)

    def output(name, value, shape):
        out = np.asarray(value, dtype=float)
        if out.shape != shape and not (shape[0] == 1 and out.shape == shape[1:]):
            raise DimensionError(f"{name} returned shape {out.shape}, expected {shape}")
        return out.reshape(shape)

    def evaluate_one(theta):
        grad = output("f_grad", f_grad(theta), (dim,))
        h = output("h_val", h0 if theta is theta0 else h_val(theta), (q,))
        H = output("h_jac", h_jac(theta), (q, dim)) if q else np.zeros((0, dim))
        rGamma = np.column_stack([grad, H.T])
        return _NlpPoint(theta, *_flow_direction(rGamma, K_theta @ rGamma, K_h, h), h)

    def row(tau, point):
        return (np.linalg.norm(point.residual) <= stop.tol_opt
                and np.linalg.norm(point.h) <= stop.tol_feas)

    final, _, _ = _flow(lambda thetas: map(evaluate_one, thetas), row, theta0, stop,
                        ode or OdeSettings(rel_tol=1e-8, abs_tol=1e-10))
    return final.theta, final.pi
