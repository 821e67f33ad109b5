import dataclasses
import re

import numpy as np
import pytest

from ocflow import (ConfigurationError, DenseTrajectory, DimensionError, DomainError,
                    EvolutionMode, EvolutionState, Gains, MultiplierBoundWarning, OcflowError,
                    OdeSettings, RankError, StopCriteria, evaluate_iterate,
                    evaluate_iterates, gradient_flow_generic, lyapunov_diagnostic,
                    make_basis, multiplier, solve_evolution)
from ocflow.sensitivity import spd_solve

MP_EXACT = 10.0 * np.array([[2, 2, 8 / 3, 4],
                            [2, 8 / 3, 4, 32 / 5],
                            [8 / 3, 4, 32 / 5, 32 / 3],
                            [4, 32 / 5, 32 / 3, 128 / 7]])
GAMMA_EXACT = np.array([[2.0, 2.0],
                        [4 / 3, 2.0],
                        [4 / 3, 8 / 3],
                        [8 / 5, 4.0]])


def cubic():
    return make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)


def test_multiplier_closed_form_at_zero_control():
    # Gram identity: Gamma^T M_p^-1 Gamma = K * Gram{2-t, 1} on [0, 2]
    M_pi_expect = 0.1 * np.array([[8 / 3, 2.0], [2.0, 2.0]])
    M_pi = GAMMA_EXACT.T @ np.linalg.solve(MP_EXACT, GAMMA_EXACT)
    np.testing.assert_allclose(M_pi, M_pi_expect, atol=1e-12)
    pi = multiplier(GAMMA_EXACT, spd_solve(MP_EXACT, GAMMA_EXACT, "M_p"), np.zeros(4),
                    0.1 * np.eye(2), np.array([3.0, 1.0]))
    np.testing.assert_allclose(pi, [3.0, -2.5], atol=1e-12)


def test_multiplier_empty_constraint():
    # q = 0 solves the empty multiplier system, for one iterate and for lanes
    pi = multiplier(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros(2),
                    np.zeros((0, 0)), np.zeros(0))
    assert pi.shape == (0,)
    pi = multiplier(np.zeros((3, 2, 0)), np.zeros((3, 2, 0)), np.ones((3, 2)),
                    np.zeros((0, 0)), np.zeros((3, 0)))
    assert pi.shape == (3, 0)


def test_multiplier_bound_warning():
    # pi is linear in g: ||pi|| = 3.905 at g = (3, 1), so 7.8e5 at 2e5 g and
    # 3.9e6 at 1e6 g, on either side of the bound 1e6
    import warnings

    W_Gamma = spd_solve(MP_EXACT, GAMMA_EXACT, "M_p")
    g_val = np.array([3.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        multiplier(GAMMA_EXACT, W_Gamma, np.zeros(4), 0.1 * np.eye(2), 2e5 * g_val)
    with pytest.warns(MultiplierBoundWarning, match="exceeds bound 1.0e[+]06"):
        pi = multiplier(GAMMA_EXACT, W_Gamma, np.zeros(4), 0.1 * np.eye(2), 1e6 * g_val)
    assert np.linalg.norm(pi) > 1e6


def test_multiplier_rank_error_on_dependent_columns():
    Gamma = np.stack([GAMMA_EXACT[:, 0], GAMMA_EXACT[:, 0]], axis=1)
    with pytest.raises(RankError):
        multiplier(Gamma, spd_solve(MP_EXACT, Gamma, "M_p"), np.zeros(4),
                   0.1 * np.eye(2), np.array([1.0, 1.0]))


def test_rhs_vanishes_at_analytic_optimum(example1, e1_par):
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, e1_par,
                          example1.gains, np.array([-3.5, 3.0, 0.0, 0.0]), 2.0)
    assert np.abs(it.dtheta).max() <= 1e-4
    assert it.dtheta.size == e1_par.s


def test_rhs_at_zero_control_matches_matrix_arithmetic(example1, e1_par):
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, e1_par,
                          example1.gains, np.zeros(4), 2.0)
    # residual = Gamma pi with pi = [3, -2.5]; first entry 2*3 + 2*(-2.5) = 1
    assert it.residual[0] == pytest.approx(1.0, abs=1e-6)
    expect = -np.linalg.solve(MP_EXACT, GAMMA_EXACT @ np.array([3.0, -2.5]))
    np.testing.assert_allclose(it.dtheta, expect, atol=1e-6)


def test_form2_degenerate_matches_form1_equations(brach):
    # zero t_f-sensitivity: the coupled equations fall apart into the
    # decoupled ones built from the same bundle
    from ocflow import (QuadratureSpec, assemble_form1, solve_adjoints,
                        solve_state)
    from ocflow.sensitivity import _terminal_values

    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    prob, gains = brach.prob, brach.gains
    rng = np.random.default_rng(6)
    p = rng.uniform(-0.2, 1.0, par.s)
    t_f = 1.07
    it2 = evaluate_iterate(EvolutionMode.form2(), prob, par, gains, p, t_f)

    x = solve_state(prob, par, p, t_f)
    b = solve_adjoints(prob, par, p, x)
    q1 = assemble_form1(prob, par, b, gains, t_f, QuadratureSpec())
    h = _terminal_values(prob, b)
    tf_scalar, tf_row = h[..., 0], h[..., 1:]
    # theta = (p, t_f) under the metric diag(M_p^-1, k_tf)
    pi = multiplier(np.vstack([q1.Gamma, tf_row]),
                    np.vstack([spd_solve(q1.M, q1.Gamma, "M_p"),
                               gains.k_tf * tf_row]),
                    np.append(spd_solve(q1.M, q1.r, "M_p"),
                              gains.k_tf * tf_scalar),
                    gains.K_g, it2.g_val)
    dp = -spd_solve(q1.M, q1.r + q1.Gamma @ pi, "M_p")
    dtf = -gains.k_tf * (tf_scalar + pi @ tf_row)
    np.testing.assert_allclose(it2.pi, pi, atol=1e-12)
    np.testing.assert_allclose(it2.dtheta[:-1], dp, atol=1e-12)
    assert it2.dtheta[-1] == pytest.approx(dtf, abs=1e-12)


def test_lyapunov_diagnostic_values():
    # V = ||g|| + 0.01 J
    assert lyapunov_diagnostic(np.zeros(2), 3.25) == pytest.approx(0.0325)
    assert lyapunov_diagnostic(np.array([3.0, 1.0]), 0.0) == pytest.approx(np.sqrt(10.0))
    assert lyapunov_diagnostic(np.zeros(2), 0.0) == 0.0
    assert lyapunov_diagnostic(np.array([3.0, 4.0]), 100.0) == pytest.approx(6.0)


def test_gradient_flow_generic_kkt_point():
    theta, pi = gradient_flow_generic(
        f_grad=lambda th: th,
        h_val=lambda th: np.array([th[0] - 1.0]),
        h_jac=lambda th: np.array([[1.0, 0.0, 0.0]]),
        K_theta=np.eye(3), K_h=np.eye(1), theta0=np.zeros(3),
        stop=StopCriteria(tau_max=200.0))
    np.testing.assert_allclose(theta, [1.0, 0.0, 0.0], atol=1e-6)
    assert pi[0] == pytest.approx(-1.0, abs=1e-6)


def test_gradient_flow_generic_unconstrained():
    a = np.array([0.3, -1.2])
    theta, pi = gradient_flow_generic(
        f_grad=lambda th: th - a,
        h_val=lambda th: np.zeros(0),
        h_jac=lambda th: np.zeros((0, 2)),
        K_theta=np.eye(2), K_h=np.zeros((0, 0)), theta0=np.zeros(2),
        stop=StopCriteria(tau_max=100.0))
    np.testing.assert_allclose(theta, a, atol=1e-6)
    assert pi.shape == (0,)


def test_gradient_flow_generic_rejects_bad_gain_shapes():
    problem = dict(f_grad=lambda th: th,
                   h_val=lambda th: np.array([th[0] - 1.0]),
                   h_jac=lambda th: np.array([[1.0, 0.0, 0.0]]),
                   theta0=np.zeros(3), stop=StopCriteria(tau_max=1.0))
    with pytest.raises(ConfigurationError, match="K_theta"):
        gradient_flow_generic(K_theta=np.eye(2), K_h=np.eye(1), **problem)
    with pytest.raises(ConfigurationError, match="K_h"):
        gradient_flow_generic(K_theta=np.eye(3), K_h=np.eye(2), **problem)
    # gains that are not SPD: K_h = -1 flowed to theta ~ (-4.85e8, 0, 0) with
    # warnings only, K_theta = -I failed as a RankError of the multiplier
    # system, and a non-symmetric K_theta ran
    skew = np.eye(3)
    skew[0, 1] = 0.2
    for K_theta, K_h, needle in ((np.eye(3), -1.0, "K_h must be positive-definite, got -1.0"),
                                 (-np.eye(3), 1.0, "K_theta must be positive-definite"),
                                 (skew, 1.0, "K_theta must be symmetric")):
        with pytest.raises(ConfigurationError, match=needle):
            gradient_flow_generic(K_theta=K_theta, K_h=K_h, **problem)


@pytest.mark.parametrize("callback, output, message", [
    ("f_grad", lambda th: th[:2], r"^f_grad returned shape \(2,\), expected \(3,\)$"),
    ("h_val", lambda th: np.array([[th[0] - 1.0]]),
     r"^h_val returned shape \(1, 1\), expected \(1,\)$"),
    ("h_jac", lambda th: np.array([[1.0, 0.0]]),
     r"^h_jac returned shape \(1, 2\), expected \(1, 3\)$")])
def test_gradient_flow_generic_refuses_mis_shaped_callback_output(callback, output, message):
    # at theta0, before any step, with a typed error naming the callback; an
    # h_jac of (1, 2) at a theta0 of size 3 used to fail untyped in
    # np.column_stack
    seen = []
    problem = dict(f_grad=lambda th: th, h_val=lambda th: np.array([th[0] - 1.0]),
                   h_jac=lambda th: np.array([[1.0, 0.0, 0.0]]))
    problem[callback] = lambda th: seen.append(th.copy()) or output(th)
    with pytest.raises(DimensionError, match=message):
        gradient_flow_generic(K_theta=np.eye(3), K_h=np.eye(1), theta0=np.zeros(3),
                              stop=StopCriteria(tau_max=1.0), **problem)
    assert seen and all(np.array_equal(th, np.zeros(3)) for th in seen)


def test_gradient_flow_generic_takes_q1_output_without_its_leading_axis():
    # with one constraint, h_val may be a number and h_jac a (dim,) row, as
    # they always could: the flow is the one of the (1,) and (1, dim)
    # outputs, bit for bit.  The call at theta0 that sizes K_h also serves
    # the row at tau = 0, so h_val's next call is the initial step's probe
    at_theta0 = []

    def h_val(th):
        at_theta0.append(not th.any())
        return th[0] - 1.0

    common = dict(f_grad=lambda th: th, K_theta=np.eye(3), K_h=np.eye(1),
                  theta0=np.zeros(3), stop=StopCriteria(tau_max=50.0))
    theta, pi = gradient_flow_generic(h_val=h_val, h_jac=lambda th: np.array([1.0, 0.0, 0.0]),
                                      **common)
    assert at_theta0[:2] == [True, False]
    theta_2d, pi_2d = gradient_flow_generic(h_val=lambda th: np.array([th[0] - 1.0]),
                                            h_jac=lambda th: np.array([[1.0, 0.0, 0.0]]),
                                            **common)
    assert np.array_equal(theta, theta_2d) and np.array_equal(pi, pi_2d)


def test_gradient_flow_multiplier_is_least_squares_at_convergence():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    target = rng.normal(size=4)
    theta, pi = gradient_flow_generic(
        f_grad=lambda th: th - target,
        h_val=lambda th: A @ th - b,
        h_jac=lambda th: A,
        K_theta=0.5 * np.eye(4), K_h=np.eye(2), theta0=np.zeros(4),
        stop=StopCriteria(tau_max=500.0, tol_opt=1e-10, tol_feas=1e-10))
    lsq = -np.linalg.pinv(A.T) @ (theta - target)
    np.testing.assert_allclose(pi, lsq, atol=1e-6)


def test_gradient_flow_large_diagonal_gain(example1):
    # a second arbitrary SPD gain (100x the other one) reaches the same
    # optimum much faster in tau; checks gain-independence of the equilibrium
    par = cubic()
    report, _, _ = solve_evolution(
        EvolutionMode.gradient_flow(10.0 * np.eye(4)), example1.prob, par,
        example1.gains, EvolutionState(p=np.zeros(4), t_f=2.0),
        StopCriteria(tau_max=600.0, record_every=10.0))
    np.testing.assert_allclose(report.p_final, [-3.5, 3.0, 0.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(report.pi_final, [3.0, -2.5], atol=1e-3)


def test_unconstrained_flow_descends_objective(lqr_like):
    # q = 0: empty multiplier, plain descent on J
    from ocflow import OdeSettings
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
    gains = Gains.constant(K=0.1, m=1, q=0)
    report, trace, _ = solve_evolution(
        EvolutionMode.form1(), lqr_like, par, gains,
        EvolutionState(p=np.zeros(3), t_f=2.0),
        StopCriteria(tau_max=200.0, tol_opt=1e-8),
        ode_outer=OdeSettings(rel_tol=1e-8, abs_tol=1e-11),
        ode_inner=OdeSettings(rel_tol=1e-10, abs_tol=1e-12))
    assert report.pi_final.shape == (0,)
    J = trace.column("J")
    assert np.all(np.diff(J) <= 1e-10)
    assert report.residual_norm <= 1e-8


def test_case2_node_values_reference(brach_case2):
    # interpolation-node values of the converged linear heading law
    report, _, _, _ = brach_case2
    np.testing.assert_allclose(report.p_final,
                               [0.0, 0.3015, 0.6030, 0.9045, 1.2060], atol=2e-3)


def test_time_varying_control_weight_reaches_same_optimum(example1):
    # the weight reshapes the flow's metric, not its equilibrium
    from ocflow import OdeSettings

    def K_inv(t):
        return np.array([[10.0 * (1.0 + 0.5 * np.sin(t))]])

    gains = Gains(K_inv=K_inv, k_tf=0.0, K_g=0.1 * np.eye(2))
    par = cubic()
    report, _, _ = solve_evolution(
        EvolutionMode.form1(), example1.prob, par, gains,
        EvolutionState(p=np.zeros(4), t_f=2.0),
        StopCriteria(tau_max=300.0, record_every=2.0))
    np.testing.assert_allclose(report.p_final, [-3.5, 3.0, 0.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(report.pi_final, [3.0, -2.5], atol=1e-3)


def test_two_control_problem_converges():
    # x' = u (two independent channels), minimum energy to a target point;
    # optimal controls are constant, so a 2-segment step basis is exact
    from ocflow import OcpProblem
    prob = OcpProblem(
        n=2, m=2, q=2, t0=0.0, x0=np.zeros(2), tf_mode="fixed", tf_fixed=1.0,
        f=lambda x, u, t: np.asarray(u, float),
        f_x=lambda x, u, t: np.zeros((2, 2)),
        f_u=lambda x, u, t: np.eye(2),
        L=lambda x, u, t: 0.5 * float(np.asarray(u) @ np.asarray(u)),
        L_x=lambda x, u, t: np.zeros(2),
        L_u=lambda x, u, t: np.asarray(u, float),
        phi=lambda xf, tf: 0.0,
        phi_x=lambda xf, tf: np.zeros(2),
        phi_t=lambda xf, tf: 0.0,
        g=lambda xf, tf: np.asarray(xf, float) - np.array([1.0, -1.0]),
        g_x=lambda xf, tf: np.eye(2),
        g_t=lambda xf, tf: np.zeros(2),
        name="two-channel")
    par = make_basis("piecewise_constant", m=2, t0=0.0, form="form1", n_segments=2)
    gains = Gains.constant(K=0.1, m=2, q=2)
    report, _, _ = solve_evolution(
        EvolutionMode.form1(), prob, par, gains,
        EvolutionState(p=np.zeros(4), t_f=1.0), StopCriteria(tau_max=300.0))
    np.testing.assert_allclose(report.p_final, [1.0, -1.0, 1.0, -1.0], atol=1e-3)
    np.testing.assert_allclose(report.pi_final, [-1.0, 1.0], atol=1e-3)
    assert report.J_final == pytest.approx(1.0, abs=1e-3)


def _assert_report_is_last_row(report, trace):
    row = trace.rows[-1]
    assert np.array_equal(report.p_final, row.p) and np.array_equal(report.pi_final, row.pi)
    assert ((report.tf_final, report.J_final, report.residual_norm, report.g_norm,
             report.tau_reached)
            == (row.t_f, row.J, row.residual_norm, row.g_norm, row.tau))


def test_solve_report_invariant(request):
    # the answer is the last trace row, field for field, whether that row came
    # from a pass of several lanes (e1 form 1), a single pipeline (gradient
    # flow) or a free-t_f flow (Brachistochrone cases 1 and 4)
    for solve in ("e1_form1_solve", "e1_gradflow_solve", "e1_decay_solve", "brach_case1",
                  "brach_case4"):
        report, trace, _, _ = request.getfixturevalue(solve)
        _assert_report_is_last_row(report, trace)
        if report.converged:
            assert report.residual_norm <= 1e-6
            assert report.g_norm <= 1e-6
        taus = trace.taus()
        assert np.all(np.diff(taus) > 0)


def test_trace_spacing_and_final_row(e1_form1_solve):
    report, trace, _, _ = e1_form1_solve
    taus = trace.taus()
    assert taus[0] == 0.0
    assert np.all(np.diff(taus) >= 1.0 - 1e-9)
    assert taus[-1] == report.tau_reached


def test_mode_parameterization_compatibility(example1, brach):
    par_f2 = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    with pytest.raises(ConfigurationError):
        evaluate_iterate(EvolutionMode.form1(), brach.prob, par_f2, brach.gains,
                         np.zeros(5), 1.0)
    par_f1_nodes = make_basis("piecewise_linear", m=1, t0=0.0, form="form1",
                              n_segments=4)
    with pytest.raises(ConfigurationError):
        evaluate_iterate(EvolutionMode.form1(), brach.prob, par_f1_nodes, brach.gains,
                         np.zeros(5), 1.0)
    with pytest.raises(ConfigurationError):
        evaluate_iterate(EvolutionMode.form2(), example1.prob, par_f2, example1.gains,
                         np.zeros(5), 2.0)
    with pytest.raises(ConfigurationError, match="requires a form2 parameterization"):
        evaluate_iterate(EvolutionMode.form2(), brach.prob,
                         make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4),
                         brach.gains, np.zeros(5), 1.0)
    with pytest.raises(DimensionError, match="expected \\(5,\\)"):
        evaluate_iterate(EvolutionMode.form2(), brach.prob, par_f2, brach.gains,
                         np.zeros(4), 1.0)
    with pytest.raises(ConfigurationError):
        evaluate_iterate(EvolutionMode.gradient_flow(), example1.prob,
                         make_basis("global_polynomial", m=1, t0=0.0,
                                    form="form1", order=3),
                         example1.gains, np.zeros(4), 2.0)
    # form 1 with free t_f carries the metric 1/k_tf, as form 2 does
    with pytest.raises(ConfigurationError, match="k_tf"):
        evaluate_iterate(EvolutionMode.form1(), brach.prob,
                         make_basis("global_polynomial", m=1, t0=0.0,
                                    form="form1", order=4),
                         dataclasses.replace(brach.gains, k_tf=0.0), np.zeros(5), 1.0)


def test_unknown_mode_kind_fails_at_construction():
    with pytest.raises(ConfigurationError, match="form3"):
        EvolutionMode(kind="form3")


def test_init_tf_conflict_rejected(example1, e1_par):
    with pytest.raises(ConfigurationError):
        solve_evolution(EvolutionMode.form1(), example1.prob, e1_par,
                        example1.gains, EvolutionState(p=np.zeros(4), t_f=1.0),
                        StopCriteria(tau_max=1.0))


def test_stop_criteria_validation():
    with pytest.raises(ValueError):
        StopCriteria(tau_max=-1.0)
    with pytest.raises(ValueError):
        StopCriteria(record_every=0.0)
    # c1, the weight of J in the trace's V, is a constant, not a setting
    assert [f.name for f in dataclasses.fields(StopCriteria)] == [
        "tau_max", "tol_opt", "tol_feas", "record_every"]
    with pytest.raises(TypeError):
        StopCriteria(c1=0.01)


def test_non_finite_f_u_fails_typed(example1, e1_par):
    # f_u enters only the assembly, so the NaN first meets the flow's solve
    f_u = example1.prob.f_u
    nan_prob = dataclasses.replace(
        example1.prob, f_u=lambda x, u, t: np.full(np.shape(f_u(x, u, t)), np.nan))
    with pytest.raises(OcflowError, match="non-finite"):
        evaluate_iterate(EvolutionMode.form1(), nan_prob, e1_par, example1.gains,
                         np.zeros(4), 2.0)


def _duplicate_first_column(par):
    """par with its last basis function replaced by a copy of the first.

    At a p whose last coefficient is 0 the control, u_p's other columns and
    u_tf are the original basis's, so every evaluator stays consistent.
    """
    def duplicated(fn):
        def wrapped(ts, t_f):
            vals = fn(ts, t_f).copy()
            vals[:, -1] = vals[:, 0]
            return vals
        return wrapped

    return dataclasses.replace(par, values_fn=duplicated(par.values_fn),
                               derivs_fn=par.derivs_fn and duplicated(par.derivs_fn))


@pytest.mark.parametrize("form", ["form1", "form2"])
def test_duplicated_basis_column_raises_rank_error(example1, brach, form):
    if form == "form1":
        bp, t_f = example1, 2.0
        par = make_basis("global_polynomial", m=1, t0=0.0, form=form, order=3)
    else:
        bp, t_f = brach, 1.07
        par = make_basis("piecewise_constant", m=1, t0=0.0, form=form, n_segments=4)
    par = _duplicate_first_column(par)
    p = np.random.default_rng(3).uniform(-0.2, 1.0, par.s)
    p[-1] = 0.0
    with pytest.raises(RankError, match="Gram matrix of the basis columns"):
        evaluate_iterate(EvolutionMode(kind=form), bp.prob, par, bp.gains, p, t_f)


def _one_pipeline(mode, example1, brach):
    if mode.kind == "form2":
        bp, t_f = brach, 1.07
        par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    else:
        bp, t_f, par = example1, 2.0, cubic()
    evaluate_iterate(mode, bp.prob, par, bp.gains, np.full(par.s, 0.1), t_f)


@pytest.mark.parametrize("mode, calls", [(EvolutionMode.form1(), 2),
                                         (EvolutionMode.form2(), 2),
                                         (EvolutionMode.gradient_flow(0.1), 1)])
def test_spd_solves_per_pipeline(monkeypatch, example1, brach, mode, calls):
    # the metric is factored once (form 1 and form 2), the multiplier system once
    import ocflow.evolution as evolution

    seen = []

    def counting(M, B, context):
        seen.append(context)
        return spd_solve(M, B, context)

    monkeypatch.setattr(evolution, "spd_solve", counting)
    _one_pipeline(mode, example1, brach)
    assert len(seen) == calls


@pytest.mark.parametrize("mode", [EvolutionMode.form1(), EvolutionMode.form2(),
                                  EvolutionMode.gradient_flow(0.1)])
def test_one_dense_search_per_pipeline(monkeypatch, example1, brach, mode):
    # x and [mu | Psi] share the forward grid, so one search of the Simpson
    # grid serves both; terminal values are node reads
    lookups = []
    lookup = DenseTrajectory.__call__

    def counting(self, t, *others):
        lookups.append((np.shape(t), len(others)))
        return lookup(self, t, *others)

    monkeypatch.setattr(DenseTrajectory, "__call__", counting)
    _one_pipeline(mode, example1, brach)
    assert len(lookups) == 1
    (shape, others), = lookups
    assert len(shape) == 1 and others == 1


def test_gradient_flow_gain_is_checked_before_any_pipeline(monkeypatch, example1):
    import ocflow.evolution as evolution

    monkeypatch.setattr(evolution, "solve_state",
                        lambda *a, **k: pytest.fail("a pipeline ran"))
    for bad in (-1.0, np.array([[1.0, 2.0], [0.0, 1.0]]), np.diag([1.0, 0.0])):
        with pytest.raises(ConfigurationError, match="K_theta"):
            EvolutionMode.gradient_flow(bad)
    with pytest.raises(ConfigurationError, match="K_theta"):
        evaluate_iterate(EvolutionMode.gradient_flow(), example1.prob, cubic(),
                         example1.gains, np.zeros(4), 2.0)


@pytest.mark.parametrize("kind", ["form1", "form2"])
def test_only_the_gradient_flow_takes_k_theta(kind):
    # the Gram-metric modes never read K_theta, so a right-sized one would be
    # ignored and a mis-sized one refused; neither mode takes one
    with pytest.raises(ConfigurationError, match=f"{kind} mode takes no K_theta"):
        EvolutionMode(kind, 0.1)
    assert EvolutionMode(kind).K_theta is None


def test_non_finite_gains_and_initial_values_are_refused_before_any_pipeline(
        monkeypatch, example1, brach):
    import ocflow.evolution as evolution

    monkeypatch.setattr(evolution, "solve_state",
                        lambda *a, **k: pytest.fail("a pipeline ran"))
    for bad in (np.nan, np.inf):
        for kwargs, key in (({"K": bad}, "K"), ({"K": [[bad]]}, "K"), ({"K_g": bad}, "K_g"),
                            ({"k_tf": bad}, "k_tf")):
            with pytest.raises(ConfigurationError, match=key):
                Gains.constant(**{"K": 0.1, "m": 1, "q": 2, **kwargs})
        with pytest.raises(ConfigurationError, match="K_theta"):
            EvolutionMode.gradient_flow(bad)
        stop = StopCriteria(tau_max=1.0)
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
        for prob, gains, p, t_f, key in (
                (brach.prob, brach.gains, np.zeros(5), bad, "init.t_f"),
                (brach.prob, brach.gains, np.array([0.0, bad, 0.0, 0.0, 0.0]), 1.0, "init.p"),
                (example1.prob, example1.gains, np.zeros(5), bad, "init.t_f")):
            with pytest.raises(ConfigurationError, match=key):
                solve_evolution(EvolutionMode.form1(), prob, par, gains,
                                EvolutionState(p=p, t_f=t_f), stop)


def test_mis_shaped_gains_and_initial_values_are_refused_before_any_pipeline(
        monkeypatch, example1, brach):
    import ocflow.evolution as evolution

    monkeypatch.setattr(evolution, "solve_state",
                        lambda *a, **k: pytest.fail("a pipeline ran"))
    par = cubic()
    for mode, gains, needle in (
            (EvolutionMode.form1(), Gains.constant(K=0.1, m=1, q=3), "K_g has shape (3, 3)"),
            (EvolutionMode.form1(), Gains.constant(K=0.1, m=2, q=2), "K_inv has shape (2, 2)"),
            (EvolutionMode.form1(), Gains(K_inv=lambda t: np.eye(2), k_tf=0.0,
                                          K_g=0.1 * np.eye(2)), "K_inv has shape (2, 2)"),
            (EvolutionMode.gradient_flow(np.eye(2)), example1.gains,
             "K_theta has shape (2, 2), expected (1, 1) or (4, 4)")):
        with pytest.raises(ConfigurationError, match=re.escape(needle)):
            solve_evolution(mode, example1.prob, par, gains,
                            EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria())
        for run in (evaluate_iterate, evaluate_iterates):
            with pytest.raises(ConfigurationError, match=re.escape(needle)):
                run(mode, example1.prob, par, gains,
                    np.zeros(4) if run is evaluate_iterate else np.zeros((2, 4)), 2.0)
    # a basis built for another m or t0 than the problem's
    for basis, needle in (
            (make_basis("global_polynomial", m=2, t0=0.0, form="form1", order=3),
             "the basis has m = 2, the problem m = 1"),
            (make_basis("global_polynomial", m=1, t0=0.5, form="form1", order=3),
             "the basis has t0 = 0.5, the problem t0 = 0.0")):
        with pytest.raises(ConfigurationError, match=re.escape(needle)):
            solve_evolution(EvolutionMode.form1(), example1.prob, basis, example1.gains,
                            EvolutionState(p=np.zeros(basis.s), t_f=2.0), StopCriteria())
        for run in (evaluate_iterate, evaluate_iterates):
            with pytest.raises(ConfigurationError, match=re.escape(needle)):
                run(EvolutionMode.form1(), example1.prob, basis, example1.gains,
                    np.zeros(basis.s) if run is evaluate_iterate else np.zeros((2, basis.s)),
                    2.0)
    # constant gains hold K_inv as an array; a callable is checked at t0
    assert isinstance(example1.gains.K_inv, np.ndarray)
    with pytest.raises(ConfigurationError, match=re.escape("K_inv(t0) must be positive-def")):
        evolution._check_compat(EvolutionMode.form1(), example1.prob, par, dataclasses.replace(
            example1.gains, K_inv=lambda t: -np.eye(1)))
    # with free t_f, gradient flow's theta holds t_f too
    brach_par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
    with pytest.raises(ConfigurationError, match=re.escape("expected (1, 1) or (6, 6)")):
        solve_evolution(EvolutionMode.gradient_flow(np.eye(5)), brach.prob, brach_par,
                        brach.gains, EvolutionState(p=np.zeros(5), t_f=1.0), StopCriteria())
    with pytest.raises(ConfigurationError, match="must be square"):
        EvolutionMode.gradient_flow(np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match="init.t_f must exceed t0"):
        solve_evolution(EvolutionMode.form1(), brach.prob, brach_par, brach.gains,
                        EvolutionState(p=np.zeros(5), t_f=0.0), StopCriteria())
    # a free t_f needs an initial one, and any given t_f is a number
    for prob, gains, basis, p, t_f, needle in (
            (brach.prob, brach.gains, brach_par, np.zeros(5), None,
             "free t_f needs an initial init.t_f"),
            (brach.prob, brach.gains, brach_par, np.zeros(5), [1.0, 1.1],
             "init.t_f must be a finite number, got [1.0, 1.1]"),
            (brach.prob, brach.gains, brach_par, np.zeros(5), np.array([1.0]),
             "init.t_f must be a finite number, got array([1.])"),
            (example1.prob, example1.gains, par, np.zeros(4), [2.0, 2.0],
             "init.t_f must be a finite number, got [2.0, 2.0]")):
        with pytest.raises(ConfigurationError, match=re.escape(needle)):
            solve_evolution(EvolutionMode.form1(), prob, basis, gains,
                            EvolutionState(p=p, t_f=t_f), StopCriteria())


@pytest.mark.parametrize("case", ["done_at_the_start", "off_grid_end"])
def test_the_trace_ends_at_the_answer(monkeypatch, example1, case):
    # a start that already meets the tolerances is the answer, one row and
    # one pipeline; a tau_max off the record grid adds its own final row
    import ocflow.evolution as evolution

    pipeline, calls = evolution.evaluate_iterate, []
    monkeypatch.setattr(evolution, "evaluate_iterate",
                        lambda *a, **k: calls.append(a[4]) or pipeline(*a, **k))
    if case == "done_at_the_start":
        p0, taus = [-3.5, 3.0, 0.0, 0.0], [0.0]
        stop = StopCriteria(tol_opt=1e-3, tol_feas=1e-3)
    else:
        p0, stop, taus = np.zeros(4), StopCriteria(tau_max=2.5), [0.0, 1.0, 2.0, 2.5]
    report, trace, bundle = solve_evolution(EvolutionMode.form1(), example1.prob, cubic(),
                                            example1.gains, EvolutionState(p=p0, t_f=2.0),
                                            stop)
    np.testing.assert_array_equal(trace.taus(), taus)
    assert report.converged == (case == "done_at_the_start")
    _assert_report_is_last_row(report, trace)
    assert np.array_equal(bundle.p, report.p_final)
    if case == "done_at_the_start":
        assert len(calls) == 1


def test_the_starting_point_is_evaluated_once(monkeypatch, example1):
    # Radau starts from the stopping test's result at tau = 0
    import ocflow.evolution as evolution

    seen = []
    pipeline = evolution.evaluate_iterate

    def counting(mode, prob, par, gains, p, t_f, *args, **kwargs):
        seen.append(np.append(p, t_f))
        return pipeline(mode, prob, par, gains, p, t_f, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterate", counting)
    p0 = np.array([0.1, -0.2, 0.3, 0.05])
    _, trace, _ = solve_evolution(EvolutionMode.form1(), example1.prob, cubic(),
                                  example1.gains, EvolutionState(p=p0, t_f=2.0),
                                  StopCriteria(tau_max=3.0, record_every=1.0))
    assert sum(np.array_equal(th, np.append(p0, 2.0)) for th in seen) == 1
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert np.array_equal(trace.rows[0].p, p0) and len(trace.rows) == 4


def test_the_flow_evaluates_its_first_point_once():
    # a plain evaluator, with no memo: the row at tau = 0 is the one call of
    # theta0 alone, Radau starts from its result, and the next calls are the
    # initial step estimate's probe and the Jacobian's forward-difference
    # pass, whose first point is theta0
    from types import SimpleNamespace

    import ocflow.evolution as evolution

    calls, y0 = [], np.array([1.0, 2.0])

    def evaluate(thetas):
        calls.append(np.array(thetas))
        return (SimpleNamespace(theta=theta, dtheta=-theta) for theta in thetas)

    evolution._flow(evaluate, lambda tau, result: False, y0,
                    StopCriteria(tau_max=5.0), OdeSettings())
    start, probe, fd = calls[:3]
    assert np.array_equal(start, [y0]) and probe.shape == (1, 2)
    assert not np.array_equal(probe[0], y0)
    assert fd.shape == (3, 2) and np.array_equal(fd[0], y0) and _is_fd_pass(fd)
    assert sum(np.array_equal(c, [y0]) for c in calls) == 1


def test_evaluate_iterate_takes_one_number_for_t_f(example1, e1_par):
    # a single pipeline's t_f is one number: a (1,) array, which a pass of
    # one lane takes, is refused
    with pytest.raises(DimensionError, match=r"^t_f has shape \(1,\), expected one per lane$"):
        evaluate_iterate(EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
                         np.zeros(4), np.array([2.0]))


def test_evaluate_iterate_is_a_pass_of_one_lane(monkeypatch, example1, brach, e1_par):
    # one pipeline path: each evaluate_iterate call is one pass whose state
    # solve takes the (1, s) stack of its point at its one t_f, and its result
    # is that pass's lane, in a solve as alone
    import ocflow.evolution as evolution

    state, single, seen, lone = evolution.solve_state, evolution.evaluate_iterate, [], []

    def spying(prob, par, P, t_f, *args):
        seen.append((np.array(P), t_f))
        return state(prob, par, P, t_f, *args)

    def counting(*args, **kwargs):
        lone.append(len(seen))
        return single(*args, **kwargs)

    monkeypatch.setattr(evolution, "solve_state", spying)
    monkeypatch.setattr(evolution, "evaluate_iterate", counting)
    pwc = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    for mode, bp, par, p, t_f in ((EvolutionMode.form1(), example1, e1_par,
                                   np.array([0.1, -0.2, 0.3, 0.05]), 2.0),
                                  (EvolutionMode.form2(), brach, pwc, 0.05 * np.arange(20), 0.9)):
        seen.clear()
        it = single(mode, bp.prob, par, bp.gains, p, t_f)
        (P, t), = seen
        assert P.shape == (1, par.s) and np.array_equal(P[0], p)
        assert type(t) is float and t == t_f
        lane, = evaluate_iterates(mode, bp.prob, par, bp.gains, p[None], t_f)
        for name in ("pi", "J", "g_val", "residual", "dtheta", "p", "t_f"):
            assert np.array_equal(getattr(it, name), getattr(lane, name)), name
        assert it.bundle.p.shape == (par.s,) and it.bundle.x_traj.lane_count is None
        seen.clear()
        solve_evolution(mode, bp.prob, par, bp.gains, EvolutionState(p=p, t_f=t_f),
                        StopCriteria(tau_max=3.0))
        assert lone[:2] == [0, 1]           # the tau = 0 point and the first step's probe
        for k in lone:
            assert seen[k][0].shape == (1, par.s) and type(seen[k][1]) is float
        assert all(len(P) > 1 for k, (P, _) in enumerate(seen) if k not in lone)
        lone.clear()


@pytest.mark.parametrize("free", [False, True])
def test_the_flow_integrates_dtheta(monkeypatch, example1, brach, free):
    # the flow's right-hand side is the iterate's dtheta itself, over (p, t_f)
    # when t_f is free and over p alone otherwise: Radau's right-hand side at
    # a point is the result of a one-point call of the flow's evaluator
    import ocflow.evolution as evolution

    its, evaluators, rhss = [], [], []
    pipeline, flow, radau = evolution.evaluate_iterate, evolution._flow, evolution._Radau

    def recording(*args, **kwargs):
        its.append(pipeline(*args, **kwargs))
        return its[-1]

    def spying(evaluate, row, theta0, *args, **kwargs):
        evaluators.append(evaluate)
        return flow(evaluate, row, theta0, *args, **kwargs)

    def stepping(rhs, *args, **kwargs):
        rhss.append(rhs)
        return radau(rhs, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterate", recording)
    monkeypatch.setattr(evolution, "_flow", spying)
    monkeypatch.setattr(evolution, "_Radau", stepping)
    bp, s = (brach, 5) if free else (example1, 4)
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=s - 1)
    solve_evolution(EvolutionMode.form1(), bp.prob, par, bp.gains,
                    EvolutionState(p=np.full(s, 0.1), t_f=1.0 if free else 2.0),
                    StopCriteria(tau_max=2.0, record_every=1.0))
    last = its[-1]
    theta = np.append(last.p, last.t_f) if free else last.p
    assert last.dtheta.shape == (s + free,)
    (result,) = evaluators[0]([theta])
    assert result is its[-1] and np.array_equal(result.dtheta, last.dtheta)
    (dtheta,) = rhss[0]([theta])
    assert dtheta is its[-1].dtheta and np.array_equal(dtheta, last.dtheta)


@pytest.mark.parametrize("kind, p", [
    ("piecewise_constant", 0.0302 + 0.0603 * np.arange(20)),
    ("piecewise_linear", 0.0603 * np.arange(21))])
def test_flow_is_smooth_in_the_terminal_time(brach, kind, p):
    # near the Brachistochrone optimum (a control linear in t), with inner
    # tolerances far below the effect: the t_f column of the flow's
    # central-difference Jacobian converges as the step shrinks
    par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=20)
    tight = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
    for t_f in (0.8166, 1.0):
        def F(t):
            return evaluate_iterate(EvolutionMode.form2(), brach.prob, par, brach.gains,
                                    p, t, tight).dtheta
        norms = [np.linalg.norm(F(t_f + h) - F(t_f - h)) / (2 * h)
                 for h in (1e-4, 1e-5, 1e-6, 1e-7)]
        assert max(norms) <= 1.01 * min(norms), norms


def _spy_batches(monkeypatch):
    """Record the parameter stacks of every multi-lane pipeline pass."""
    import ocflow.evolution as evolution

    batches = []
    batch = evolution.evaluate_iterates

    def spying(mode, prob, par, gains, P, *args, **kwargs):
        if len(P) > 1:
            batches.append(np.array(P))
        return batch(mode, prob, par, gains, P, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterates", spying)
    return batches


def test_acceptance_1_rows_are_batched_and_keep_their_trace(monkeypatch, example1, e1_par):
    # the rows inside one accepted outer step are pipeline passes of at most
    # _ROW_LANES lanes, though a late Radau step spans 30-60 rows (split as
    # evenly as the cap allows, so the widest pass holds over half the cap); the trace
    # keeps every point of the record grid tau = 0, 1, ... up to the row that
    # converged, and stops there.  Its pass, the solve's last, also evaluated
    # later rows of the same step, but no later pass started
    import ocflow.evolution as evolution

    batches = _spy_batches(monkeypatch)
    single, singles = evolution.evaluate_iterate, []
    monkeypatch.setattr(evolution, "evaluate_iterate",
                        lambda *args, **kw: singles.append(args[4]) or single(*args, **kw))
    report, trace, bundle = solve_evolution(
        EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
        EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria(tau_max=300.0))
    np.testing.assert_array_equal(trace.taus(), np.arange(len(trace.rows), dtype=float))
    assert report.converged and report.tau_reached == trace.rows[-1].tau > 100.0
    assert len(batches) >= 10
    assert evolution._ROW_LANES // 2 < max(map(len, batches)) <= evolution._ROW_LANES
    last = batches[-1]
    at = [i for i, p in enumerate(last) if np.array_equal(p, report.p_final)]
    assert at and at[0] < len(last) - 1, "the stop should fall inside a pass"
    # the report is the converged row, a lane of that pass, and the bundle is
    # that lane's: no pipeline runs again at the final iterate
    _assert_report_is_last_row(report, trace)
    assert not any(np.array_equal(p, report.p_final) for p in singles)
    lane = evaluate_iterates(EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
                             last, 2.0)[at[0]]
    assert bundle.p.shape == (4,) and bundle.x_traj.values.shape[1] == 3
    assert report.J_final == lane.J and np.array_equal(report.pi_final, lane.pi)
    assert report.residual_norm == lane.residual_norm and report.g_norm == lane.g_norm
    np.testing.assert_array_equal(bundle.x_traj.t_grid, lane.bundle.x_traj.t_grid)
    np.testing.assert_array_equal(bundle.x_traj.values, lane.bundle.x_traj.values)
    np.testing.assert_array_equal(bundle.adjoint_sol.values, lane.bundle.adjoint_sol.values)


@pytest.mark.parametrize("failure", ["raise", "warn"])
def test_a_failing_batch_reruns_its_rows_one_at_a_time(monkeypatch, example1, e1_par,
                                                      e1_form1_solve, failure):
    # as if every pass that holds trace rows failed: a Newton call holds at
    # most 4 points and a Jacobian call is theta and its forward differences,
    # so every other pass, of 5 or more lanes, holds the rows of a step ahead
    # of the next step's Newton points.  Its points are evaluated again one
    # at a time, rows first, each an evaluate_iterate call that is a pass of
    # one lane, so neither the failure nor a warning reaches the caller; the
    # converged row's pass runs no later point again.  The
    # flow's path is kept: bit for bit the one that single pipelines at
    # those passes' points give, and on the batched trace's grid and values
    import warnings

    import ocflow.evolution as evolution
    from ocflow import DivergenceError

    batch, single = evolution.evaluate_iterates, evolution.evaluate_iterate
    batched_report, batched_trace, _, _ = e1_form1_solve
    args = (EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
            EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria(tau_max=300.0))
    holds_rows = lambda P: len(P) > 4 and not _is_fd_pass(P)        # noqa: E731

    def singly(mode, prob, par, gains, P, *rest, **kwargs):
        if not holds_rows(P):
            return batch(mode, prob, par, gains, P, *rest, **kwargs)
        return [single(mode, prob, par, gains, p, *rest, **kwargs) for p in P]

    monkeypatch.setattr(evolution, "evaluate_iterates", singly)
    ref_report, ref_trace, _ = solve_evolution(*args)
    events = []

    def failing(mode, prob, par, gains, P, *rest, **kwargs):
        its = batch(mode, prob, par, gains, P, *rest, **kwargs)
        events.append(("pass", np.array(P), holds_rows(P)))
        if not holds_rows(P):
            return its
        if failure == "raise":
            raise DivergenceError("non-finite right-hand side", time=1.0)
        warnings.warn("||pi|| exceeds bound", MultiplierBoundWarning)
        return its

    def one(mode, prob, par, gains, p, *rest, **kwargs):
        events.append(("one", np.array(p), False))
        return single(mode, prob, par, gains, p, *rest, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterates", failing)
    monkeypatch.setattr(evolution, "evaluate_iterate", one)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        report, trace, _ = solve_evolution(*args)
    assert not seen
    for name in ("tau", "t_f", "J", "g_norm", "residual_norm", "V", "p", "pi"):
        np.testing.assert_array_equal(trace.column(name), ref_trace.column(name))
    for field in dataclasses.fields(report):
        if field.name != "wall_time":
            assert np.array_equal(getattr(report, field.name), getattr(ref_report, field.name))
    np.testing.assert_array_equal(trace.taus(), batched_trace.taus())
    assert report.converged
    np.testing.assert_allclose(trace.column("residual_norm"),
                               batched_trace.column("residual_norm"), rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.p_final, batched_report.p_final, rtol=0, atol=1e-12)
    # right after each failed pass its points run again one at a time, in
    # order: its rows, then its Newton points, each an evaluate_iterate call
    # and its pass of that one lane; the last one's stop at the converged
    # row, ahead of its later points, and end the solve
    failed = [i for i, (_, _, bad) in enumerate(events) if bad]
    assert len(failed) >= 10
    for i in failed:
        P = events[i][1]
        n = len(P) if i != failed[-1] else (len(events) - 1 - i) // 2
        rerun = events[i + 1:i + 1 + 2 * n]
        assert [kind for kind, _, _ in rerun] == ["one", "pass"] * n
        np.testing.assert_array_equal([p for _, p, _ in rerun[::2]], P[:n])
        np.testing.assert_array_equal([p for _, p, _ in rerun[1::2]], P[:n, None])
    assert len(events) == failed[-1] + 1 + 2 * n
    assert np.array_equal(events[-2][1], report.p_final) and n < len(P)
    # the rows lead the passes that failed before the last: a pass is rows
    # alone, or ends in the four Newton points of the step after theirs
    rows = trace.column("p")
    newton = [sum(not any(np.array_equal(p, r) for r in rows) for p in events[i][1])
              for i in failed[:-1]]
    for i, k in zip(failed, newton):
        assert k in (0, 4) and all(any(np.array_equal(p, r) for r in rows)
                                   for p in events[i][1][:len(events[i][1]) - k])
    assert newton.count(4) >= 5


def test_gradient_flow_generic_takes_the_rows_of_a_step_together(monkeypatch):
    # a fine record grid puts many rows in one step, and they are one call of
    # the flow's evaluator; the shared flow loop still stops at the first
    # converged row, at the KKT point
    import ocflow.evolution as evolution

    sizes, flow = [], evolution._flow

    def spying(evaluate, row, theta0, *args, **kwargs):
        def counted_evaluate(thetas):
            sizes.append(0)
            return evaluate(thetas)

        def counted_row(tau, result):
            sizes[-1] += 1          # the rows taken from the latest call
            return row(tau, result)
        return flow(counted_evaluate, counted_row, theta0, *args, **kwargs)

    monkeypatch.setattr(evolution, "_flow", spying)
    theta, pi = gradient_flow_generic(
        f_grad=lambda th: th,
        h_val=lambda th: np.array([th[0] - 1.0]),
        h_jac=lambda th: np.array([[1.0, 0.0, 0.0]]),
        K_theta=np.eye(3), K_h=np.eye(1), theta0=np.zeros(3),
        stop=StopCriteria(tau_max=200.0, record_every=0.01))
    assert max(sizes) > 1
    np.testing.assert_allclose(theta, [1.0, 0.0, 0.0], atol=1e-6)
    assert pi[0] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("field", ["tau_max", "tol_opt", "tol_feas", "record_every"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stop_criteria_must_be_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        StopCriteria(**{field: bad})


def _radau_starts(monkeypatch) -> list:
    """Record the tau of every Radau IIA the flow builds."""
    import ocflow.evolution as evolution

    starts, radau = [], evolution._Radau

    def recording(*args):
        stepper = radau(*args)
        starts.append(stepper.t)
        return stepper
    monkeypatch.setattr(evolution, "_Radau", recording)
    return starts


def _decay_flow(stop: StopCriteria, done=lambda tau: False, slow: bool = False,
                ode: OdeSettings | None = None):
    """Run the flow on y' = -y from y = 1, at ``ode`` (the default settings if
    None), with a plain evaluator whose results are drawn lazily; returns
    (calls, rows, steps, (result, done, tau)).

    ``calls`` holds [points, results drawn] per evaluator call, ``rows`` (tau,
    theta, call, position in it) per recorded row, and ``steps`` [t, y, first
    call, end] per Radau step begun, end None for the step in which the flow
    ended.  ``slow`` marks every accepted step's Newton slow, as if it had
    contracted slower than _THET, so each later step re-forms J first."""
    from types import SimpleNamespace

    import ocflow.evolution as evolution

    calls, rows, steps = [], [], []

    def evaluate(thetas):
        calls.append([np.array(thetas), 0])
        k = len(calls) - 1
        for at, theta in enumerate(thetas):
            calls[k][1] += 1
            yield SimpleNamespace(theta=theta, dtheta=-theta, call=k, at=at)

    def row(tau, result):
        rows.append((tau, result.theta, result.call, result.at))
        return done(tau)

    class Radau(evolution._Radau):
        def step(self):
            steps.append([self.t, self.y, len(calls), None])
            out = super().step()
            steps[-1][3] = len(calls)
            self._slow |= slow
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_Radau", Radau)
        out = evolution._flow(evaluate, row, np.ones(1), stop, ode or OdeSettings())
    return calls, rows, steps, out


def _rows_of_steps(rows, steps) -> list:
    """The row points of each Radau step begun, in tau order: those in (t_k, t_k+1]."""
    ends = [t for t, *_ in steps[1:]] + [np.inf]
    return [np.array([theta for tau, theta, *_ in rows if t < tau <= end]).reshape(-1, y.size)
            for (t, y, *_), end in zip(steps, ends)]


def test_flow_takes_no_result_after_the_first_done_row():
    # y' = -y with a fine record grid: the rows of one accepted step lead the
    # next step's first Newton call, and results are drawn lazily and in
    # order, so the flow stops at the first done row: no later row and no
    # Newton result of its call is drawn, and no later call starts; Radau
    # IIA's collocation cubic meets 1e-6 at rel_tol = 1e-6
    calls, rows, _, (result, done, tau) = _decay_flow(
        StopCriteria(tau_max=10.0, record_every=0.01), done=lambda tau: tau >= 0.5,
        ode=OdeSettings(rel_tol=1e-6, abs_tol=1e-9))
    taus = [tau for tau, *_ in rows]
    assert done and tau == taus[-1] == pytest.approx(0.5)
    np.testing.assert_allclose(taus, 0.01 * np.arange(len(rows)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.theta, np.exp(-tau), rtol=1e-6)
    row_calls = sorted({k for _, _, k, _ in rows})
    assert len(row_calls) > 2 and row_calls[-1] == len(calls) - 1 == result.call
    taken = {k: sum(j == k for _, _, j, _ in rows) for k in row_calls}
    # the rows of a call lead it: they are its first results, in tau order
    for k in row_calls:
        assert [at for _, _, j, at in rows if j == k] == list(range(taken[k]))
    # a call of rows holds rows alone (a part past the cap, or tau = 0's), or
    # leads with them the four Newton points of the step after theirs
    assert all(len(calls[k][0]) - taken[k] in (0, 4) for k in row_calls[:-1])
    assert sum(len(calls[k][0]) - taken[k] == 4 for k in row_calls[:-1]) >= 3
    points, drawn = calls[-1]
    # the done row is the last result drawn from its call, which held later
    # points: every result drawn from it is a row, no Newton result
    assert drawn == result.at + 1 == taken[row_calls[-1]] < len(points)


def test_flow_makes_no_call_after_its_last_step():
    # a flow's Radau steps send f at their start and the step before's rows
    # with their first Newton call, so a step's calls are its Newton calls,
    # the first led by the last step's rows; the flow ends in the first call
    # of the step after the done row's, and no call follows it
    calls, rows, steps, (result, done, tau) = _decay_flow(
        StopCriteria(tau_max=100.0, record_every=0.5), done=lambda tau: tau >= 3.0)
    assert done and tau == 3.0 and len(steps) > 2
    before = _rows_of_steps(rows, steps)
    for k, (t, y, first, end) in enumerate(steps):
        own = [points for points, _ in calls[first:end]]
        led = before[k - 1] if k else before[k][:0]
        assert len(own[0]) == len(led) + (4 if k else 3)
        np.testing.assert_array_equal(own[0][:len(led)], led)
        if k:
            assert np.array_equal(own[0][len(led)], y)
        assert all(len(points) == 3 for points in own[1:])      # later Newton iterations
    t, y, first, end = steps[-1]
    assert end is None and first == len(calls) - 1 == result.call
    assert np.array_equal(result.theta, rows[-1][1])


def test_a_steps_rows_lead_the_next_steps_first_newton_call():
    # y' = -y, rows every 0.5: each accepted step's rows ride with the next
    # step's first Newton call, [rows..., y, y + Z_1, y + Z_2, y + Z_3], in
    # tau order and recorded from it; only the last step's rows go out alone
    calls, rows, steps, (result, done, tau) = _decay_flow(
        StopCriteria(tau_max=20.0, record_every=0.5))
    assert not done and tau == 20.0
    before = _rows_of_steps(rows, steps)
    ridden = 0
    for (t, y, first, _), led in zip(steps[1:], before):
        points, drawn = calls[first]
        assert len(points) == len(led) + 4 == drawn
        np.testing.assert_array_equal(points[:len(led)], led)
        assert np.array_equal(points[len(led)], y)
        ridden += len(led)
    assert ridden > 20
    # each row's result came from that same call, at its place in it
    for k, (_, _, first, _) in enumerate(steps[1:]):
        assert [(j, at) for tau, _, j, at in rows if steps[k][0] < tau <= steps[k + 1][0]] \
            == [(first, at) for at in range(len(before[k]))]
    last = calls[steps[-1][3]:]
    assert [len(points) for points, _ in last] == [len(before[-1])] and len(before[-1])
    np.testing.assert_array_equal(last[0][0], before[-1])


def test_rows_beyond_the_cap_go_first_in_parts():
    # rows every 0.01: a Radau step spans up to 70 rows, so with the next
    # step's four Newton points they are split in ceil((R + 4) / _ROW_LANES)
    # parts of near-equal size; the earlier parts are rows alone and the last
    # holds the remaining rows, then the Newton points; no call exceeds the cap
    import ocflow.evolution as evolution

    cap = evolution._ROW_LANES
    calls, rows, steps, _ = _decay_flow(StopCriteria(tau_max=3.0, record_every=0.01))
    assert max(len(points) for points, _ in calls) <= cap
    before, split = _rows_of_steps(rows, steps), 0
    for k, (t, y, first, end) in enumerate(steps[1:], 1):
        led = before[k - 1]
        parts = -(-(len(led) + 4) // cap)
        sizes = [len(points) for points, _ in calls[first:first + parts]]
        assert sum(sizes) == len(led) + 4 and max(sizes) - min(sizes) <= 1
        np.testing.assert_array_equal(np.concatenate([p for p, _ in calls[first:first + parts]])
                                      [:len(led)], led)
        assert np.array_equal(calls[first + parts - 1][0][-4], y)
        split += parts > 1
    assert split >= 3


def test_a_jacobian_re_form_call_carries_no_row():
    # as if each step's Newton had contracted slowly: every later step
    # re-forms J, one forward-difference call at its start point, before its
    # first Newton call; the rows of the step before wait past it and lead
    # that Newton call
    calls, rows, steps, _ = _decay_flow(StopCriteria(tau_max=10.0, record_every=0.5),
                                        slow=True)
    before, reformed = _rows_of_steps(rows, steps), 0
    row_points = np.array([theta for _, theta, *_ in rows])
    for (t, y, first, _), led in zip(steps[1:], before):
        E, newton = calls[first][0], calls[first + 1][0]
        assert E.shape == (2, 1) and np.array_equal(E[0], y) and _is_fd_pass(E)
        assert not any(np.array_equal(p, r) for p in E for r in row_points)
        np.testing.assert_array_equal(newton[:len(led)], led)
        assert len(newton) == len(led) + 4
        reformed += len(led) > 0
    assert reformed >= 5


def test_a_done_row_inside_a_merged_call_is_the_flows_result():
    # the row at tau = 3.0 rides with the next step's Newton points; it is
    # done, and the flow returns that row's own result, its tau and done,
    # drawing nothing after it from the call
    calls, rows, steps, (result, done, tau) = _decay_flow(
        StopCriteria(tau_max=100.0, record_every=0.5), done=lambda tau: tau >= 3.0)
    points, drawn = calls[-1]
    t, y, first, end = steps[-1]
    assert done and tau == 3.0 and end is None and result.call == len(calls) - 1 == first
    n = sum(j == result.call for _, _, j, _ in rows)
    assert result.at == n - 1 and drawn == n
    assert len(points) == n + 4 and np.array_equal(points[n], y)    # Newton points after it
    assert np.array_equal(result.theta, points[result.at]) and result.theta is rows[-1][1]
    np.testing.assert_allclose(result.theta, np.exp(-3.0), rtol=1e-3)


def test_flow_starts_on_radau_with_a_jacobian_call_at_its_first_point():
    # y' = -diag(1, 1e-3) y: Radau IIA takes the flow from the row at tau = 0
    # and its f; its start makes the initial step estimate's probe, one
    # point, and its Jacobian, one call of the flow's evaluator at the first
    # point and its forward-difference points.  Its steps then call the
    # evaluator with their stage points, each after the first with the step
    # before's rows and its start point ahead of them
    from types import SimpleNamespace

    import ocflow.evolution as evolution

    rate = np.array([1.0, 1e-3])
    rhs = lambda tau, y: -rate * y                                     # noqa: E731
    y0, ode, stop = np.ones(2), OdeSettings(), StopCriteria(tau_max=2000.0, record_every=50.0)
    calls, seen, stepped, rows = [], [], [], []

    def evaluate(thetas):
        calls.append(np.array(thetas))
        return (SimpleNamespace(theta=theta, dtheta=rhs(0.0, theta)) for theta in thetas)

    class Recorded(evolution._Radau):
        def __init__(self, *args):
            before = len(calls)
            super().__init__(*args)
            seen.append((self.t, self.y, self.f, self.J.copy(), calls[:before],
                         calls[before:]))

        def step(self):
            before, t, y = len(calls), self.t, self.y
            out = super().step()
            stepped.append((t, y, calls[before:]))
            return out

    def row(tau, point):
        rows.append((tau, point.theta))
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_Radau", Recorded)
        point, done, tau = evolution._flow(evaluate, row, y0, stop, ode)
    (t, y, f, J, before, start_calls), = seen
    assert t == 0.0 and np.array_equal(y, y0) and np.array_equal(f, rhs(0.0, y0))
    # the row at tau = 0 alone, then the initial step probe and the Jacobian
    assert [len(c) for c in before] == [1] and np.array_equal(before[0][0], y0)
    probe, E = start_calls
    assert probe.shape == (1, 2) and not np.array_equal(probe[0], y0)
    assert E.shape == (3, 2) and np.array_equal(E[0], y0)
    np.testing.assert_array_equal(E[1:] - E[0] != 0, np.eye(2, dtype=bool))
    np.testing.assert_allclose(J, -np.diag(rate), rtol=0, atol=1e-8)
    assert not done and tau == stop.tau_max
    np.testing.assert_allclose(point.theta, y0 * np.exp(-rate * tau), rtol=1e-2, atol=1e-9)
    # each Radau step's calls are Newton iterations' three stage points, the
    # first of a later step led by the rows inside the step before and its
    # start point, in parts of at most _ROW_LANES points, and after a
    # rejection one point of the refined error estimate
    assert len(stepped) > 1 and len(stepped[0][2][0]) == 3
    assert {len(c) for c in stepped[0][2][1:]} <= {1, 3}
    ridden = split = 0
    for (t_prev, _, _), (t, y, step) in zip(stepped, stepped[1:]):
        led = np.array([theta for tau, theta in rows if t_prev < tau <= t]).reshape(-1, 2)
        parts = -(-(len(led) + 4) // evolution._ROW_LANES)
        first = np.concatenate(step[:parts])
        assert len(first) == len(led) + 4 and np.array_equal(first[len(led)], y)
        np.testing.assert_array_equal(first[:len(led)], led)
        assert max(map(len, step[:parts])) <= evolution._ROW_LANES
        assert {len(c) for c in step[parts:]} <= {1, 3}
        ridden, split = ridden + len(led), split + (parts > 1)
    assert ridden >= len(rows) // 2 and split >= 2


def test_flow_damps_a_stalling_multi_scale_flow():
    # y' = -diag(0.1, 1e-3) y: an explicit Dormand-Prince flow lets the fast
    # mode ride its stability limit, where the error test alone holds the
    # steps, and stall near 1e-7; Radau IIA, which steps the flow from
    # tau = 0, damps it
    from types import SimpleNamespace

    import ocflow.evolution as evolution

    rate, rows = np.array([0.1, 1e-3]), []

    def evaluate(thetas):
        return (SimpleNamespace(theta=theta, dtheta=-rate * theta) for theta in thetas)

    def row(tau, point):
        rows.append((tau, *point.theta))
        return False

    evolution._flow(evaluate, row, np.ones(2), StopCriteria(tau_max=3000.0,
                                                            record_every=10.0), OdeSettings())
    tau, fast, slow = np.array(rows).T
    assert tau[-1] == 3000.0
    assert np.abs(fast[tau >= 2000.0]).max() <= 1e-10
    np.testing.assert_allclose(slow, np.exp(-1e-3 * tau), rtol=1e-3)


def test_gradient_flow_generic_starts_on_radau(monkeypatch):
    # d theta/dtau = -0.1 diag(1, 0.01) theta at the default OdeSettings: its
    # points are single calls, and Radau IIA steps it from tau = 0 to the
    # tolerance
    calls = []

    def f_grad(theta):
        calls.append(theta)
        return np.array([1.0, 0.01]) * theta

    starts = _radau_starts(monkeypatch)
    theta, pi = gradient_flow_generic(
        f_grad, lambda th: np.zeros(0), lambda th: np.zeros((0, 2)), 0.1,
        np.zeros((0, 0)), np.ones(2), StopCriteria(tau_max=20000.0, record_every=10.0),
        OdeSettings())
    assert starts == [0.0] and pi.shape == (0,)
    assert np.linalg.norm(np.array([1.0, 0.01]) * theta) <= 1e-6


def test_every_flow_starts_on_radau_and_logs_nothing(example1, brach, caplog, monkeypatch):
    # fixed t_f and free: e1's gradient flow and form-1 flow, and the
    # Brachistochrone's gradient flow with t_f free, each start on Radau IIA
    # at tau = 0 and hand over to no other method, so none logs
    import logging

    par, init = cubic(), EvolutionState(p=np.zeros(4), t_f=2.0)
    starts = _radau_starts(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="ocflow"):
        for mode, stop in ((EvolutionMode.gradient_flow(0.1 * np.eye(4)),
                            StopCriteria(tau_max=60000.0, record_every=250.0)),
                           (EvolutionMode.form1(), StopCriteria(tau_max=300.0))):
            report, _, _ = solve_evolution(mode, example1.prob, par, example1.gains, init,
                                           stop)
            assert report.converged
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
        solve_evolution(EvolutionMode.gradient_flow(np.eye(4)), brach.prob, par, brach.gains,
                        EvolutionState(p=np.zeros(3), t_f=1.0),
                        StopCriteria(tau_max=1000.0, record_every=250.0))
    assert starts == [0.0] * 3 and not caplog.records


def _spy_calls(monkeypatch) -> tuple[list, list]:
    """Record the parameter stack of every pipeline pass, and the indices of
    the passes that were evaluate_iterate calls, each checked to be one pass
    of its one point as a lane."""
    import ocflow.evolution as evolution

    events, lone = [], []
    single, batch = evolution.evaluate_iterate, evolution.evaluate_iterates

    def one(mode, prob, par, gains, p, *args, **kwargs):
        lone.append(len(events))
        it = single(mode, prob, par, gains, p, *args, **kwargs)
        assert len(events) == lone[-1] + 1 and np.array_equal(events[-1], [p])
        return it

    def lanes(mode, prob, par, gains, P, *args, **kwargs):
        events.append(np.array(P))
        return batch(mode, prob, par, gains, P, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterate", one)
    monkeypatch.setattr(evolution, "evaluate_iterates", lanes)
    return events, lone


def _is_fd_pass(P) -> bool:
    """Whether the stack P is theta and its forward-difference points."""
    return len(P) == P.shape[1] + 1 and np.array_equal(P[1:] != P[0], np.eye(P.shape[1],
                                                                              dtype=bool))


def test_e1_gradient_flow_jacobian_is_one_lane_pass(example1, e1_par, monkeypatch):
    # fixed t_f: Radau's Jacobian at tau = 0, after its initial step probe (a
    # pass of one lane), is one pipeline pass of 5 lanes, theta and its 4
    # forward-difference points, and no lone one; each Newton iteration
    # after it is one pass of its 3 stage points
    import ocflow.evolution as evolution

    (events, lone), seen = _spy_calls(monkeypatch), []

    class Recorded(evolution._Radau):
        def __init__(self, *args):
            before = len(events)
            super().__init__(*args)
            seen.append((self.y, events[before:], len(events)))

    monkeypatch.setattr(evolution, "_Radau", Recorded)
    report, _, _ = solve_evolution(EvolutionMode.gradient_flow(0.1 * np.eye(4)),
                                   example1.prob, e1_par, example1.gains,
                                   EvolutionState(p=np.zeros(4), t_f=2.0),
                                   StopCriteria(tau_max=60000.0, record_every=250.0))
    assert report.converged
    (y, (probe, P), switch), = seen
    assert probe.shape == (1, 4) and not np.array_equal(probe[0], y)
    assert P.shape == (5, 4) and np.array_equal(P[0], y) and _is_fd_pass(P)
    assert sum(map(_is_fd_pass, events)) == 1
    # the tau = 0 point and the probe, before the Jacobian, are the lone points
    assert lone == [0, 1] and switch == 3
    newton = [E for E in events[switch:] if len(E) == 3]
    assert len(newton) >= 2 and all(np.isfinite(E).all() for E in newton)
    # no stage point ran alone, as a pass of one lane
    assert not any(np.array_equal(E[0], e) for E in newton for e in
                   (ev[0] for ev in events[switch:] if len(ev) == 1))


def test_a_failing_jacobian_pass_reruns_its_points_one_at_a_time(example1, e1_par,
                                                                 monkeypatch):
    # as if the Jacobian's lane pass diverged: its points run again as single
    # pipelines, and the flow still reaches example1's optimum
    import ocflow.evolution as evolution
    from ocflow import DivergenceError

    single, batch, singles, failed = (evolution.evaluate_iterate,
                                      evolution.evaluate_iterates, [], [])

    def one(mode, prob, par, gains, p, *args, **kwargs):
        singles.append(np.array(p))
        return single(mode, prob, par, gains, p, *args, **kwargs)

    def failing(mode, prob, par, gains, P, *args, **kwargs):
        if _is_fd_pass(np.asarray(P)):
            failed.append(np.array(P))
            raise DivergenceError("non-finite right-hand side", time=1.0)
        return batch(mode, prob, par, gains, P, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterate", one)
    monkeypatch.setattr(evolution, "evaluate_iterates", failing)
    report, _, _ = solve_evolution(EvolutionMode.gradient_flow(0.1 * np.eye(4)),
                                   example1.prob, e1_par, example1.gains,
                                   EvolutionState(p=np.zeros(4), t_f=2.0),
                                   StopCriteria(tau_max=60000.0, record_every=250.0))
    (P,) = failed
    for point in P[1:]:
        assert sum(np.array_equal(point, p) for p in singles) == 1
    assert report.converged
    assert np.abs(report.p_final - [-3.5, 3.0, 0.0, 0.0]).max() <= 1e-3
    assert np.abs(report.pi_final - [3.0, -2.5]).max() <= 1e-3


def test_criterion_6_configuration_starts_on_radau(example1, monkeypatch):
    # a fixed-t_f flow is Radau IIA's from tau = 0, with no hand-over later
    starts = _radau_starts(monkeypatch)
    report, _, _ = solve_evolution(EvolutionMode.form1(), example1.prob, cubic(),
                                   example1.gains, EvolutionState(p=np.zeros(4), t_f=2.0),
                                   StopCriteria(tau_max=170.0),
                                   ode_outer=OdeSettings(rel_tol=1e-7, abs_tol=1e-10))
    assert report.converged and starts == [0.0]


def test_fixed_tf_flow_starts_with_one_point_a_probe_and_a_jacobian_pass(example1, e1_par,
                                                                          monkeypatch):
    # the first calls of a fixed-t_f solve: the tau = 0 pipeline (the stopping
    # test's, from which Radau starts) and the initial step estimate's probe,
    # each an evaluate_iterate call that is a pass of one lane, and Radau's
    # Jacobian as one pass of s + 1 lanes
    events, lone = _spy_calls(monkeypatch)
    p0 = np.array([0.1, -0.2, 0.3, 0.05])
    solve_evolution(EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
                    EvolutionState(p=p0, t_f=2.0), StopCriteria(tau_max=3.0))
    start, probe, fd = events[:3]
    assert lone[:2] == [0, 1] and 2 not in lone
    assert start.shape == probe.shape == (1, 4) and np.array_equal(start[0], p0)
    assert not np.array_equal(probe[0], p0)
    assert fd.shape == (5, 4) and np.array_equal(fd[0], p0) and _is_fd_pass(fd)
    assert all(len(E) == 3 for E in events[3:5])       # then Newton's stage points


@pytest.mark.parametrize("kind, kw, form", [
    ("global_polynomial", {"order": 4}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form2"),
    ("piecewise_linear", {"n_segments": 20}, "form2"),
    ("piecewise_constant", {"n_segments": 20}, "form2")], ids=["case1", "case2", "case3",
                                                            "case4"])
def test_brachistochrone_cases_start_on_radau(brach, monkeypatch, kind, kw, form):
    # free t_f: the flow's points are lanes of passes as at a fixed t_f, and
    # every case steps on Radau IIA from tau = 0 to convergence
    starts = _radau_starts(monkeypatch)
    par = make_basis(kind, m=1, t0=0.0, form=form, **kw)
    report, _, _ = solve_evolution(
        EvolutionMode.form1() if form == "form1" else EvolutionMode.form2(), brach.prob, par,
        brach.gains, EvolutionState(p=np.zeros(par.s), t_f=1.0),
        StopCriteria(tau_max=300.0, record_every=5.0))
    assert report.converged and starts == [0.0]


def test_free_tf_flow_starts_with_one_point_a_probe_and_a_jacobian_pass(brach, monkeypatch):
    # the first calls of a free-t_f solve: the tau = 0 pipeline and the
    # initial step estimate's probe, each an evaluate_iterate call that is a
    # pass of one lane at one number t_f, and Radau's Jacobian as one pass of
    # s + 2 lanes, theta = (p, t_f) and its s + 1 forward-difference points,
    # whose last lane steps t_f alone and so runs at its own rate
    import ocflow.evolution as evolution

    (events, lone), tfs, batch = _spy_calls(monkeypatch), [], evolution.evaluate_iterates

    def lanes(mode, prob, par, gains, P, t_f, *args, **kwargs):
        tfs.append(np.array(t_f))
        return batch(mode, prob, par, gains, P, t_f, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterates", lanes)
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p0 = 0.05 * np.arange(20)
    solve_evolution(EvolutionMode.form2(), brach.prob, par, brach.gains,
                    EvolutionState(p=p0, t_f=0.9), StopCriteria(tau_max=3.0))
    start, probe, fd = events[:3]
    assert lone[:2] == [0, 1] and 2 not in lone
    assert start.shape == probe.shape == (1, 20) and np.array_equal(start[0], p0)
    assert not np.array_equal(probe[0], p0)
    assert tfs[0].shape == tfs[1].shape == () and tfs[0] == 0.9 and tfs[1] != 0.9
    theta = np.column_stack([fd, tfs[2]])
    assert theta.shape == (22, 21) and np.array_equal(theta[0], np.append(p0, 0.9))
    assert _is_fd_pass(theta) and tfs[2][-1] > 0.9 and (tfs[2][:-1] == 0.9).all()
    assert all(len(E) == 3 for E in events[3:5])       # then Newton's stage points


def test_free_tf_flow_jacobian_predicts_its_direction(brach, monkeypatch):
    # the Brachistochrone's form-2 flow on Radau from tau = 0: its Jacobian,
    # one pass of theta and its 21 forward-difference points, the t_f column
    # a lane at its own rate, predicts the single pipelines' flow direction,
    # and the solve converges to the optimal t_f
    import ocflow.evolution as evolution

    seen = []

    class Recorded(evolution._Radau):
        def __init__(self, *args):
            super().__init__(*args)
            seen.append((self.y, self.f, self.J.copy()))

    monkeypatch.setattr(evolution, "_Radau", Recorded)
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    mode = EvolutionMode.form2()
    report, _, _ = solve_evolution(mode, brach.prob, par, brach.gains,
                                   EvolutionState(p=np.zeros(20), t_f=1.0),
                                   StopCriteria(tau_max=300.0, record_every=5.0))
    assert report.converged and abs(report.tf_final - 0.8165) <= 1e-3
    (theta, f, J), = seen
    assert J.shape == (21, 21)
    F = lambda th: evaluate_iterate(mode, brach.prob, par, brach.gains,  # noqa: E731
                                    th[:-1], th[-1]).dtheta
    assert np.array_equal(F(theta), f)
    v = np.random.default_rng(0).normal(size=21)
    for direction in (v / np.linalg.norm(v), np.eye(21)[-1]):
        step = F(theta + 1e-4 * direction) - f
        assert np.linalg.norm(step - 1e-4 * J @ direction) <= 1e-3 * np.linalg.norm(step)


@pytest.mark.parametrize("k_tf", [0.1, 1.0, 10.0])
def test_flow_that_drives_t_f_to_t0_ends_on_the_basis_refusal(shrinking_horizon, k_tf):
    # min t_f + 1/2 int u^2 with nothing to hold t_f up: a Dormand-Prince
    # stage evaluates a t_f well below t0 before any accepted step could be
    # judged, and the basis, the one judge of t_f, refuses it with a typed
    # error that names both times
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=1)
    with pytest.raises(DomainError, match=r"^t_f = -\d\.\d+ must exceed t0 = 0\.0$"):
        solve_evolution(EvolutionMode.form1(), shrinking_horizon, par,
                        Gains.constant(K=1.0, m=1, q=0, k_tf=k_tf),
                        EvolutionState(p=np.zeros(2), t_f=1.0), StopCriteria(tau_max=50.0))
