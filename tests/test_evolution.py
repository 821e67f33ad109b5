import dataclasses
import re

import numpy as np
import pytest

from ocflow import (ConfigurationError, DenseTrajectory, EvolutionMode,
                    EvolutionState, Gains, MultiplierBoundWarning, OcflowError,
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
    with pytest.warns(MultiplierBoundWarning):
        multiplier(GAMMA_EXACT, spd_solve(MP_EXACT, GAMMA_EXACT, "M_p"), np.zeros(4),
                   0.1 * np.eye(2), np.array([3.0, 1.0]), pi_bound=1.0)


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

    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    prob, gains = brach.prob, brach.gains
    rng = np.random.default_rng(6)
    p = rng.uniform(-0.2, 1.0, par.s)
    t_f = 1.07
    it2 = evaluate_iterate(EvolutionMode.form2(), prob, par, gains, p, t_f)

    x = solve_state(prob, par, p, t_f)
    b = solve_adjoints(prob, par, p, x, t_f)
    q1 = assemble_form1(prob, par, b, gains, t_f, QuadratureSpec())
    # theta = (p, t_f) under the metric diag(M_p^-1, k_tf)
    pi = multiplier(np.vstack([q1.Gamma, q1.tf_row]),
                    np.vstack([spd_solve(q1.M, q1.Gamma, "M_p"),
                               gains.k_tf * q1.tf_row]),
                    np.append(spd_solve(q1.M, q1.r, "M_p"),
                              gains.k_tf * q1.tf_scalar),
                    gains.K_g, it2.g_val)
    dp = -spd_solve(q1.M, q1.r + q1.Gamma @ pi, "M_p")
    dtf = -gains.k_tf * (q1.tf_scalar + pi @ q1.tf_row)
    np.testing.assert_allclose(it2.pi, pi, atol=1e-12)
    np.testing.assert_allclose(it2.dtheta[:-1], dp, atol=1e-12)
    assert it2.dtheta[-1] == pytest.approx(dtf, abs=1e-12)


def test_lyapunov_diagnostic_values():
    assert lyapunov_diagnostic(np.zeros(2), 3.25, 0.01) == pytest.approx(0.0325)
    assert lyapunov_diagnostic(np.array([3.0, 1.0]), 0.0, 0.01) \
        == pytest.approx(np.sqrt(10.0))
    assert lyapunov_diagnostic(np.zeros(2), 0.0, 0.01) == 0.0
    with pytest.raises(ValueError):
        lyapunov_diagnostic(np.zeros(2), 1.0, 0.0)


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
    with pytest.raises(ValueError, match="expected \\(5,\\)"):
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
    with pytest.raises(ValueError):
        StopCriteria(c1=0.0)
    with pytest.raises(ValueError):
        StopCriteria(pi_bound=0.0)


def test_non_finite_f_u_fails_typed(example1, e1_par):
    # f_u enters only the assembly, so the NaN first meets the flow's solve
    f_u = example1.prob.f_u
    nan_prob = dataclasses.replace(
        example1.prob, f_u=lambda x, u, t: np.full(np.shape(f_u(x, u, t)), np.nan))
    with pytest.raises(OcflowError, match="non-finite"):
        evaluate_iterate(EvolutionMode.form1(), nan_prob, e1_par, example1.gains,
                         np.zeros(4), 2.0)


def _duplicate_first_column(par):
    """par with its last basis column replaced by a copy of the first.

    The control of p is the original basis's control of p with the last
    coefficient folded into the first, so every evaluator stays consistent.
    """
    def folded(p):
        q = np.array(p, dtype=float)
        q[0] += q[-1]
        q[-1] = 0.0
        return q

    def jac_p_fn(ts, p, t_f):
        J = par.jac_p_fn(ts, p, t_f).copy()
        J[..., -1] = J[..., 0]
        return J

    return dataclasses.replace(
        par, jac_p_fn=jac_p_fn,
        jac_tf_fn=lambda ts, p, t_f: par.jac_tf_fn(ts, folded(p), t_f),
        control_fn=lambda p, t_f: par.control_fn(folded(p), t_f))


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
            (EvolutionMode.gradient_flow(np.eye(2)), example1.gains,
             "K_theta has shape (2, 2), expected (1, 1) or (4, 4)")):
        with pytest.raises(ConfigurationError, match=re.escape(needle)):
            solve_evolution(mode, example1.prob, par, gains,
                            EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria())
        for run in (evaluate_iterate, evaluate_iterates):
            with pytest.raises(ConfigurationError, match=re.escape(needle)):
                run(mode, example1.prob, par, gains,
                    np.zeros(4) if run is evaluate_iterate else np.zeros((2, 4)), 2.0)
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
    # the stopping test at tau = 0 and the stepper's first stage share theta0
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


@pytest.mark.parametrize("free", [False, True])
def test_the_flow_integrates_dtheta(monkeypatch, example1, brach, free):
    # the flow's right-hand side is the memoized iterate's dtheta itself,
    # over (p, t_f) when t_f is free and over p alone otherwise
    import ocflow.evolution as evolution

    its, flows = [], []
    pipeline, flow = evolution.evaluate_iterate, evolution._flow

    def recording(*args, **kwargs):
        its.append(pipeline(*args, **kwargs))
        return its[-1]

    def spying(rhs, check, theta0, *args, **kwargs):
        flows.append(rhs)
        return flow(rhs, check, theta0, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterate", recording)
    monkeypatch.setattr(evolution, "_flow", spying)
    bp, s = (brach, 5) if free else (example1, 4)
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=s - 1)
    solve_evolution(EvolutionMode.form1(), bp.prob, par, bp.gains,
                    EvolutionState(p=np.full(s, 0.1), t_f=1.0 if free else 2.0),
                    StopCriteria(tau_max=2.0, record_every=1.0))
    last = its[-1]
    theta = np.append(last.p, last.t_f) if free else last.p
    assert last.dtheta.shape == (s + free,)
    assert flows[0](0.0, theta) is last.dtheta


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
    # the rows inside one accepted outer step are one pipeline pass; the trace
    # keeps tau = 0, 1, ..., 135 and stops at the row that converged, though
    # its pass also evaluated later rows of the same step
    import ocflow.evolution as evolution

    batches = _spy_batches(monkeypatch)
    single, singles = evolution.evaluate_iterate, []
    monkeypatch.setattr(evolution, "evaluate_iterate",
                        lambda *args, **kw: singles.append(args[4]) or single(*args, **kw))
    report, trace, bundle = solve_evolution(
        EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
        EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria(tau_max=300.0))
    np.testing.assert_array_equal(trace.taus(), np.arange(136.0))
    assert report.converged and report.tau_reached == 135.0
    assert len(batches) >= 10 and max(map(len, batches)) >= 20
    last = batches[-1]
    at = [i for i, p in enumerate(last) if np.array_equal(p, report.p_final)]
    assert at and at[0] < len(last) - 1, "the stop should fall inside a batch"
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
    # as if a lane after the converged row failed: the rows are evaluated
    # again one at a time up to the converged one, so neither the failure
    # nor a warning reaches the caller, and the trace is the batched one
    import warnings

    import ocflow.evolution as evolution
    from ocflow import DivergenceError

    batch, single, singles = evolution.evaluate_iterates, evolution.evaluate_iterate, []

    def failing(mode, prob, par, gains, P, *args, **kwargs):
        its = batch(mode, prob, par, gains, P, *args, **kwargs)
        if failure == "raise":
            raise DivergenceError("non-finite right-hand side", time=1.0)
        warnings.warn("||pi|| exceeds bound", MultiplierBoundWarning)
        return its

    def one(mode, prob, par, gains, p, *args, **kwargs):
        singles.append(np.array(p))
        return single(mode, prob, par, gains, p, *args, **kwargs)

    monkeypatch.setattr(evolution, "evaluate_iterates", failing)
    monkeypatch.setattr(evolution, "evaluate_iterate", one)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        report, trace, _ = solve_evolution(
            EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
            EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria(tau_max=300.0))
    assert not seen
    batched_report, batched_trace, _, _ = e1_form1_solve
    np.testing.assert_array_equal(trace.taus(), batched_trace.taus())
    assert report.converged and np.array_equal(report.p_final, batched_report.p_final)
    np.testing.assert_allclose(trace.column("residual_norm"),
                               batched_trace.column("residual_norm"), rtol=0, atol=1e-12)
    assert any(np.array_equal(p, report.p_final) for p in singles)


def test_gradient_flow_generic_takes_the_rows_of_a_step_together(monkeypatch):
    # a fine record grid puts many rows in one step; the shared flow loop
    # still stops at the first converged row, at the KKT point
    import ocflow.evolution as evolution

    sizes, flow = [], evolution._flow

    def spying(rhs, rows, theta0, *args, **kwargs):
        def counted(taus, thetas):
            sizes.append(len(taus))
            return rows(taus, thetas)
        return flow(rhs, counted, theta0, *args, **kwargs)

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


@pytest.mark.parametrize("field", ["tau_max", "tol_opt", "tol_feas", "record_every",
                                   "c1", "pi_bound"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stop_criteria_must_be_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        StopCriteria(**{field: bad})
