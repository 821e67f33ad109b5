import dataclasses

import numpy as np
import pytest

from ocflow import (DimensionError, EvolutionMode, Gains, OdeSettings, QuadratureSpec,
                    continuous_multiplier, costate, evaluate_iterate, integrate_ivp,
                    make_basis, optimality_residuals, reconstruct_costate,
                    solve_adjoints, solve_state)
from ocflow.sensitivity import _grid_data, _terminal_values, assemble_form1, spd_solve

TIGHT = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)


def test_costate_matches_analytic_solution(example1, e1_form1_solve):
    report, _, bundle, _ = e1_form1_solve
    ct = reconstruct_costate(example1.prob, bundle, report.pi_final)
    ts = np.linspace(0.0, 2.0, 201)
    lam = ct.lam_traj(ts)
    assert np.abs(lam[:, 0] - 3.0).max() <= 1e-3
    assert np.abs(lam[:, 1] - (3.5 - 3.0 * ts)).max() <= 1e-3
    np.testing.assert_allclose(ct.lam_traj(0.0), [3.0, 3.5], atol=1e-3)


def test_transversality_exact_by_construction(example1, e1_form1_solve):
    report, _, bundle, _ = e1_form1_solve
    prob = example1.prob
    ct = reconstruct_costate(prob, bundle, report.pi_final)
    lam_f = ct.lam_traj(2.0)
    x_f = bundle.x_at(2.0)
    expect = np.asarray(prob.phi_x(x_f, 2.0)) \
        + np.asarray(prob.g_x(x_f, 2.0)).T @ report.pi_final
    assert np.abs(lam_f - expect).max() <= 1e-14


def test_zero_multiplier_gives_mu(example1, e1_par):
    x = solve_state(example1.prob, e1_par, np.zeros(4), 2.0)
    b = solve_adjoints(example1.prob, e1_par, np.zeros(4), x, 2.0)
    ct = reconstruct_costate(example1.prob, b, np.zeros(2))
    ts = np.linspace(0.0, 2.0, 11)
    # phi = 0 and L_x = 0, so mu and hence lambda vanish identically
    np.testing.assert_allclose(ct.lam_traj(ts), np.zeros((11, 2)), atol=1e-12)
    assert np.array_equal(ct.lam_traj(ts), b.mu_psi_at(ts)[0])


def test_costate_dimension_check(example1, e1_form1_solve):
    _, _, bundle, _ = e1_form1_solve
    with pytest.raises(DimensionError):
        reconstruct_costate(example1.prob, bundle, np.zeros(3))


def test_costate_ode_residual(example1, e1_form1_solve):
    # derivative from the interpolant, tolerance 10x the inner tolerance
    report, _, bundle, _ = e1_form1_solve
    prob = example1.prob
    ct = reconstruct_costate(prob, bundle, report.pi_final)
    h = 1e-5
    for t in np.linspace(0.05, 1.95, 20):
        dlam = (ct.lam_traj(t + h) - ct.lam_traj(t - h)) / (2 * h)
        x = bundle.x_at(t)
        u = bundle.u_of_t(t)
        rhs = -(np.asarray(prob.f_x(x, u, t)).T @ ct.lam_traj(t)) \
            - np.asarray(prob.L_x(x, u, t))
        np.testing.assert_allclose(dlam, rhs, atol=1e-5)


def test_costate_agrees_with_backward_reintegration(example1, e1_form1_solve):
    # oracle: integrate the costate equation backward from the transversality
    # value, adaptively and forward in s = t_f - t, and compare against the
    # assembled lambda
    report, _, bundle, _ = e1_form1_solve
    prob = example1.prob
    ct = reconstruct_costate(prob, bundle, report.pi_final)
    x_f = bundle.x_at(2.0)
    lam_f = np.asarray(prob.phi_x(x_f, 2.0)) \
        + np.asarray(prob.g_x(x_f, 2.0)).T @ report.pi_final

    def rhs(s, lam):                    # d lambda/ds = f_x^T lambda + L_x at t = t_f - s
        t = 2.0 - s
        x = bundle.x_at(t)
        u = bundle.u_of_t(t)
        return np.asarray(prob.f_x(x, u, t)).T @ lam + np.asarray(prob.L_x(x, u, t))

    sol = integrate_ivp(rhs, lam_f, (0.0, 2.0), TIGHT)
    ts = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(ct.lam_traj(ts), sol(2.0 - ts), atol=1e-7)


def test_residuals_at_convergence(example1, e1_form1_solve):
    report, _, bundle, par = e1_form1_solve
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, par,
                          example1.gains, report.p_final, 2.0)
    res = optimality_residuals(example1.prob, par, it.quantities, it.bundle,
                               it.pi, it.g_val)
    assert np.linalg.norm(res.param_residual) <= 1e-3
    assert res.continuous_residual_sup <= 1e-3
    assert res.feasibility <= 1e-3


def test_residuals_at_zero_control(example1, e1_par):
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, e1_par,
                          example1.gains, np.zeros(4), 2.0)
    res = optimality_residuals(example1.prob, e1_par, it.quantities, it.bundle,
                               it.pi, it.g_val)
    assert res.param_residual[0] == pytest.approx(1.0, abs=1e-6)
    assert res.feasibility == pytest.approx(np.sqrt(10.0), abs=1e-8)


def test_step_approximation_cannot_null_continuous_residual(
        example1, brach, brach_case1, brach_case4):
    rep1, _, _, par1 = brach_case1
    rep4, _, _, par4 = brach_case4
    it1 = evaluate_iterate(EvolutionMode.form1(), brach.prob, par1, brach.gains,
                           rep1.p_final, rep1.tf_final)
    it4 = evaluate_iterate(EvolutionMode.form2(), brach.prob, par4, brach.gains,
                           rep4.p_final, rep4.tf_final)
    res1 = optimality_residuals(brach.prob, par1, it1.quantities, it1.bundle,
                                it1.pi, it1.g_val)
    res4 = optimality_residuals(brach.prob, par4, it4.quantities, it4.bundle,
                                it4.pi, it4.g_val)
    assert res4.continuous_residual_sup > res1.continuous_residual_sup


def test_continuous_multiplier_matches_parameterized_at_optimum(
        example1, e1_form1_solve):
    report, _, bundle, _ = e1_form1_solve
    g_val = np.asarray(example1.prob.g(bundle.x_at(2.0), 2.0))
    pi_c = continuous_multiplier(example1.prob, bundle, example1.gains, g_val)
    np.testing.assert_allclose(pi_c, [3.0, -2.5], atol=1e-3)
    np.testing.assert_allclose(pi_c, report.pi_final, atol=1e-3)


def test_continuous_multiplier_empty_when_unconstrained(lqr_like):
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
    gains = Gains.constant(K=0.1, m=1, q=0)
    x = solve_state(lqr_like, par, np.zeros(3), 2.0)
    b = solve_adjoints(lqr_like, par, np.zeros(3), x, 2.0)
    assert continuous_multiplier(lqr_like, b, gains, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("mode", [EvolutionMode.form1(), EvolutionMode.gradient_flow(0.5)],
                         ids=["form1", "gradient_flow"])
def test_unconstrained_iterate_runs_the_constrained_arithmetic(lqr_like, mode):
    # q = 0 takes the general formulas on empty axes, and they reduce exactly
    # (signed zeros aside) to the unconstrained ones: pi is empty, the
    # residual is r, the flow is -W r, lambda is mu and the basis-free
    # residual is p_u
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
    gains = Gains.constant(K=0.1, m=1, q=0)
    it = evaluate_iterate(mode, lqr_like, par, gains, np.array([0.3, -0.2, 0.1]), 2.0)
    r = it.quantities.r
    W_r = (0.5 * r if it.quantities.M is None
           else spd_solve(it.quantities.M, r[:, None], "M_p")[:, 0])
    assert it.pi.shape == (0,) and it.g_norm == 0.0
    np.testing.assert_array_equal(it.residual, r)
    np.testing.assert_array_equal(it.dtheta, -W_r)
    ts = np.linspace(0.0, 2.0, 33)
    lam = reconstruct_costate(lqr_like, it.bundle, it.pi).lam_traj(ts)
    np.testing.assert_array_equal(lam, it.bundle.mu_psi_at(ts)[0])
    quad = QuadratureSpec()
    quant = assemble_form1(lqr_like, par, it.bundle, gains, 2.0, quad)
    res = optimality_residuals(lqr_like, par, quant, it.bundle, it.pi, it.g_val, quad)
    np.testing.assert_array_equal(res.param_residual, quant.r)
    assert res.tf_residual == quant.tf_scalar and res.feasibility == 0.0
    pu = _grid_data(lqr_like, par, it.bundle, quad).pu
    assert res.continuous_residual_sup == np.linalg.norm(pu, axis=1).max()


def test_gram_identity_for_spanned_sensitivities(example1, e1_form1_solve):
    # cubic basis spans {2 - t, 1}: the projected and plain quadratic forms
    # of the constraint sensitivity coincide
    report, _, bundle, par = e1_form1_solve
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, par,
                          example1.gains, report.p_final, 2.0)
    q1 = it.quantities
    M2 = q1.Gamma.T @ np.linalg.solve(q1.M, q1.Gamma)
    M1 = 0.1 * np.array([[8 / 3, 2.0], [2.0, 2.0]])   # K * Gram{2-t, 1}
    np.testing.assert_allclose(M2, M1, atol=1e-6)


def test_costate_error_tracks_control_error(example1, e1_form1_solve):
    # along the trace, whenever the control error halves the costate error
    # must decrease as well
    report, trace, _, par = e1_form1_solve
    prob, gains = example1.prob, example1.gains
    oracle = example1.oracle
    ts = np.linspace(0.0, 2.0, 101)
    u_hat = 3.0 * ts - 3.5
    lam_hat = np.stack([np.full(101, 3.0), 3.5 - 3.0 * ts], axis=-1)

    errs = []
    for row in [r for r in trace.rows if r.tau in (0.0, 2.0, 5.0, 10.0, 20.0, 40.0)]:
        it = evaluate_iterate(EvolutionMode.form1(), prob, par, gains, row.p, 2.0)
        lam = reconstruct_costate(prob, it.bundle, it.pi).lam_traj(ts)
        du = np.abs(par.eval(ts, row.p, 2.0)[:, 0] - u_hat).max()
        dlam = np.abs(lam - lam_hat).max()
        errs.append((du, dlam))
    for (du0, dl0), (du1, dl1) in zip(errs[:-1], errs[1:]):
        if du1 <= 0.5 * du0:
            assert dl1 < dl0


def _assert_lambda_is_mu_plus_psi_pi(bundle, pi, lam_traj):
    sol = bundle.adjoint_sol
    mus, psis = bundle.mu_psi_at(sol.t_grid)
    assert np.array_equal(lam_traj.values, mus + psis @ pi)
    assert np.array_equal(lam_traj(sol.t_grid), mus + psis @ pi)
    # off-node: midpoints of every step plus points a quarter into each step
    ts = np.concatenate([sol.t_grid[:-1] + 0.5 * np.diff(sol.t_grid),
                         sol.t_grid[:-1] + 0.25 * np.diff(sol.t_grid)])
    mus, psis = bundle.mu_psi_at(ts)
    expect = mus + psis @ pi
    tol = 1e-14 * np.abs(expect).max()
    np.testing.assert_allclose(lam_traj(ts), expect, rtol=0, atol=tol)
    for t in ts[::7]:
        mu, psi = bundle.mu_psi_at(t)
        np.testing.assert_allclose(lam_traj(t), mu + psi @ pi, rtol=0, atol=tol)


def test_costate_is_mu_plus_psi_pi_off_nodes(example1, e1_form1_solve, brach):
    report, _, bundle, _ = e1_form1_solve
    ct = reconstruct_costate(example1.prob, bundle, report.pi_final)
    _assert_lambda_is_mu_plus_psi_pi(bundle, report.pi_final, ct.lam_traj)

    # Brachistochrone, step control with 20 segments: q = 2 and breakpoints
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.linspace(0.2, 1.2, par.s)
    it = evaluate_iterate(EvolutionMode.form2(), brach.prob, par, brach.gains, p, 0.9)
    assert brach.prob.q == 2
    ct = reconstruct_costate(brach.prob, it.bundle, it.pi)
    _assert_lambda_is_mu_plus_psi_pi(it.bundle, it.pi, ct.lam_traj)


def test_continuous_multiplier_per_point_callbacks_match_vectorized(example1, e1_par):
    # the same problem evaluated point by point (vectorized=False)
    prob = example1.prob
    per_point = dataclasses.replace(prob, vectorized=False)
    it = evaluate_iterate(EvolutionMode.form1(), prob, e1_par, example1.gains,
                          np.array([-3.0, 2.0, 0.5, -0.1]), 2.0)
    pi_vec = continuous_multiplier(prob, it.bundle, example1.gains, it.g_val)
    pi_pt = continuous_multiplier(per_point, it.bundle, example1.gains, it.g_val)
    assert pi_vec.shape == (2,)
    np.testing.assert_allclose(pi_pt, pi_vec, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", ["example1", "brach_form2_pwc20"])
def test_continuous_multiplier_system_matches_the_einsum_reference(
        case, example1, e1_par, brach, monkeypatch):
    # M_c and r_c are quadrature._gram products; they agree with the
    # four-operand einsums to rounding, the free-t_f terms included
    if case == "example1":
        bp, par, mode, p, t_f = example1, e1_par, EvolutionMode.form1(), \
            np.array([-3.0, 2.0, 0.5, -0.1]), 2.0
    else:
        bp, mode, t_f = brach, EvolutionMode.form2(), 0.85
        par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
        p = 0.03 + 0.06 * np.arange(20)
    prob, gains = bp.prob, bp.gains
    it = evaluate_iterate(mode, prob, par, gains, p, t_f)
    systems = []
    solve = costate.spd_solve
    monkeypatch.setattr(costate, "spd_solve",
                        lambda M, B, context: systems.append((M, B)) or solve(M, B, context))
    continuous_multiplier(prob, it.bundle, gains, it.g_val)
    (M_c, r_c), = systems
    gd = _grid_data(prob, par, it.bundle, QuadratureSpec())
    K = gains.K_at(gd.ts)
    M_ref = np.einsum("t,tmq,tmn,tnr->qr", gd.w, gd.fupsi, K, gd.fupsi)
    r_ref = np.einsum("t,tmq,tmn,tn->q", gd.w, gd.fupsi, K, gd.pu)
    if prob.tf_mode == "free":
        tf_scalar, tf_row = _terminal_values(prob, it.bundle)
        M_ref = M_ref + gains.k_tf * np.outer(tf_row, tf_row)
        r_ref = r_ref + gains.k_tf * tf_row * tf_scalar
    r_ref = r_ref - gains.K_g @ it.g_val
    for got, ref in ((M_c, M_ref), (r_c, r_ref)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
