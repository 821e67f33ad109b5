import dataclasses

import numpy as np
import pytest

from ocflow import (ConfigurationError, OdeSettings, QuadratureSpec,
                    assemble_form1, assemble_form2, basis_gram, constraint_value,
                    make_basis, nlp_gradients, objective_value, solve_adjoints,
                    solve_state)

TIGHT = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)

MP_EXACT = 10.0 * np.array([[2, 2, 8 / 3, 4],
                            [2, 8 / 3, 4, 32 / 5],
                            [8 / 3, 4, 32 / 5, 32 / 3],
                            [4, 32 / 5, 32 / 3, 128 / 7]])
GAMMA_EXACT = np.array([[2.0, 2.0],
                        [4 / 3, 2.0],
                        [4 / 3, 8 / 3],
                        [8 / 5, 4.0]])


@pytest.fixture
def e1(example1):
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    return example1.prob, example1.gains, par


def bundle_at(prob, par, p, t_f, ode=None):
    x = solve_state(prob, par, p, t_f, ode)
    return solve_adjoints(prob, par, p, x, t_f, ode)


def test_state_solve_matches_analytic_trajectory(e1):
    prob, _, par = e1
    p = np.array([-3.5, 3.0, 0.0, 0.0])
    sol = solve_state(prob, par, p, 2.0)
    ts = np.linspace(0.0, 2.0, 21)
    x = sol(ts)[:, :2]
    np.testing.assert_allclose(x[:, 0], 0.5 * ts**3 - 1.75 * ts**2 + ts + 1.0,
                               atol=1e-5)
    np.testing.assert_allclose(x[:, 1], 1.5 * ts**2 - 3.5 * ts + 1.0, atol=1e-5)


def test_state_solve_zero_control(e1):
    prob, _, par = e1
    sol = solve_state(prob, par, np.zeros(4), 2.0)
    np.testing.assert_allclose(sol(2.0)[:2], [3.0, 1.0], atol=1e-9)


def test_state_solve_free_fall(brach):
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
    sol = solve_state(brach.prob, par, np.zeros(5), 1.0)
    np.testing.assert_allclose(sol(1.0)[:3], [0.0, -5.0, 10.0], atol=1e-8)


def test_adjoints_closed_form(e1):
    prob, _, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0, TIGHT)
    ts = np.linspace(0.0, 2.0, 11)
    # no terminal cost and no state-dependent running cost: mu vanishes
    np.testing.assert_allclose(b.mu_psi_at(ts)[0], np.zeros((11, 2)), atol=1e-10)
    # Psi(t) = [[1, 0], [2 - t, 1]]
    psi = b.psi_at(ts)
    expect = np.zeros((11, 2, 2))
    expect[:, 0, 0] = 1.0
    expect[:, 1, 0] = 2.0 - ts
    expect[:, 1, 1] = 1.0
    np.testing.assert_allclose(psi, expect, atol=1e-8)
    np.testing.assert_allclose(b.psi_at(0.0), [[1.0, 0.0], [2.0, 1.0]], atol=1e-8)


def test_adjoints_terminal_values_exact(e1):
    prob, _, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    np.testing.assert_array_equal(b.mu_psi_at(2.0)[0], np.zeros(2))
    np.testing.assert_array_equal(b.psi_at(2.0), np.eye(2))


def test_adjoints_empty_when_unconstrained(example1):
    prob = dataclasses.replace(
        example1.prob, q=0,
        g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 2)),
        g_t=lambda xf, tf: np.zeros(0))
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    assert b.psi_at(1.0).shape == (2, 0)


def test_assemble_form1_closed_forms(e1):
    prob, gains, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0, TIGHT)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    np.testing.assert_allclose(q1.M_p, MP_EXACT, atol=1e-6)
    np.testing.assert_allclose(q1.Gamma_1p, GAMMA_EXACT, atol=1e-6)
    np.testing.assert_allclose(q1.r_1p, np.zeros(4), atol=1e-12)


def test_basis_gram_matches_assembly(e1):
    prob, gains, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    M = basis_gram(par, gains, np.zeros(4), 2.0, QuadratureSpec())
    assert np.array_equal(M, q1.M_p)


def test_form2_degenerates_when_tf_sensitivity_vanishes(brach):
    # piecewise-constant controls have zero t_f-sensitivity a.e.
    prob, gains = brach.prob, brach.gains
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    rng = np.random.default_rng(8)
    p = rng.uniform(-0.3, 1.0, par.s)
    t_f = 1.1
    b = bundle_at(prob, par, p, t_f)
    q2 = assemble_form2(prob, par, b, gains, p, t_f, QuadratureSpec())
    q1 = assemble_form1(prob, par, b, gains, t_f, QuadratureSpec())
    s = par.s
    assert np.array_equal(q2.M_ptf[:s, :s], q1.M_p)
    np.testing.assert_allclose(q2.M_ptf[s, :s], np.zeros(s), atol=1e-15)
    assert q2.M_ptf[s, s] == pytest.approx(1.0 / gains.k_tf)
    np.testing.assert_array_equal(q2.r_2ptf[:s], q1.r_1p)
    assert q2.r_2ptf[s] == pytest.approx(q1.tf_scalar)
    np.testing.assert_array_equal(q2.Gamma_2ptf[:s], q1.Gamma_1p)
    np.testing.assert_allclose(q2.Gamma_2ptf[s], q1.tf_row, atol=1e-15)


def test_form2_terminal_row_matches_finite_differences(brach):
    prob, gains = brach.prob, brach.gains
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    rng = np.random.default_rng(4)
    p = rng.uniform(-0.2, 1.2, par.s)
    t_f = 1.05
    b = bundle_at(prob, par, p, t_f, TIGHT)
    q2 = assemble_form2(prob, par, b, gains, p, t_f, QuadratureSpec())
    h = 1e-5

    def J_of(tfv):
        return objective_value(prob, lambda t: par.eval(t, p, tfv), tfv, TIGHT)

    def g_of(tfv):
        return constraint_value(prob, lambda t: par.eval(t, p, tfv), tfv, TIGHT)

    dJ = (J_of(t_f + h) - J_of(t_f - h)) / (2 * h)
    assert q2.r_2ptf[-1] == pytest.approx(dJ, rel=1e-3)
    dg = (g_of(t_f + h) - g_of(t_f - h)) / (2 * h)
    np.testing.assert_allclose(q2.Gamma_2ptf[-1], dg, rtol=1e-3, atol=1e-6)


def test_form2_requires_form2_basis(e1, brach):
    prob, gains, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    with pytest.raises(ConfigurationError):
        assemble_form2(prob, par, b, gains, np.zeros(4), 2.0, QuadratureSpec())


def test_nlp_gradient_moments(e1):
    prob, _, par = e1
    p = np.array([1.0, 0.0, 0.0, 0.0])     # u = 1
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    grads = nlp_gradients(prob, par, b, p, 2.0, QuadratureSpec())
    np.testing.assert_allclose(grads.f_theta[:4], [2.0, 2.0, 8 / 3, 4.0], atol=1e-6)


def test_nlp_gradient_zero_at_zero_control(e1):
    prob, _, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    grads = nlp_gradients(prob, par, b, np.zeros(4), 2.0, QuadratureSpec())
    np.testing.assert_allclose(grads.f_theta[:4], np.zeros(4), atol=1e-12)


def test_nlp_gradients_require_form1(brach):
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    b = bundle_at(brach.prob, par, np.zeros(par.s), 1.0)
    with pytest.raises(ConfigurationError):
        nlp_gradients(brach.prob, par, b, np.zeros(par.s), 1.0, QuadratureSpec())


def test_transposition_identity_bitwise(e1):
    prob, gains, par = e1
    rng = np.random.default_rng(12)
    p = rng.normal(size=4)
    b = bundle_at(prob, par, p, 2.0)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    grads = nlp_gradients(prob, par, b, p, 2.0, QuadratureSpec())
    assert np.array_equal(grads.g_theta[:, :4], q1.Gamma_1p.T)
    assert np.array_equal(grads.f_theta[:4], q1.r_1p)


def test_adjoint_directional_derivative(e1):
    # r_1p predicts the simulated directional derivative of J
    prob, gains, par = e1
    rng = np.random.default_rng(21)
    p = rng.normal(size=4)
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    dp = rng.normal(size=4)
    h = 1e-5
    J_hi = objective_value(prob, lambda t: par.eval(t, p + h * dp, 2.0), 2.0, TIGHT)
    J_lo = objective_value(prob, lambda t: par.eval(t, p - h * dp, 2.0), 2.0, TIGHT)
    fd = (J_hi - J_lo) / (2 * h)
    assert float(q1.r_1p @ dp) == pytest.approx(fd, rel=1e-3)


@pytest.mark.parametrize("problem_fixture,order,tf_range,p_scale", [
    ("example1", 3, None, 2.0),
    ("brach", 4, (0.8, 1.2), 0.8),
])
def test_gradients_match_finite_differences(request, problem_fixture, order,
                                            tf_range, p_scale):
    bp = request.getfixturevalue(problem_fixture)
    prob = bp.prob
    par = make_basis("global_polynomial", m=1, t0=prob.t0, form="form1", order=order)
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = rng.uniform(-p_scale, p_scale, par.s)
        t_f = prob.tf_fixed if tf_range is None else rng.uniform(*tf_range)
        b = bundle_at(prob, par, p, t_f, TIGHT)
        grads = nlp_gradients(prob, par, b, p, t_f, QuadratureSpec())
        h = 1e-4

        def J_of(pv, tfv):
            return objective_value(prob, lambda t: par.eval(t, pv, tfv), tfv, TIGHT)

        def g_of(pv, tfv):
            return constraint_value(prob, lambda t: par.eval(t, pv, tfv), tfv, TIGHT)

        fd_f = np.empty(par.s + 1)
        fd_g = np.empty((prob.q, par.s + 1))
        for i in range(par.s):
            dp = np.zeros(par.s)
            dp[i] = h
            fd_f[i] = (J_of(p + dp, t_f) - J_of(p - dp, t_f)) / (2 * h)
            fd_g[:, i] = (g_of(p + dp, t_f) - g_of(p - dp, t_f)) / (2 * h)
        fd_f[-1] = (J_of(p, t_f + h) - J_of(p, t_f - h)) / (2 * h)
        fd_g[:, -1] = (g_of(p, t_f + h) - g_of(p, t_f - h)) / (2 * h)

        scale_f = max(1.0, np.abs(fd_f).max())
        assert np.abs(grads.f_theta - fd_f).max() / scale_f < 1e-3
        scale_g = max(1.0, np.abs(fd_g).max())
        assert np.abs(grads.g_theta - fd_g).max() / scale_g < 1e-3


def test_quadrature_converged_for_covered_degree(e1):
    # order-1 basis: every integrand is a polynomial Simpson integrates exactly
    prob, gains, _ = e1
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=1)
    p = np.array([0.7, -0.4])
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    q_lo = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec(nodes=201))
    q_hi = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec(nodes=401))
    assert np.abs(q_lo.M_p - q_hi.M_p).max() < 1e-8
    assert np.abs(q_lo.r_1p - q_hi.r_1p).max() < 1e-8
    assert np.abs(q_lo.Gamma_1p - q_hi.Gamma_1p).max() < 1e-8


def test_mu_satisfies_adjoint_equation_along_trajectory(lqr_like):
    # residual of mu' = -f_x^T mu - L_x, derivative from the dense interpolant;
    # uses the state-cost problem where mu is nontrivial
    prob = lqr_like
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
    rng = np.random.default_rng(9)
    p = rng.uniform(-1.0, 1.0, 3)
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    assert np.abs(b.mu_psi_at(0.0)[0]).max() > 0.1      # genuinely nontrivial
    np.testing.assert_array_equal(b.mu_psi_at(2.0)[0], prob.phi_x(b.x_at(2.0), 2.0))
    h = 1e-6
    for t in np.linspace(0.05, 1.95, 12):
        dmu = (b.mu_psi_at(t + h)[0] - b.mu_psi_at(t - h)[0]) / (2 * h)
        x = b.x_at(t)
        u = b.u_of_t(t)
        rhs = -(np.asarray(prob.f_x(x, u, t)).T @ b.mu_psi_at(t)[0]) \
            - np.asarray(prob.L_x(x, u, t))
        np.testing.assert_allclose(dmu, rhs, atol=1e-4)


def test_gradient_matches_fd_with_nontrivial_mu(lqr_like):
    # the cost adjoint feeds r_1p; a wrong mu would break this immediately
    prob = lqr_like
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=2)
    rng = np.random.default_rng(15)
    p = rng.uniform(-1.0, 1.0, 3)
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    grads = nlp_gradients(prob, par, b, p, 2.0, QuadratureSpec())
    h = 1e-5
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        hi = objective_value(prob, lambda t: par.eval(t, p + dp, 2.0), 2.0, TIGHT)
        lo = objective_value(prob, lambda t: par.eval(t, p - dp, 2.0), 2.0, TIGHT)
        assert grads.f_theta[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5)
