import dataclasses
import warnings

import numpy as np
import pytest

from ocflow import (ConfigurationError, DenseTrajectory, DivergenceError, OcpProblem, OdeSettings,
                    Parameterization, QuadratureSpec, RankError, StepBudgetError, ThetaQuantities,
                    assemble_form1, assemble_form2, make_basis, nlp_gradients,
                    simulate_control, optimality_residuals, solve_adjoints, solve_state)
from ocflow.evolution import EvolutionMode, evaluate_iterate, evaluate_iterates
from ocflow.sensitivity import _terminal_values, spd_solve

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
    return solve_adjoints(prob, par, p, x)


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
    psi = b.mu_psi_at(ts)[1]
    expect = np.zeros((11, 2, 2))
    expect[:, 0, 0] = 1.0
    expect[:, 1, 0] = 2.0 - ts
    expect[:, 1, 1] = 1.0
    np.testing.assert_allclose(psi, expect, atol=1e-8)
    np.testing.assert_allclose(b.mu_psi_at(0.0)[1], [[1.0, 0.0], [2.0, 1.0]], atol=1e-8)


def test_adjoints_terminal_values_exact(e1):
    prob, _, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    np.testing.assert_array_equal(b.mu_psi_at(2.0)[0], np.zeros(2))
    np.testing.assert_array_equal(b.mu_psi_at(2.0)[1], np.eye(2))


def test_adjoints_empty_when_unconstrained(example1):
    prob = dataclasses.replace(
        example1.prob, q=0,
        g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 2)),
        g_t=lambda xf, tf: np.zeros(0))
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    assert b.mu_psi_at(1.0)[1].shape == (2, 0)


def test_assemble_form1_closed_forms(e1):
    prob, gains, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0, TIGHT)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    np.testing.assert_allclose(q1.M, MP_EXACT, atol=1e-6)
    np.testing.assert_allclose(q1.Gamma, GAMMA_EXACT, atol=1e-6)
    np.testing.assert_allclose(q1.r, np.zeros(4), atol=1e-12)


def test_form2_degenerates_when_tf_sensitivity_vanishes(brach):
    # piecewise-constant controls have zero t_f-sensitivity a.e., and a
    # form-1 basis none at all: the t_f column of theta is then exactly the
    # metric 1/k_tf and the terminal brackets, the p-blocks those of form 1
    prob, gains = brach.prob, brach.gains
    for par in (make_basis("piecewise_constant", m=1, t0=0.0, form="form2",
                           n_segments=4),
                make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)):
        rng = np.random.default_rng(8)
        p = rng.uniform(-0.3, 1.0, par.s)
        t_f = 1.1
        b = bundle_at(prob, par, p, t_f)
        q2 = assemble_form2(prob, par, b, gains, p, t_f, QuadratureSpec())
        q1 = assemble_form1(prob, par, b, gains, t_f, QuadratureSpec())
        s = par.s
        last = np.append(np.zeros(s), 1.0 / gains.k_tf)
        assert np.array_equal(q2.M[:s, :s], q1.M)
        assert np.array_equal(q2.M[s], last)
        assert np.array_equal(q2.M[:, s], last)
        np.testing.assert_array_equal(q2.r[:s], q1.r)
        h = _terminal_values(prob, b)
        tf_scalar, tf_row = h[..., 0], h[..., 1:]
        assert q2.r[s] == tf_scalar
        np.testing.assert_array_equal(q2.Gamma[:s], q1.Gamma)
        np.testing.assert_array_equal(q2.Gamma[s], tf_row)


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
        return simulate_control(prob, lambda t: par.eval(t, p, tfv), tfv, TIGHT)[1]

    def g_of(tfv):
        return simulate_control(prob, lambda t: par.eval(t, p, tfv), tfv, TIGHT)[2]

    dJ = (J_of(t_f + h) - J_of(t_f - h)) / (2 * h)
    assert q2.r[-1] == pytest.approx(dJ, rel=1e-3)
    dg = (g_of(t_f + h) - g_of(t_f - h)) / (2 * h)
    np.testing.assert_allclose(q2.Gamma[-1], dg, rtol=1e-3, atol=1e-6)


@pytest.mark.parametrize("kind", ["piecewise_constant", "piecewise_linear"])
@pytest.mark.parametrize("t_f", [0.8166, 1.0])
def test_piecewise_assembly_converges_at_simpson_order(brach, kind, t_f):
    # panels split exactly at the breakpoints and every panel endpoint sees
    # its own segment, so the form-2 assembly converges under panel
    # doubling at Simpson's order, or is exact to rounding throughout
    par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=20)
    k = np.arange(par.s)
    p = 0.06 * k + 0.02 * np.sin(k)
    b = bundle_at(brach.prob, par, p, t_f, TIGHT)

    def assembled(nodes):
        q = assemble_form2(brach.prob, par, b, brach.gains, p, t_f, QuadratureSpec(nodes))
        return np.concatenate([q.M.ravel(), q.r, q.Gamma.ravel()])

    ref = assembled(5121)
    errs = [np.abs(assembled(n) - ref).max() for n in (41, 81, 161, 321)]
    floor = 1e-13 * np.abs(ref).max()
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= floor or coarse / fine >= 8.0, errs     # order >= 3


def test_form2_requires_positive_k_tf(e1):
    # example1's gains leave k_tf = 0; the t_f column's metric is 1/k_tf
    prob, gains, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    with pytest.raises(ConfigurationError, match="k_tf"):
        assemble_form2(prob, par, b, gains, np.zeros(4), 2.0, QuadratureSpec())


def test_nlp_gradient_moments(e1):
    prob, _, par = e1
    p = np.array([1.0, 0.0, 0.0, 0.0])     # u = 1
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    grads = nlp_gradients(prob, par, b, p, 2.0, QuadratureSpec())
    np.testing.assert_allclose(grads.r[:4], [2.0, 2.0, 8 / 3, 4.0], atol=1e-6)


def test_nlp_gradient_zero_at_zero_control(e1):
    prob, _, par = e1
    b = bundle_at(prob, par, np.zeros(4), 2.0)
    grads = nlp_gradients(prob, par, b, np.zeros(4), 2.0, QuadratureSpec())
    np.testing.assert_allclose(grads.r[:4], np.zeros(4), atol=1e-12)


def test_nlp_gradients_are_the_form2_integrals(brach):
    # for a t_f-dependent basis too, the NLP gradients are form 2's
    # stationarity terms without the metric
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    p = np.random.default_rng(5).uniform(-0.2, 1.2, par.s)
    b = bundle_at(brach.prob, par, p, 1.05)
    grads = nlp_gradients(brach.prob, par, b, p, 1.05, QuadratureSpec())
    q2 = assemble_form2(brach.prob, par, b, brach.gains, p, 1.05, QuadratureSpec())
    assert isinstance(grads, ThetaQuantities) and isinstance(q2, ThetaQuantities)
    assert grads.M is None and q2.M.shape == (par.s + 1, par.s + 1)
    assert np.array_equal(grads.r, q2.r)
    assert np.array_equal(grads.Gamma.T, q2.Gamma.T)


def test_transposition_identity_bitwise(e1):
    prob, gains, par = e1
    rng = np.random.default_rng(12)
    p = rng.normal(size=4)
    b = bundle_at(prob, par, p, 2.0)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    grads = nlp_gradients(prob, par, b, p, 2.0, QuadratureSpec())
    assert isinstance(q1, ThetaQuantities) and isinstance(grads, ThetaQuantities)
    assert q1.M.shape == (4, 4) and grads.M is None
    assert np.array_equal(grads.Gamma.T[:, :4], q1.Gamma.T)
    assert np.array_equal(grads.r[:4], q1.r)


@pytest.mark.parametrize("assemble", ["form1", "form2", "nlp"])
def test_assembly_refuses_another_iterate(brach, assemble):
    # the integrals come from the bundle, so a p or t_f it does not hold is refused
    prob, gains = brach.prob, brach.gains
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    p = np.linspace(0.1, 0.9, par.s)
    b = bundle_at(prob, par, p, 1.0)
    quad = QuadratureSpec()
    call = {"form1": lambda p_, t_f: assemble_form1(prob, par, b, gains, t_f, quad),
            "form2": lambda p_, t_f: assemble_form2(prob, par, b, gains, p_, t_f, quad),
            "nlp": lambda p_, t_f: nlp_gradients(prob, par, b, p_, t_f, quad)}[assemble]
    assert isinstance(call(p.copy(), 1.0), ThetaQuantities)
    with pytest.raises(ValueError, match="not the bundle's iterate"):
        call(p, 7.0)
    if assemble != "form1":
        with pytest.raises(ValueError, match="not the bundle's iterate"):
            call(p + 0.1, 1.0)


def test_adjoint_directional_derivative(e1):
    # r_1p predicts the simulated directional derivative of J
    prob, gains, par = e1
    rng = np.random.default_rng(21)
    p = rng.normal(size=4)
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    q1 = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec())
    dp = rng.normal(size=4)
    h = 1e-5
    J_hi = simulate_control(prob, lambda t: par.eval(t, p + h * dp, 2.0), 2.0, TIGHT)[1]
    J_lo = simulate_control(prob, lambda t: par.eval(t, p - h * dp, 2.0), 2.0, TIGHT)[1]
    fd = (J_hi - J_lo) / (2 * h)
    assert float(q1.r @ dp) == pytest.approx(fd, rel=1e-3)


@pytest.mark.parametrize("problem_fixture,kind,form,size,tf_range,p_scale", [
    ("example1", "global_polynomial", "form1", 3, None, 2.0),
    ("brach", "global_polynomial", "form1", 4, (0.8, 1.2), 0.8),
    ("brach", "lagrange_nodes", "form2", 4, (0.8, 1.2), 0.8),
], ids=["example1-3-None-2.0", "brach-4-tf_range1-0.8", "brach-lagrange_nodes-form2-4"])
def test_gradients_match_finite_differences(request, problem_fixture, kind, form,
                                            size, tf_range, p_scale):
    bp = request.getfixturevalue(problem_fixture)
    prob = bp.prob
    # size is the polynomial order or the number of node segments
    par = make_basis(kind, m=1, t0=prob.t0, form=form, order=size, n_segments=size)
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = rng.uniform(-p_scale, p_scale, par.s)
        t_f = prob.tf_fixed if tf_range is None else rng.uniform(*tf_range)
        b = bundle_at(prob, par, p, t_f, TIGHT)
        grads = nlp_gradients(prob, par, b, p, t_f, QuadratureSpec())
        h = 1e-4

        def J_of(pv, tfv):
            return simulate_control(prob, lambda t: par.eval(t, pv, tfv), tfv, TIGHT)[1]

        def g_of(pv, tfv):
            return simulate_control(prob, lambda t: par.eval(t, pv, tfv), tfv, TIGHT)[2]

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
        assert np.abs(grads.r - fd_f).max() / scale_f < 1e-3
        scale_g = max(1.0, np.abs(fd_g).max())
        assert np.abs(grads.Gamma.T - fd_g).max() / scale_g < 1e-3


def test_quadrature_converged_for_covered_degree(e1):
    # order-1 basis: every integrand is a polynomial Simpson integrates exactly
    prob, gains, _ = e1
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=1)
    p = np.array([0.7, -0.4])
    b = bundle_at(prob, par, p, 2.0, TIGHT)
    q_lo = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec(nodes=201))
    q_hi = assemble_form1(prob, par, b, gains, 2.0, QuadratureSpec(nodes=401))
    assert np.abs(q_lo.M - q_hi.M).max() < 1e-8
    assert np.abs(q_lo.r - q_hi.r).max() < 1e-8
    assert np.abs(q_lo.Gamma - q_hi.Gamma).max() < 1e-8


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
        u = par.eval(t, p, 2.0)
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
        hi = simulate_control(prob, lambda t: par.eval(t, p + dp, 2.0), 2.0, TIGHT)[1]
        lo = simulate_control(prob, lambda t: par.eval(t, p - dp, 2.0), 2.0, TIGHT)[1]
        assert grads.r[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5)


def test_adjoint_replays_the_forward_steps(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(3).uniform(0.0, 1.0, par.s)
    b = bundle_at(brach.prob, par, p, 0.9)
    assert np.array_equal(b.adjoint_sol.t_grid, b.x_traj.t_grid)
    assert b.adjoint_sol.nrejected == 0
    # the trajectory owns the horizon; one that does not start at t0 is refused
    with pytest.raises(ValueError, match="must start at t0"):
        solve_adjoints(dataclasses.replace(brach.prob, t0=0.1), par, p, b.x_traj)


def test_bundle_reads_its_horizon_off_the_trajectory(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(4).uniform(0.0, 1.0, par.s)
    b = bundle_at(brach.prob, par, p, 0.9)
    for got, want in ((b.t0, b.x_traj.t_grid[0]), (b.t_f, b.x_traj.t_grid[-1])):
        assert np.float64(got).tobytes() == want.tobytes()
    assert (b.t0, b.t_f, b.n) == (0.0, 0.9, 3)
    assert [f.name for f in dataclasses.fields(b)] == ["x_traj", "adjoint_sol", "par", "p"]


def test_assembly_refuses_a_foreign_basis(brach):
    # the bundle was solved under piecewise-linear controls; a Lagrange basis of
    # the same size used to be mixed in without error
    prob, gains, quad = brach.prob, brach.gains, QuadratureSpec()
    lin = make_basis("piecewise_linear", m=1, t0=0.0, form="form2", n_segments=4)
    lag = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    assert lin.s == lag.s == 5
    p, t_f = np.linspace(0.2, 1.2, 5), 0.9
    b = bundle_at(prob, lin, p, t_f)
    quant = assemble_form2(prob, lin, b, gains, p, t_f, quad)
    pi, g_val = np.zeros(prob.q), prob.g(b.x_f, t_f)
    for call in (lambda par: assemble_form1(prob, par, b, gains, t_f, quad),
                 lambda par: assemble_form2(prob, par, b, gains, p, t_f, quad),
                 lambda par: nlp_gradients(prob, par, b, p, t_f, quad),
                 lambda par: optimality_residuals(prob, par, quant, b, pi, g_val, quad)):
        call(lin)
        with pytest.raises(ValueError, match="not the bundle's basis"):
            call(lag)


def _counting(prob, *names):
    """A copy of prob whose named callbacks record their t arguments."""
    seen = {name: [] for name in names}

    def wrap(name):
        fn = getattr(prob, name)

        def counted(x, u, t):
            seen[name].append(np.array(t, dtype=float))
            return fn(x, u, t)
        return counted
    return dataclasses.replace(prob, **{n: wrap(n) for n in names}), seen


def test_adjoint_evaluates_its_coefficients_in_one_batch(e1, monkeypatch):
    prob, _, par = e1
    p = np.array([1.0, -0.5, 0.3, 0.2])
    x = solve_state(prob, par, p, 2.0)
    counted, seen = _counting(prob, "f_x", "L_x")
    lookups = []
    lookup = DenseTrajectory.__call__
    monkeypatch.setattr(DenseTrajectory, "__call__",
                        lambda self, t: lookups.append(t) or lookup(self, t))
    solve_adjoints(counted, par, p, x)
    assert [len(v) for v in seen.values()] == [1, 1]
    # stages 0-5 of every step; stage 6 reuses stage 5's (t, x) and its rows
    assert seen["f_x"][0].size == 6 * (len(x.t_grid) - 1)
    assert lookups == []


def test_adjoint_per_point_callbacks_match_vectorized(brach):
    prob = brach.prob
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(5).uniform(0.0, 1.0, par.s)
    x = solve_state(prob, par, p, 0.9)
    vec = solve_adjoints(prob, par, p, x).adjoint_sol
    per_point = dataclasses.replace(prob, vectorized=False)
    one = solve_adjoints(per_point, par, p, x).adjoint_sol
    for a, b in ((vec.values, one.values), (vec.segments[4], one.segments[4])):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_adjoint_stage_times_stay_inside_their_subinterval(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(6).uniform(0.0, 1.0, par.s)
    t_f = 0.85
    x = solve_state(brach.prob, par, p, t_f)
    counted, seen = _counting(brach.prob, "f_x")
    solve_adjoints(counted, par, p, x)
    bounds = np.array([0.0, *par.breakpoints(t_f), t_f])
    ts = seen["f_x"][0]
    # a stage lies in its step's closed subinterval, so one strictly inside
    # some subinterval is strictly inside its own
    j = np.searchsorted(bounds, ts, side="right") - 1
    assert ((j >= 0) & (j < len(bounds) - 1)).all()
    assert ((bounds[j] < ts) & (ts < bounds[np.minimum(j + 1, len(bounds) - 1)])).all()


def test_gradients_at_default_tolerances_match_finite_differences(brach):
    prob = brach.prob
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
    rng = np.random.default_rng(17)
    h = 1e-4

    def Jg(pv, tfv):
        _, J, g = simulate_control(prob, par.bind(pv, tfv), tfv, TIGHT)
        return np.concatenate([[J], g])

    for _ in range(5):
        p = rng.uniform(-0.8, 0.8, par.s)
        t_f = rng.uniform(0.8, 1.2)
        grads = nlp_gradients(prob, par, bundle_at(prob, par, p, t_f), p, t_f,
                              QuadratureSpec())
        fd = np.empty((1 + prob.q, par.s + 1))
        for i in range(par.s):
            dp = np.zeros(par.s)
            dp[i] = h
            fd[:, i] = (Jg(p + dp, t_f) - Jg(p - dp, t_f)) / (2 * h)
        fd[:, -1] = (Jg(p, t_f + h) - Jg(p, t_f - h)) / (2 * h)
        adjoint = np.vstack([grads.r, grads.Gamma.T])
        assert np.abs(adjoint - fd).max() <= 1e-5 * np.abs(fd).max()


def _decay_gradient(lam, ode=None, nodes=201):
    """x' = -lam x + u, x(0) = 1, J = x(2), at a cubic p = 0: its bundle, its
    gradient r over the powers t^k and the exact r_k = int_0^2 mu(t) t^k dt,
    mu(t) = exp(-lam (2 - t)), so max|mu| = 1."""
    prob = OcpProblem(
        n=1, m=1, q=0, t0=0.0, x0=np.ones(1), tf_mode="fixed", tf_fixed=2.0,
        f=lambda x, u, t: -lam * np.asarray(x, float) + np.asarray(u, float),
        f_x=lambda x, u, t: np.full((*np.shape(t), 1, 1), -lam),
        f_u=lambda x, u, t: np.ones((*np.shape(t), 1, 1)),
        L=lambda x, u, t: np.zeros(np.shape(t)),
        L_x=lambda x, u, t: np.zeros((*np.shape(t), 1)),
        L_u=lambda x, u, t: np.zeros((*np.shape(t), 1)),
        phi=lambda xf, tf: np.asarray(xf, float)[..., 0],
        phi_x=lambda xf, tf: np.ones(1),
        phi_t=lambda xf, tf: 0.0,
        g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 1)),
        g_t=lambda xf, tf: np.zeros(0),
        vectorized=True)
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    p = np.zeros(par.s)
    bundle = bundle_at(prob, par, p, 2.0, ode)
    r = nlp_gradients(prob, par, bundle, p, 2.0, QuadratureSpec(nodes), with_tf=False).r
    exact = [(1.0 - np.exp(-2.0 * lam)) / lam]       # by parts: r_k = (2^k - k r_(k-1)) / lam
    for k in range(1, par.s):
        exact.append((2.0 ** k - k * exact[-1]) / lam)
    return bundle, r, np.array(exact)


def test_the_adjoint_of_a_stiff_inner_problem_stays_stable():
    # the replay has no error control of its own; it cuts the forward steps
    # where |h| lam exceeds 0.8 * 3.3, inside the region where the replayed
    # Dormand-Prince propagator does not amplify.  Replayed uncut, the steps
    # reach h lam ~ 4.2, and here the gradient is off by about 74 % and
    # max|mu| near 14
    bundle, r, exact = _decay_gradient(50.0, OdeSettings(rel_tol=1e-6, abs_tol=1e-9))
    assert np.abs(r - exact).max() <= 0.02 * np.abs(exact).max()
    mu, _ = bundle.mu_psi_at(np.linspace(0.0, 2.0, 4001))
    assert np.abs(mu).max() <= 1.0 + 1e-12


def test_the_replay_of_a_vanished_stiff_state_stays_bounded():
    # at lam = 1000 the forward state decays to exactly 0, so no estimate
    # from the state sees the stiffness; cut for its own coefficient, the
    # replay keeps max|mu| at 1 (1.2e3 when a state-based cap held the
    # forward steps) and the gradient within 1 % on 2001 nodes (5e4 % off)
    bundle, r, exact = _decay_gradient(1000.0, nodes=2001)
    assert np.abs(r - exact).max() <= 0.01 * np.abs(exact).max()
    mu, _ = bundle.mu_psi_at(np.linspace(0.0, 2.0, 4001))
    assert np.abs(mu).max() <= 1.0 + 1e-12
    # one search serves x and the replay: x on the replay's finer grid
    assert np.array_equal(bundle.x_traj.t_grid, bundle.adjoint_sol.t_grid)
    assert bundle.adjoint_sol.t_grid.size > bundle.x_traj.nsteps + 1


def test_the_stiff_replay_gradient_converges_with_the_grid():
    # at lam = 200, default tolerances, what the gradient misses on 2001
    # nodes is the grid's: within 0.05 % (0.38 % on the forward steps uncut)
    _, r, exact = _decay_gradient(200.0, nodes=2001)
    assert np.abs(r - exact).max() <= 0.0005 * np.abs(exact).max()


def _poisoned(prob, name, t_bad, value):
    """A copy of prob whose callback ``name`` returns ``value`` at t = t_bad."""
    fn = getattr(prob, name)

    def poisoned(x, u, t):
        out = np.array(fn(x, u, t), dtype=float)
        out[np.asarray(t) == t_bad] = value
        return out
    return dataclasses.replace(prob, **{name: poisoned})


@pytest.mark.parametrize("name,value", [("f_x", np.nan), ("f_x", np.inf), ("L_x", np.inf)])
def test_non_finite_adjoint_coefficient_fails_typed(e1, name, value):
    # a non-finite coefficient cuts no step, so the replay meets it where it is
    prob, _, par = e1
    p = np.array([1.0, -0.5, 0.3, 0.2])
    x = solve_state(prob, par, p, 2.0)
    counted, seen = _counting(prob, name)
    solve_adjoints(counted, par, p, x)
    inside = np.setdiff1d(seen[name][0], x.t_grid)          # stage times off the nodes
    t_bad = inside[len(inside) // 2]
    with pytest.raises(DivergenceError, match="non-finite right-hand side") as err:
        solve_adjoints(_poisoned(prob, name, t_bad, value), par, p, x)
    assert err.value.time == t_bad


def test_a_huge_adjoint_coefficient_exceeds_the_replay_budget_typed(e1):
    # f_x = 1e300 at one stage asks for some 1e299 replay steps there: the
    # forward solve's step budget refuses them at that step's end, before
    # any cut is made, with no overflow or cast warning on the way
    prob, _, par = e1
    p = np.array([1.0, -0.5, 0.3, 0.2])
    x = solve_state(prob, par, p, 2.0)
    counted, seen = _counting(prob, "f_x")
    solve_adjoints(counted, par, p, x)
    inside = np.setdiff1d(seen["f_x"][0], x.t_grid)
    t_bad = inside[len(inside) // 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepBudgetError, match="max_steps = 100000") as err:
            solve_adjoints(_poisoned(prob, "f_x", t_bad, 1e300), par, p, x)
    assert err.value.time == x.t_grid[x.t_grid > t_bad][0]


def test_spd_solve_matches_dense_solve():
    B = np.column_stack([np.arange(4.0), GAMMA_EXACT])
    np.testing.assert_allclose(spd_solve(MP_EXACT, B, "M_p"),
                               np.linalg.solve(MP_EXACT, B), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(spd_solve(MP_EXACT, B[:, 0], "M_p"),
                               np.linalg.solve(MP_EXACT, B[:, 0]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spd_solve_rejects_non_finite_systems(bad):
    M_bad = MP_EXACT.copy()
    M_bad[1, 2] = M_bad[2, 1] = bad
    with pytest.raises(RankError, match="non-finite"):
        spd_solve(M_bad, np.ones(4), "M_p")
    with pytest.raises(RankError, match="non-finite"):
        spd_solve(MP_EXACT, np.array([1.0, bad, 0.0, 0.0]), "M_p")


def test_spd_solve_rejects_indefinite_and_singular_matrices():
    with pytest.raises(RankError, match="not positive-definite"):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2), "M")
    # one rounding step from singular: the Cholesky factor exists, with a
    # last pivot of eps
    eps = np.finfo(float).eps
    with pytest.raises(RankError, match="numerically singular"):
        spd_solve(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]), np.ones(2), "M")
    spd_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]), np.ones(2), "M")


@pytest.mark.parametrize("case, evaluations", [("example1", 20), ("brach_pwc20", 165),
                                               ("brach_lagrange4", 188)])
def test_state_solve_evaluation_count(monkeypatch, example1, brach, case, evaluations):
    # f and L run once per stage: 6 per step attempt, 1 at the start of each
    # smooth subinterval and 1 for the starting-step probe.  The control runs
    # once per attempt, at its 6 stage times, and at the first start and the
    # probe, single points; a restart's stage 0 joins its first attempt's 7
    if case == "example1":
        bp, t_f = example1, 2.0
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
        p = np.array([-3.5, 3.0, 0.0, 0.0])
    elif case == "brach_pwc20":
        bp, t_f = brach, 0.8165
        par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
        p = 1.4771 * t_f * (np.arange(20) + 0.5) / 20
    else:                               # 29 steps and 2 rejected attempts
        bp, t_f = brach, 0.8165
        par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
        p = np.random.default_rng(1).uniform(-3.0, 3.0, 5)
    calls = {"f": 0, "L": 0}
    sizes = []                          # the number of times of each control evaluation

    def counting(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    def spying(u):
        def wrapped(t):
            sizes.append(np.size(t))
            return u(t)
        return wrapped

    prob = dataclasses.replace(bp.prob, f=counting(bp.prob.f, "f"),
                               L=counting(bp.prob.L, "L"))
    bind = Parameterization.bind
    monkeypatch.setattr(Parameterization, "bind",
                        lambda self, p, t_f=None: spying(bind(self, p, t_f)))
    sol = solve_state(prob, par, p, t_f)
    attempts = sol.nsteps + sol.nrejected
    subintervals = par.breakpoints(t_f).size + 1
    assert calls["f"] == calls["L"] == evaluations
    assert evaluations == 6 * attempts + subintervals + 1
    restarts = subintervals - 1
    assert sorted(sizes) == [1, 1] + [6] * (attempts - restarts) + [7] * restarts


def test_state_solve_first_step_ignores_the_running_cost(e1):
    # the cost channel starts at 0, where its scale is abs_tol alone: the
    # first step comes from the state channels, of each lane, so a running
    # cost 1e6 times larger leaves it unchanged
    prob, _, par = e1
    big = dataclasses.replace(prob, L=lambda x, u, t: 1e6 * prob.L(x, u, t))
    P = np.array([[-3.5, 3.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.0]])
    for p in (P[0], P[1], P):
        first = [solve_state(pr, par, p, 2.0).t_grid[1] for pr in (prob, big)]
        assert first[0] == first[1]
    # a lane pass starts from its smallest lane's step
    firsts = [solve_state(prob, par, p, 2.0).t_grid[1] for p in P]
    assert solve_state(prob, par, P, 2.0).t_grid[1] == min(firsts) < max(firsts)


def test_example1_state_solve_at_the_optimum_takes_three_steps(e1):
    # the state and the cost integral are cubics in t, which both orders of
    # the pair integrate exactly, so each step grows by the controller's limit
    prob, _, par = e1
    sol = solve_state(prob, par, np.array([-3.5, 3.0, 0.0, 0.0]), 2.0)
    assert (sol.nsteps, sol.nrejected) == (3, 0)
    assert abs(sol.values[-1, 2] - 3.25) <= 1e-12
    assert np.abs(sol.values[-1, :2]).max() <= 1e-12


def test_state_solve_of_a_slow_start_stays_in_the_control_domain(e1):
    # the state's norms alone ask for a first step of 100 over a horizon of
    # 2; the probe of the right-hand side is clamped to the horizon, where
    # the control is defined
    prob, _, par = e1
    slow = dataclasses.replace(prob, x0=np.array([1.0, 1e-4]))
    sol = solve_state(slow, par, np.zeros(4), 2.0)
    np.testing.assert_allclose(sol.values[-1], [1.0002, 1e-4, 0.0], rtol=1e-12)


def test_brach_pwc20_state_solve_keeps_its_steps(monkeypatch, brach):
    # the Brachistochrone starts at rest, so Hairer's zero-state branch sets
    # the first step whether or not the cost channel enters its estimate
    import ocflow.problem as problem

    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p, t_f = 1.4771 * 0.8165 * (np.arange(20) + 0.5) / 20, 0.8165
    sol = solve_state(brach.prob, par, p, t_f)
    integrate_ivp = problem.integrate_ivp
    monkeypatch.setattr(problem, "integrate_ivp",
                        lambda *a, _quadrature, **k: integrate_ivp(*a, **k))
    every_channel = solve_state(brach.prob, par, p, t_f)
    assert sol.nsteps == every_channel.nsteps == 24
    np.testing.assert_array_equal(sol.t_grid, every_channel.t_grid)
    np.testing.assert_array_equal(sol.values, every_channel.values)


def test_grid_memo_keys_and_read_only_arrays(e1, brach):
    # the grid (Simpson points and weights, U_p, the weighted w U_p, K^-1 and
    # the Gram matrix G_pp of U_p) of one t_f is built once and shared,
    # read-only; a new t_f, quadrature, basis or gains builds it afresh
    from ocflow import sensitivity

    _, gains, par = e1
    quad = QuadratureSpec(41)
    first = sensitivity._grid(par, 0.0, 2.0, quad, gains)
    assert all(a is b for a, b in zip(sensitivity._grid(par, 0.0, 2.0, QuadratureSpec(41),
                                                          gains), first))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    twin = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    for args in ((par, 0.0, 1.5, quad, gains), (par, 0.0, 2.0, QuadratureSpec(61), gains),
                 (twin, 0.0, 2.0, quad, gains), (par, 0.0, 2.0, quad, brach.gains),
                 (par, 0.0, 2.0, quad, None)):
        fresh = sensitivity._grid(*args)
        assert not any(a is b for a, b in zip(fresh, first) if a is not None)
    ts, w, up, wup, kinv, G_pp = sensitivity._grid(par, 0.0, 1.5, quad, gains)
    assert ts[-1] < 1.5 and np.array_equal(up, par.jac_p(ts, 1.5))
    assert np.array_equal(wup, (w[:, None, None] * up).reshape(-1, 4))
    np.testing.assert_allclose(G_pp, np.einsum("t,tmi,tmn,tnj->ij", w, up, kinv, up),
                               rtol=1e-13)
    assert np.array_equal(G_pp, G_pp.T)
    assert sensitivity._grid(par, 0.0, 2.0, quad, None)[4:] == (None, None)


def test_a_certified_solve_reuses_its_pipelines_grid(monkeypatch, e1):
    # the certification's requests take no gains (the NLP gradients, the
    # basis-free multiplier, the residuals) and reuse the grid its gains
    # built, so a second pipeline and certification at the same t_f build none
    from ocflow import costate, sensitivity

    prob, gains, par = e1
    builds, simpson = [], sensitivity.simpson_points

    def counting(*args):
        builds.append(args[1])
        return simpson(*args)

    monkeypatch.setattr(sensitivity, "simpson_points", counting)
    p, quad = np.array([0.1, -0.2, 0.3, -0.4]), QuadratureSpec(41)
    for _ in range(2):
        it = evaluate_iterate(EvolutionMode.form1(), prob, par, gains, p, 2.0, quad=quad)
        bundle, g_val = it.bundle, it.g_val
        costate.continuous_multiplier(prob, bundle, gains, g_val, quad)
        nlp_gradients(prob, par, bundle, p, 2.0, quad, with_tf=False)
        optimality_residuals(prob, par, it.quantities, bundle, it.pi, g_val, quad)
        assert builds == [2.0]
    ts, w, up, wup, kinv, G_pp = sensitivity._grid(par, 0.0, 2.0, quad, gains)
    assert kinv is not None and G_pp is not None
    reused = sensitivity._grid(par, 0.0, 2.0, quad, None)
    assert all(a is b for a, b in zip(reused, (ts, w, up, wup))) and reused[4:] == (None, None)
    # gains other than the entry's build it afresh
    assert sensitivity._grid(par, 0.0, 2.0, quad, dataclasses.replace(gains))[0] is not ts
    assert builds == [2.0, 2.0]


def test_grid_data_of_a_memo_hit_evaluates_no_basis(e1):
    # a fixed-t_f lane pass reads u off the memoised U_p, so once the grid of
    # its t_f is built, _grid_data evaluates no basis function
    from ocflow import sensitivity

    prob, gains, par = e1
    calls = []

    def counting(ts, t_f):
        calls.append(ts.size)
        return values_fn(ts, t_f)

    values_fn, par = par.values_fn, dataclasses.replace(par, values_fn=counting)
    P = np.array([[-3.5, 3.0, 0.0, 0.0], [-3.0, 2.5, 0.1, 0.02], [0.1, -0.2, 0.3, -0.4]])
    bundle, quad = bundle_at(prob, par, P, 2.0), QuadratureSpec()
    first = sensitivity._grid_data(prob, bundle, quad, gains=gains)
    assert calls[-1] == first.ts.size                # the memo's one evaluation
    calls.clear()
    again = sensitivity._grid_data(prob, bundle, quad, gains=gains)
    assert calls == [] and again.U_p is first.U_p
    assert np.array_equal(again.pg, first.pg)


def test_lane_nlp_gradients_at_an_integer_terminal_time(e1):
    # an integer t_f reaches the t_f brackets' shared-time callbacks of a
    # problem that is not vectorized, and gives what the float t_f gives
    prob, _, par = e1
    prob = dataclasses.replace(prob, vectorized=False)
    P = np.array([[-3.5, 3.0, 0.0, 0.0], [-3.0, 2.5, 0.1, 0.02]])
    got = [nlp_gradients(prob, par, bundle_at(prob, par, P, t_f), P, t_f, QuadratureSpec(),
                         with_tf=True).rGamma for t_f in (2, 2.0)]
    assert got[0].shape == (2, par.s + 1, 1 + prob.q)
    assert np.array_equal(*got)


def test_fixed_terminal_time_pipelines_form_no_terminal_brackets(e1):
    # the brackets are formed only where theta holds t_f: example1 form 1,
    # one iterate or a pass of lanes, never calls phi_t or g_t
    prob, gains, par = e1
    spied = dataclasses.replace(prob, phi_t=lambda *a: pytest.fail("phi_t was called"),
                                g_t=lambda *a: pytest.fail("g_t was called"))
    p = np.array([-3.5, 3.0, 0.0, 0.0])
    it = evaluate_iterate(EvolutionMode.form1(), spied, par, gains, p, 2.0)
    one = evaluate_iterate(EvolutionMode.form1(), prob, par, gains, p, 2.0)
    assert np.array_equal(it.dtheta, one.dtheta)
    evaluate_iterates(EvolutionMode.form1(), spied, par, gains, np.stack([p, p + 0.1]), 2.0)
    assert vars(it.quantities).keys() == {"rGamma", "M"}


def test_free_terminal_time_pipeline_evaluates_phi_x_and_g_x_once(brach):
    # the replay's terminal block Y(t_f) = [phi_x | g_x^T] is the one source of
    # both: the t_f brackets read f^T Y(t_f) off it
    calls = {"phi_x": 0, "g_x": 0}

    def counting(name):
        fn = getattr(brach.prob, name)

        def counted(x_f, t_f):
            calls[name] += 1
            return fn(x_f, t_f)
        return counted

    prob = dataclasses.replace(brach.prob, **{name: counting(name) for name in calls})
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p, t_f = 0.03 + 0.06 * np.arange(20), 0.85
    it = evaluate_iterate(EvolutionMode.form2(), prob, par, brach.gains, p, t_f)
    assert calls == {"phi_x": 1, "g_x": 1}
    h = _terminal_values(prob, it.bundle)
    assert calls == {"phi_x": 1, "g_x": 1}
    assert it.quantities.rGamma.shape == (par.s + 1, 1 + prob.q) and h.shape == (1 + prob.q,)
    x_f, u_f = it.bundle.x_f, par.eval(t_f, p, t_f)
    f_f = brach.prob.f(x_f, u_f, t_f)
    want = np.append(brach.prob.phi_t(x_f, t_f) + brach.prob.phi_x(x_f, t_f) @ f_f
                     + brach.prob.L(x_f, u_f, t_f),
                     brach.prob.g_x(x_f, t_f) @ f_f + brach.prob.g_t(x_f, t_f))
    np.testing.assert_allclose(h, want, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("kind,form,size", [
    ("global_polynomial", "form1", 4), ("lagrange_nodes", "form2", 4),
    ("piecewise_linear", "form2", 6), ("piecewise_constant", "form2", 20)])
@pytest.mark.parametrize("lanes", [(), (3,)])
def test_grid_controls_are_the_basis_control(brach, monkeypatch, kind, form, size, lanes):
    # the grid's u is the contraction of the stored U_p, bit for bit par.eval there
    from ocflow import sensitivity

    sizes = {"order": size} if kind == "global_polynomial" else {"n_segments": size}
    par = make_basis(kind, m=1, t0=0.0, form=form, **sizes)
    P = 0.3 + 0.1 * np.random.default_rng(2).standard_normal((*lanes, par.s))
    bundle = bundle_at(brach.prob, par, P, 0.85)
    seen, batch_eval = {}, sensitivity._batch_eval

    def spying(prob, name, xs, us, ts):
        seen.setdefault(name, us)
        return batch_eval(prob, name, xs, us, ts)

    monkeypatch.setattr(sensitivity, "_batch_eval", spying)
    gd = sensitivity._grid_data(brach.prob, bundle, QuadratureSpec())
    assert seen["f_u"].shape == (*lanes, gd.ts.size, 1)
    assert np.array_equal(seen["f_u"], par.eval(gd.ts, P, 0.85))


# run in this process and, as a script, in a fresh one
_MEMO_CASES = """
import hashlib
import sys

import numpy as np

from ocflow import EvolutionMode, evaluate_iterate, make_basis, make_example1, make_example2


def case(name):
    if name == "form2":
        bp, mode, p = make_example2(), EvolutionMode.form2(), np.array([0.2, 0.6, 1.0, 1.3])
        par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=4)
    else:
        bp, mode = make_example1(), EvolutionMode.gradient_flow(0.1 * np.eye(4))
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
        p = np.array([-3.0, 2.5, 0.1, 0.0])
    return lambda t_f: evaluate_iterate(mode, bp.prob, par, bp.gains, p, t_f)


def digest(it):
    arrays = (it.dtheta, it.pi, it.J, it.residual, it.bundle.x_traj.values,
              it.bundle.adjoint_sol.values, *it.bundle.x_traj.segments,
              *it.bundle.adjoint_sol.segments)
    return hashlib.sha1(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


if __name__ == "__main__":
    print(digest(case(sys.argv[1])(float(sys.argv[2]))))
"""


@pytest.mark.parametrize("mode", ["form2", "gradient_flow"])
def test_pipeline_after_another_terminal_time_matches_a_fresh_process(mode):
    # the grid memo holds one t_f; evaluating at A, then B, then A again
    # gives what a process that never saw B gives, bit for bit
    import subprocess
    import sys

    cases = {"__name__": "memo_cases"}
    exec(_MEMO_CASES, cases)
    run, a, b = cases["case"](mode), 1.07, 0.93
    first, _, again = run(a), run(b), run(a)
    fresh = subprocess.run([sys.executable, "-c", _MEMO_CASES, mode, repr(a)],
                           capture_output=True, text=True, check=True).stdout.strip()
    assert cases["digest"](first) == cases["digest"](again) == fresh
