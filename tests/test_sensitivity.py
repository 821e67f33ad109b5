import dataclasses

import numpy as np
import pytest

from ocflow import (ConfigurationError, DenseTrajectory, DivergenceError, OdeSettings,
                    QuadratureSpec, RankError, ThetaQuantities, assemble_form1,
                    assemble_form2, make_basis, nlp_gradients, simulate_control,
                    solve_adjoints, solve_state)
from ocflow.sensitivity import spd_solve

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
    return solve_adjoints(prob, par, p, x, t_f)


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
        assert q2.r[s] == q1.tf_scalar
        np.testing.assert_array_equal(q2.Gamma[:s], q1.Gamma)
        np.testing.assert_array_equal(q2.Gamma[s], q1.tf_row)


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
        hi = simulate_control(prob, lambda t: par.eval(t, p + dp, 2.0), 2.0, TIGHT)[1]
        lo = simulate_control(prob, lambda t: par.eval(t, p - dp, 2.0), 2.0, TIGHT)[1]
        assert grads.r[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5)


def test_adjoint_replays_the_forward_steps(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(3).uniform(0.0, 1.0, par.s)
    b = bundle_at(brach.prob, par, p, 0.9)
    assert np.array_equal(b.adjoint_sol.t_grid, b.x_traj.t_grid)
    assert b.adjoint_sol.nrejected == 0
    with pytest.raises(ValueError):
        solve_adjoints(brach.prob, par, p, b.x_traj, 1.0)


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
    solve_adjoints(counted, par, p, x, 2.0)
    assert [len(v) for v in seen.values()] == [1, 1]
    assert seen["f_x"][0].size == 7 * (len(x.t_grid) - 1)
    assert lookups == []


def test_adjoint_per_point_callbacks_match_vectorized(brach):
    prob = brach.prob
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(5).uniform(0.0, 1.0, par.s)
    x = solve_state(prob, par, p, 0.9)
    vec = solve_adjoints(prob, par, p, x, 0.9).adjoint_sol
    per_point = dataclasses.replace(prob, vectorized=False)
    one = solve_adjoints(per_point, par, p, x, 0.9).adjoint_sol
    for a, b in ((vec.values, one.values), (vec.segments[4], one.segments[4])):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_adjoint_stage_times_stay_inside_their_subinterval(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(6).uniform(0.0, 1.0, par.s)
    t_f = 0.85
    x = solve_state(brach.prob, par, p, t_f)
    counted, seen = _counting(brach.prob, "f_x")
    solve_adjoints(counted, par, p, x, t_f)
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


def _poisoned(prob, name, t_bad, value):
    """A copy of prob whose callback ``name`` returns ``value`` at t = t_bad."""
    fn = getattr(prob, name)

    def poisoned(x, u, t):
        out = np.array(fn(x, u, t), dtype=float)
        out[np.asarray(t) == t_bad] = value
        return out
    return dataclasses.replace(prob, **{name: poisoned})


@pytest.mark.parametrize("name,value", [("f_x", np.nan), ("L_x", np.inf)])
def test_non_finite_adjoint_coefficient_fails_typed(e1, name, value):
    prob, _, par = e1
    p = np.array([1.0, -0.5, 0.3, 0.2])
    x = solve_state(prob, par, p, 2.0)
    counted, seen = _counting(prob, name)
    solve_adjoints(counted, par, p, x, 2.0)
    inside = np.setdiff1d(seen[name][0], x.t_grid)          # stage times off the nodes
    t_bad = inside[len(inside) // 2]
    with pytest.raises(DivergenceError, match="non-finite right-hand side") as err:
        solve_adjoints(_poisoned(prob, name, t_bad, value), par, p, x, 2.0)
    assert err.value.time == t_bad


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


@pytest.mark.parametrize("case, evaluations", [("example1", 44), ("brach_pwc20", 165)])
def test_state_solve_evaluation_count(example1, brach, case, evaluations):
    # f, L and the control run once per stage: 6 per accepted step, 1 at the
    # start of each smooth subinterval and 1 for the starting-step probe
    if case == "example1":
        bp, t_f = example1, 2.0
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
        p = np.array([-3.5, 3.0, 0.0, 0.0])
    else:
        bp, t_f = brach, 0.8165
        par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
        p = 1.4771 * t_f * (np.arange(20) + 0.5) / 20
    calls = {"f": 0, "L": 0, "u": 0}

    def counting(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    prob = dataclasses.replace(bp.prob, f=counting(bp.prob.f, "f"),
                               L=counting(bp.prob.L, "L"))
    scalar_fn = par.scalar_fn
    par = dataclasses.replace(par, scalar_fn=lambda p, t_f: counting(scalar_fn(p, t_f), "u"))
    sol = solve_state(prob, par, p, t_f)
    subintervals = par.breakpoints(t_f).size + 1
    assert calls["f"] == calls["L"] == calls["u"] == evaluations
    assert evaluations == 6 * (sol.nsteps + sol.nrejected) + subintervals + 1
