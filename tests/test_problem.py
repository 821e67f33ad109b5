import dataclasses
import re

import numpy as np
import pytest

from ocflow import (DerivativeMismatchError, DimensionError, DomainError, Gains,
                    OcpProblem, OdeSettings, SolveTrace, TraceRow, make_basis,
                    simulate_control, solve_state, validate_problem)
from ocflow.errors import ConfigurationError, _require_gain
from ocflow.problem import _batch_eval, _central_diff, _state_solution

TIGHT = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)


def test_validate_example1_derivatives_exact(example1):
    report = validate_problem(example1.prob, samples=10)
    assert report.max_error() < 1e-8   # linear dynamics, quadratic cost


def test_validate_brachistochrone(brach):
    report = validate_problem(brach.prob, samples=10)
    assert report.max_error() < 1e-4


def test_validate_catches_broken_jacobian(example1):
    # drop the coupling term from f_x
    bad = dataclasses.replace(example1.prob,
                              f_x=lambda x, u, t: np.zeros((2, 2)))
    with pytest.raises(DerivativeMismatchError, match="f_x"):
        validate_problem(bad, samples=3)


def test_validate_catches_dimension_mismatch(example1):
    bad = dataclasses.replace(example1.prob,
                              f=lambda x, u, t: np.zeros(3))
    with pytest.raises(DimensionError, match="f "):
        validate_problem(bad, samples=1)


def test_validate_requires_samples(example1):
    # a count: a bool or a fraction is refused as given, not run as 1 sample
    # or failed inside range()
    for bad in (0, 2.5, 2.0, True):
        with pytest.raises(ValueError, match=re.escape(
                f"samples must be an integer >= 1, got {bad!r}")):
            validate_problem(example1.prob, samples=bad)
    assert validate_problem(example1.prob, samples=np.int64(2)).max_error() < 1e-4


def test_central_diff_takes_its_points_one_by_one_or_in_one_batch():
    def fun(z):
        return np.array([np.sin(z[0]) * z[1], z[0] ** 3])

    z0 = np.array([0.3, -2.0])
    one = _central_diff(fun, z0)
    batch = _central_diff(lambda Z: np.stack([fun(z) for z in Z]), z0, batch=True)
    assert np.array_equal(one, batch)
    np.testing.assert_allclose(one, [[-2.0 * np.cos(0.3), np.sin(0.3)], [0.27, 0.0]],
                               rtol=1e-8, atol=1e-12)


def test_validate_unconstrained_problem(lqr_like):
    # q = 0: the terminal-constraint derivatives are empty but still audited
    assert validate_problem(lqr_like, samples=5).max_error() < 1e-6


def test_objective_zero_control(example1):
    J = simulate_control(example1.prob, lambda t: np.zeros(1), 2.0, TIGHT)[1]
    assert J == pytest.approx(0.0, abs=1e-12)


def test_objective_analytic_control(example1):
    # 1/2 int_0^2 (3t - 3.5)^2 dt = 6.5/2
    J = simulate_control(example1.prob, lambda t: np.array([3.0 * t - 3.5]),
                         2.0, TIGHT)[1]
    assert J == pytest.approx(3.25, abs=1e-9)


def test_objective_is_terminal_time_for_mayer_problem(brach):
    J = simulate_control(brach.prob, lambda t: np.array([0.3]), 1.0, TIGHT)[1]
    assert J == pytest.approx(1.0, abs=1e-12)


def test_constraint_zero_control(example1):
    g = simulate_control(example1.prob, lambda t: np.zeros(1), 2.0, TIGHT)[2]
    np.testing.assert_allclose(g, [3.0, 1.0], atol=1e-10)


def test_constraint_analytic_control(example1):
    g = simulate_control(example1.prob, lambda t: np.array([3.0 * t - 3.5]),
                         2.0, TIGHT)[2]
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-9)


def test_constraint_free_fall(brach):
    g = simulate_control(brach.prob, lambda t: np.zeros(1), 1.0, TIGHT)[2]
    np.testing.assert_allclose(g, [-2.0, -3.0], atol=1e-9)


def test_values_deterministic(example1):
    u = lambda t: np.array([np.sin(3.0 * t)])
    a = simulate_control(example1.prob, u, 2.0)[1]
    b = simulate_control(example1.prob, u, 2.0)[1]
    assert a == b
    ga = simulate_control(example1.prob, u, 2.0)[2]
    gb = simulate_control(example1.prob, u, 2.0)[2]
    assert np.array_equal(ga, gb)


def test_simulate_control_refuses_a_mis_shaped_control(example1):
    # example1 has m = 1: a (2,) control used to run with its extra entry
    # ignored, and a bare number to raise an IndexError; so is a control
    # whose shape changes along the horizon
    for u, shape in ((lambda t: np.array([0.5, 7.0]), (2,)), (lambda t: 0.5, ()),
                     (lambda t: np.ones((1, 1)), (1, 1)),
                     (lambda t: np.ones(1 + (t > 1.0)), (2,))):
        with pytest.raises(DimensionError, match=re.escape(
                f"u_of_t returned shape {shape}, expected (1,)")):
            simulate_control(example1.prob, u, 2.0)


def test_tolerance_tightening_self_consistent(example1):
    u = lambda t: np.array([np.sin(3.0 * t)])
    loose = OdeSettings(rel_tol=1e-3, abs_tol=1e-6)
    tight = OdeSettings(rel_tol=1e-4, abs_tol=1e-7)
    J_loose = simulate_control(example1.prob, u, 2.0, loose)[1]
    J_tight = simulate_control(example1.prob, u, 2.0, tight)[1]
    assert abs(J_loose - J_tight) < loose.rel_tol * abs(J_loose) + loose.abs_tol


def test_objective_requires_valid_horizon(example1):
    with pytest.raises(ValueError):
        simulate_control(example1.prob, lambda t: np.zeros(1), 0.0)[1]


def test_gains_validation():
    with pytest.raises(ConfigurationError):
        Gains.constant(K=-0.1, m=1, q=2)
    with pytest.raises(ConfigurationError):
        Gains.constant(K=0.1, m=1, q=2, K_g=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        Gains.constant(K=0.1, m=1, q=2, k_tf=-1.0)
    # wrongly shaped gains fail here, not in the first pipeline's matmul
    with pytest.raises(ConfigurationError, match="K_g"):
        Gains.constant(K=0.1, m=1, q=2, K_g=np.eye(3))
    with pytest.raises(ConfigurationError, match="K has shape"):
        Gains.constant(K=np.eye(2), m=1, q=2)
    g = Gains.constant(K=0.1, m=1, q=2, k_tf=0.1)
    np.testing.assert_allclose(g.K_inv_at(np.array([0.0, 1.0])),
                               10.0 * np.ones((2, 1, 1)))
    np.testing.assert_allclose(g.K_at(np.array([0.0])), 0.1 * np.ones((1, 1, 1)))


@pytest.mark.parametrize("kwargs, needle", [
    ({"K_g": np.array([[0.1, 0.0], [0.0, np.nan]])}, "K_g must be finite"),
    ({"K_g": np.array([[0.1, 0.2], [0.0, 0.1]])}, "K_g must be symmetric"),
    ({"K_g": -0.1 * np.eye(2)}, "K_g must be positive-definite"),
    ({"K_g": np.ones((2, 3))}, "K_g must be square"),
    ({"K_inv": -np.eye(1)}, "K_inv must be positive-definite"),
    ({"K_inv": np.array([[np.inf]])}, "K_inv must be finite"),
    ({"K_inv": np.array([[1.0, 2.0], [0.0, 1.0]])}, "K_inv must be symmetric"),
    ({"k_tf": -1.0}, "k_tf must be a finite number >= 0, got -1.0"),
    ({"k_tf": np.nan}, "k_tf must be a finite number >= 0, got nan"),
])
def test_bad_gains_are_refused_at_construction(kwargs, needle):
    # a directly built Gains checks itself, as Gains.constant's did; before,
    # these failed in the first pipeline as a RankError of some later system
    good = {"K_inv": 10.0 * np.eye(1), "k_tf": 0.1, "K_g": 0.1 * np.eye(2)}
    Gains(**good)
    with pytest.raises(ConfigurationError, match=needle):
        Gains(**{**good, **kwargs})


def test_constant_gains_take_an_ill_conditioned_weight():
    # inv(K) of this SPD K comes back asymmetric beyond an elementwise 1e-12;
    # Gains.constant symmetrizes K^-1, so any SPD K passes its checks
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    K = Q @ np.diag([1.0, 1e3, 1e6, 1e9]) @ Q.T
    K = 0.5 * (K + K.T)
    assert not np.allclose(np.linalg.inv(K), np.linalg.inv(K).T, rtol=1e-12, atol=1e-12)
    K_inv = Gains.constant(K=K, m=4, q=1).K_inv
    assert np.array_equal(K_inv, K_inv.T)
    np.testing.assert_allclose(K_inv @ K, np.eye(4), atol=1e-6)


def test_inverse_of_an_ill_conditioned_weight_is_symmetric_enough():
    # np.linalg.inv of an SPD K of condition 1e9 is asymmetric at rounding
    # level, 1.4e-11 of its largest entry: Gains and _require_gain, which
    # checks a callable K_inv at t0, take it; an asymmetry of 1e-6 of the
    # largest entry is refused
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    M = np.linalg.inv(Q @ np.diag([1.0, 1e3, 1e6, 1e9]) @ Q.T)
    asym, big = np.abs(M - M.T).max(), np.abs(M).max()
    assert 1e-11 < asym < 1e-10 * big
    assert Gains(K_inv=M, k_tf=0.0, K_g=0.1 * np.eye(2)).K_inv is not None
    assert _require_gain(M, "K_inv(t0)") is not None
    bad = M.copy()
    bad[0, 1] += 1e-6 * big
    with pytest.raises(ConfigurationError, match="K_inv must be symmetric"):
        Gains(K_inv=bad, k_tf=0.0, K_g=0.1 * np.eye(2))
    with pytest.raises(ConfigurationError, match=r"K_inv\(t0\) must be symmetric"):
        _require_gain(bad, "K_inv(t0)")


def test_problem_construction_guards(example1):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(example1.prob, tf_mode="sometimes")
    with pytest.raises(ConfigurationError):
        dataclasses.replace(example1.prob, tf_fixed=None)
    with pytest.raises(ConfigurationError, match="tf_fixed must exceed t0"):
        dataclasses.replace(example1.prob, tf_fixed=0.0)
    with pytest.raises(ConfigurationError, match="q must be"):
        dataclasses.replace(example1.prob, q=-1)
    with pytest.raises(DimensionError, match="x0"):
        dataclasses.replace(example1.prob, x0=np.zeros(3))
    # trace rows keep tau strictly increasing
    trace = SolveTrace()
    row = TraceRow(tau=1.0, p=np.zeros(4), t_f=2.0, pi=np.zeros(2), J=0.0, g_norm=0.0,
                   residual_norm=0.0, V=0.0)
    trace.append(row)
    with pytest.raises(ValueError, match="strictly increasing"):
        trace.append(dataclasses.replace(row, tau=1.0))


# every basis kind and form, with and without breakpoints in the span
STEP_CONTROL_BASES = [
    ("global_polynomial", {"order": 4}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form2"),
    ("piecewise_linear", {"n_segments": 6}, "form1"),
    ("piecewise_linear", {"n_segments": 6}, "form2"),
    ("piecewise_constant", {"n_segments": 20}, "form1"),
    ("piecewise_constant", {"n_segments": 20}, "form2"),
]


@pytest.mark.parametrize("kind,kwargs,form", STEP_CONTROL_BASES)
def test_state_solve_equals_a_per_point_control(brach, kind, kwargs, form):
    # the control of one step attempt is one array evaluation at its stage
    # times; each time's value is its own, so the solve is the one a control
    # evaluated point by point drives, bit for bit
    par = make_basis(kind, m=1, t0=0.0, form=form, **kwargs)
    p = np.random.default_rng(5).uniform(0.2, 1.4, par.s)
    t_f = 0.8165
    u = par.bind(p, t_f)
    sol = solve_state(brach.prob, par, p, t_f)
    ref, _, _ = simulate_control(brach.prob, lambda t: u(t), t_f,
                                 breakpoints=par.breakpoints(t_f))
    assert np.array_equal(sol.t_grid, ref.t_grid)
    assert np.array_equal(sol.values, ref.values)
    assert all(np.array_equal(a, b) for a, b in zip(sol.segments, ref.segments))
    assert (sol.nsteps, sol.nrejected) == (ref.nsteps, ref.nrejected)


def _two_input_problem() -> OcpProblem:
    """x' = A x + B u with two inputs, L = |u|^2 / 2 (vectorized)."""
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    B = np.array([[1.0, 0.5], [0.0, 1.0]])
    return OcpProblem(
        n=2, m=2, q=0, t0=0.0, x0=np.array([1.0, 0.0]), tf_mode="fixed", tf_fixed=2.0,
        f=lambda x, u, t: x @ A.T + u @ B.T, f_x=lambda x, u, t: A,
        f_u=lambda x, u, t: B, L=lambda x, u, t: 0.5 * (u * u).sum(axis=-1),
        L_x=lambda x, u, t: np.zeros(np.shape(x)), L_u=lambda x, u, t: u,
        phi=lambda xf, tf: 0.0, phi_x=lambda xf, tf: np.zeros(2),
        phi_t=lambda xf, tf: 0.0, g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 2)), g_t=lambda xf, tf: np.zeros(0),
        vectorized=True, name="two-input")


@pytest.mark.parametrize("kind,kwargs", [("global_polynomial", {"order": 3}),
                                         ("lagrange_nodes", {"n_segments": 4}),
                                         ("piecewise_linear", {"n_segments": 6})])
def test_two_input_stage_controls_match_the_per_point_values(kind, kwargs):
    # with m = 2 the block contraction of a step's stage times may round
    # apart from a one-point contraction, within the evaluators' tolerance
    prob = _two_input_problem()
    par = make_basis(kind, m=2, t0=0.0, form="form1", **kwargs)
    p = np.random.default_rng(6).normal(size=par.s)
    u, batches = par.bind(p, 2.0), []

    def spying(ts):                     # one lane's controls
        batches.append((ts.copy(), u(ts)))
        return u(ts)[None]
    sol, = _state_solution(prob, spying, 2.0, None, par.breakpoints(2.0), 1).lanes()
    ref, _, _ = simulate_control(prob, lambda t: u(t), 2.0, breakpoints=par.breakpoints(2.0))
    assert len(batches) == sol.nsteps + sol.nrejected + 2
    for ts, values in batches:
        one = np.array([u(t) for t in ts])
        scale = np.abs(one).max()
        np.testing.assert_allclose(values, one, rtol=1e-15, atol=1e-15 * scale)
    np.testing.assert_allclose(sol(ref.t_grid), ref.values, rtol=1e-12, atol=1e-12)


def test_state_solve_stage_times_outside_the_control_domain_fail_typed(example1):
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form1", n_segments=4)
    u = par.bind(np.ones(par.s), 1.0)
    # the solve runs to t = 2, past the control's domain [0, 1]
    with pytest.raises(DomainError, match="outside control domain"):
        _state_solution(example1.prob, lambda ts: u(ts)[None], 2.0, None,
                        par.breakpoints(1.0), 1)
    for ts in ([0.5, 1.5], [0.5, np.nan]):
        with pytest.raises(DomainError):
            u(np.array(ts))


def test_batch_eval_takes_any_scalar_time_the_points_share(example1):
    # a shared time may be a float, an int or a numpy scalar: stacked points,
    # and lanes of them, see it at every point, per point when the problem
    # is not vectorized
    rng = np.random.default_rng(2)
    xs, us = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 1))
    per_point = dataclasses.replace(example1.prob, vectorized=False)
    want = np.stack([[example1.prob.f(x, u, 1.0) for x, u in zip(xl, ul)]
                     for xl, ul in zip(xs, us)])
    for t in (1.0, 1, np.float32(1.0), np.int64(1), np.array(1.0)):
        for prob in (per_point, example1.prob):
            assert np.array_equal(_batch_eval(prob, "f", xs[0], us[0], t), want[0])
            assert np.array_equal(_batch_eval(prob, "f", xs, us, t), want)
