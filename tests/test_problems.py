import numpy as np
import pytest

from ocflow import (EvolutionMode, evaluate_iterate, example1_analytic_report,
                    get_problem, list_problems, reconstruct_costate,
                    register_problem, validate_problem)
from ocflow.problem import SolveReport


def test_oracle_values(example1):
    o = example1.oracle
    assert o.u(0.0)[0] == pytest.approx(-3.5)
    np.testing.assert_allclose(o.x(2.0), [0.0, 0.0], atol=1e-12)
    assert o.J == pytest.approx(3.25)
    np.testing.assert_allclose(o.pi, [3.0, -2.5])


def test_oracle_solves_dynamics(example1):
    # x_hat' = f(x_hat, u_hat) pointwise, probed by central differences
    o = example1.oracle
    h = 1e-6
    for t in np.linspace(0.1, 1.9, 13):
        dx = (o.x(t + h) - o.x(t - h)) / (2 * h)
        f = example1.prob.f(o.x(t), o.u(t), t)
        np.testing.assert_allclose(dx, f, atol=1e-8)


def test_oracle_hamiltonian_stationarity(example1):
    # L_u + f_u^T lambda_hat = u_hat + lambda_hat_2 = 0
    o = example1.oracle
    for t in np.linspace(0.0, 2.0, 21):
        assert abs(o.u(t)[0] + o.lam(t)[1]) < 1e-12


def test_brachistochrone_references(brach):
    r = brach.references
    assert r["tf_optimal"] == pytest.approx(0.8165)
    np.testing.assert_allclose(r["pi_optimal"], [-0.1477, 0.0564])
    assert r["tf_straight_line"] == pytest.approx(np.sqrt(0.8))
    assert r["tf_straight_line"] > r["tf_optimal"]


def test_builtin_problems_validate(example1, brach):
    assert validate_problem(example1.prob, samples=5).max_error() < 1e-4
    assert validate_problem(brach.prob, samples=5).max_error() < 1e-4


def test_analytic_report_converged_run(example1, e1_form1_solve):
    report, _, bundle, _ = e1_form1_solve
    lam = reconstruct_costate(example1.prob, bundle, report.pi_final).lam_traj
    errs = example1_analytic_report(example1.oracle, report, bundle, lam)
    assert errs.sup_u <= 1e-3
    assert errs.sup_x <= 1e-3
    assert errs.sup_lam <= 1e-3
    assert errs.pi_err <= 1e-3
    assert errs.J_err <= 1e-3


def test_analytic_report_zero_control(example1, e1_par):
    it = evaluate_iterate(EvolutionMode.form1(), example1.prob, e1_par,
                          example1.gains, np.zeros(4), 2.0)
    report = SolveReport(p_final=np.zeros(4), tf_final=2.0, pi_final=it.pi,
                         J_final=it.J, residual_norm=it.residual_norm,
                         g_norm=it.g_norm, converged=False, tau_reached=0.0,
                         wall_time=0.0)
    lam = reconstruct_costate(example1.prob, it.bundle, it.pi).lam_traj
    errs = example1_analytic_report(example1.oracle, report, it.bundle, lam)
    assert errs.sup_u == pytest.approx(3.5, abs=1e-9)   # |0 - u_hat(0)|, the bundle's u = 0


def test_registry_roundtrip(example1):
    assert set(list_problems()) >= {"example1", "brachistochrone"}
    assert get_problem("example1").prob.name == "example1"
    with pytest.raises(KeyError):
        get_problem("not-a-problem")
    register_problem("example1-alias", lambda: example1)
    try:
        assert get_problem("example1-alias") is example1
        assert "example1-alias" in list_problems()
    finally:
        from ocflow.problems import _REGISTRY
        _REGISTRY.pop("example1-alias")


@pytest.mark.parametrize("name", ["example1", "brachistochrone"])
def test_scalar_callbacks_equal_rows_of_batched_calls(name):
    prob = get_problem(name).prob
    rng = np.random.default_rng(4)
    N = 25
    xs = rng.uniform(-2.0, 2.0, (N, prob.n))
    us = rng.uniform(-2.0, 2.0, (N, prob.m))
    ts = rng.uniform(0.0, 2.0, N)
    for cb in ("f", "f_x", "f_u", "L", "L_x", "L_u"):
        fn = getattr(prob, cb)
        batched = np.asarray(fn(xs, us, ts), dtype=float)
        assert batched.shape[0] == N, cb
        for i in range(N):
            point = np.asarray(fn(xs[i], us[i], ts[i]), dtype=float)
            assert np.array_equal(point, batched[i]), (cb, i)
