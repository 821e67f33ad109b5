import dataclasses

import numpy as np
import pytest

from ocflow import (DerivativeMismatchError, DimensionError, Gains, OdeSettings,
                    constraint_value, objective_value, validate_problem)
from ocflow.errors import ConfigurationError

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
    with pytest.raises(ValueError):
        validate_problem(example1.prob, samples=0)


def test_validate_unconstrained_problem(lqr_like):
    # q = 0: the terminal-constraint derivatives are empty but still audited
    assert validate_problem(lqr_like, samples=5).max_error() < 1e-6


def test_objective_zero_control(example1):
    J = objective_value(example1.prob, lambda t: np.zeros(1), 2.0, TIGHT)
    assert J == pytest.approx(0.0, abs=1e-12)


def test_objective_analytic_control(example1):
    # 1/2 int_0^2 (3t - 3.5)^2 dt = 6.5/2
    J = objective_value(example1.prob, lambda t: np.array([3.0 * t - 3.5]),
                        2.0, TIGHT)
    assert J == pytest.approx(3.25, abs=1e-9)


def test_objective_is_terminal_time_for_mayer_problem(brach):
    J = objective_value(brach.prob, lambda t: np.array([0.3]), 1.0, TIGHT)
    assert J == pytest.approx(1.0, abs=1e-12)


def test_constraint_zero_control(example1):
    g = constraint_value(example1.prob, lambda t: np.zeros(1), 2.0, TIGHT)
    np.testing.assert_allclose(g, [3.0, 1.0], atol=1e-10)


def test_constraint_analytic_control(example1):
    g = constraint_value(example1.prob, lambda t: np.array([3.0 * t - 3.5]),
                         2.0, TIGHT)
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-9)


def test_constraint_free_fall(brach):
    g = constraint_value(brach.prob, lambda t: np.zeros(1), 1.0, TIGHT)
    np.testing.assert_allclose(g, [-2.0, -3.0], atol=1e-9)


def test_values_deterministic(example1):
    u = lambda t: np.array([np.sin(3.0 * t)])
    a = objective_value(example1.prob, u, 2.0)
    b = objective_value(example1.prob, u, 2.0)
    assert a == b
    ga = constraint_value(example1.prob, u, 2.0)
    gb = constraint_value(example1.prob, u, 2.0)
    assert np.array_equal(ga, gb)


def test_tolerance_tightening_self_consistent(example1):
    u = lambda t: np.array([np.sin(3.0 * t)])
    loose = OdeSettings(rel_tol=1e-3, abs_tol=1e-6)
    tight = OdeSettings(rel_tol=1e-4, abs_tol=1e-7)
    J_loose = objective_value(example1.prob, u, 2.0, loose)
    J_tight = objective_value(example1.prob, u, 2.0, tight)
    assert abs(J_loose - J_tight) < loose.rel_tol * abs(J_loose) + loose.abs_tol


def test_objective_requires_valid_horizon(example1):
    with pytest.raises(ValueError):
        objective_value(example1.prob, lambda t: np.zeros(1), 0.0)


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


def test_problem_construction_guards(example1):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(example1.prob, tf_mode="sometimes")
    with pytest.raises(ConfigurationError):
        dataclasses.replace(example1.prob, tf_fixed=None)
