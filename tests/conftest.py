"""Shared fixtures: built-in problems and the expensive reference solves.

The evolution solves used by several test modules (acceptance, costates,
projection) run once per session and are reused.
"""

import numpy as np
import pytest

from ocflow import (EvolutionMode, EvolutionState, OcpProblem, OdeSettings,
                    StopCriteria, make_basis, make_example1, make_example2,
                    solve_evolution)


@pytest.fixture(scope="session")
def example1():
    return make_example1()


def make_lqr_like() -> OcpProblem:
    """Double integrator with state-dependent costs and no terminal constraint.

    Exercises the nontrivial cost-adjoint path (both built-ins have zero mu)
    and the q = 0 degeneracy.
    """
    return OcpProblem(
        n=2, m=1, q=0, t0=0.0, x0=np.array([1.0, 0.0]),
        tf_mode="fixed", tf_fixed=2.0,
        f=lambda x, u, t: np.array([x[1], u[0]]),
        f_x=lambda x, u, t: np.array([[0.0, 1.0], [0.0, 0.0]]),
        f_u=lambda x, u, t: np.array([[0.0], [1.0]]),
        L=lambda x, u, t: 0.5 * (x[0] ** 2 + u[0] ** 2),
        L_x=lambda x, u, t: np.array([x[0], 0.0]),
        L_u=lambda x, u, t: np.array([u[0]]),
        phi=lambda xf, tf: 0.5 * float(xf @ xf),
        phi_x=lambda xf, tf: np.asarray(xf, dtype=float),
        phi_t=lambda xf, tf: 0.0,
        g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 2)),
        g_t=lambda xf, tf: np.zeros(0),
        name="lqr-like")


@pytest.fixture(scope="session")
def lqr_like():
    return make_lqr_like()


@pytest.fixture(scope="session")
def shrinking_horizon() -> OcpProblem:
    """min t_f + 1/2 int u^2 for x' = u with free t_f and no constraint.

    Nothing holds t_f up, so dt_f/dtau < 0 everywhere and the flow drives
    t_f to t0 = 0.
    """
    return OcpProblem(
        n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="free",
        f=lambda x, u, t: np.asarray(u, float),
        f_x=lambda x, u, t: np.zeros((*np.shape(t), 1, 1)),
        f_u=lambda x, u, t: np.ones((*np.shape(t), 1, 1)),
        L=lambda x, u, t: 0.5 * np.asarray(u, float)[..., 0] ** 2,
        L_x=lambda x, u, t: np.zeros((*np.shape(t), 1)),
        L_u=lambda x, u, t: np.asarray(u, float),
        phi=lambda xf, tf: float(tf),
        phi_x=lambda xf, tf: np.zeros(1),
        phi_t=lambda xf, tf: 1.0,
        g=lambda xf, tf: np.zeros(0),
        g_x=lambda xf, tf: np.zeros((0, 1)),
        g_t=lambda xf, tf: np.zeros(0),
        vectorized=True, name="shrinking-horizon")


@pytest.fixture(scope="session")
def brach():
    return make_example2()


def _cubic_par():
    return make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)


@pytest.fixture(scope="session")
def e1_par():
    return _cubic_par()


@pytest.fixture(scope="session")
def e1_form1_solve(example1, e1_par):
    """Acceptance-1 configuration: form1, cubic basis, init p = 0."""
    report, trace, bundle = solve_evolution(
        EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
        EvolutionState(p=np.zeros(4), t_f=2.0), StopCriteria(tau_max=300.0))
    return report, trace, bundle, e1_par


@pytest.fixture(scope="session")
def e1_gradflow_solve(example1, e1_par):
    """Acceptance-2 configuration: gradient flow with K_theta = 0.1 I.

    The slowest mode of this flow decays at rate ~2.7e-4, so the tau budget
    is far beyond the form1 run's; the solve exits on tolerances.
    """
    report, trace, bundle = solve_evolution(
        EvolutionMode.gradient_flow(0.1 * np.eye(4)), example1.prob, e1_par,
        example1.gains, EvolutionState(p=np.zeros(4), t_f=2.0),
        StopCriteria(tau_max=60000.0, record_every=250.0))
    return report, trace, bundle, e1_par


@pytest.fixture(scope="session")
def e1_decay_solve(example1, e1_par):
    """Acceptance-6 configuration: tight outer tolerances so the integrator
    noise floor sits below the 1e-6 monotonicity floor."""
    report, trace, bundle = solve_evolution(
        EvolutionMode.form1(), example1.prob, e1_par, example1.gains,
        EvolutionState(p=np.zeros(4), t_f=2.0),
        StopCriteria(tau_max=170.0),
        ode_outer=OdeSettings(rel_tol=1e-7, abs_tol=1e-10))
    return report, trace, bundle, e1_par


def _solve_brach(bp, par, mode, record_every=5.0):
    return solve_evolution(
        mode, bp.prob, par, bp.gains,
        EvolutionState(p=np.zeros(par.s), t_f=1.0),
        StopCriteria(tau_max=300.0, record_every=record_every))


@pytest.fixture(scope="session")
def brach_case1(brach):
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
    return (*_solve_brach(brach, par, EvolutionMode.form1()), par)


@pytest.fixture(scope="session")
def brach_case2(brach):
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    return (*_solve_brach(brach, par, EvolutionMode.form2()), par)


@pytest.fixture(scope="session")
def brach_case3(brach):
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form2", n_segments=20)
    return (*_solve_brach(brach, par, EvolutionMode.form2()), par)


@pytest.fixture(scope="session")
def brach_case4(brach):
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)
    return (*_solve_brach(brach, par, EvolutionMode.form2()), par)


@pytest.fixture(scope="session")
def brach_order_scan(brach):
    """Converged t_f for polynomial orders 0, 1, 2 (capacity monotonicity)."""
    out = {}
    for order in (0, 1, 2):
        par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=order)
        report, _, _ = _solve_brach(brach, par, EvolutionMode.form1())
        out[order] = report
    return out
