import dataclasses

import numpy as np
import pytest

from ocflow import (ConfigurationError, DependentBasisError, DomainError,
                    make_basis, validate_independence)


def poly(order=3, m=1):
    return make_basis("global_polynomial", m=m, t0=0.0, form="form1", order=order)


def test_polynomial_jacobian_row():
    par = poly()
    t = 0.7
    np.testing.assert_allclose(par.jac_p(t, np.zeros(4), 2.0),
                               [[1.0, t, t**2, t**3]])


def test_polynomial_analytic_control_value():
    par = poly()
    u = par.eval(1.0, np.array([-3.5, 3.0, 0.0, 0.0]), 2.0)
    assert u[0] == pytest.approx(-0.5)


def test_piecewise_constant_segments():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form1", n_segments=2)
    p = np.array([1.5, -2.0])
    assert par.eval(0.25, p, 1.0)[0] == 1.5
    assert par.eval(0.75, p, 1.0)[0] == -2.0
    np.testing.assert_allclose(par.jac_p(0.25, p, 1.0), [[1.0, 0.0]])
    # half-open segments, closed at the right end of the horizon
    assert par.eval(0.5, p, 1.0)[0] == -2.0
    assert par.eval(1.0, p, 1.0)[0] == -2.0


def test_piecewise_linear_interpolates():
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form1", n_segments=2)
    u = par.eval(0.25, np.array([0.0, 1.0, 0.0]), 1.0)
    assert u[0] == pytest.approx(0.5)


def test_lagrange_reproduces_linear_function():
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    t_f = 0.8165
    nodes = np.linspace(0.0, t_f, 5)
    p = 1.4771 * nodes
    ts = np.linspace(0.0, t_f, 23)
    np.testing.assert_allclose(par.eval(ts, p, t_f)[:, 0], 1.4771 * ts,
                               atol=1e-12)


@pytest.mark.parametrize("kind,kwargs,form", [
    ("global_polynomial", {"order": 3}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form2"),
    ("piecewise_linear", {"n_segments": 5}, "form2"),
    ("piecewise_constant", {"n_segments": 5}, "form2"),
])
def test_zero_parameters_give_zero_control(kind, kwargs, form):
    par = make_basis(kind, m=1, t0=0.0, form=form, **kwargs)
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(par.eval(ts, np.zeros(par.s), 1.0),
                                  np.zeros((11, 1)))


@pytest.mark.parametrize("kind,kwargs,form", [
    ("global_polynomial", {"order": 2}, "form1"),
    ("lagrange_nodes", {"n_segments": 3}, "form2"),
    ("piecewise_linear", {"n_segments": 4}, "form2"),
    ("piecewise_constant", {"n_segments": 4}, "form2"),
])
def test_linearity_eval_equals_jacobian_product(kind, kwargs, form):
    rng = np.random.default_rng(3)
    par = make_basis(kind, m=1, t0=0.0, form=form, **kwargs)
    p = rng.normal(size=par.s)
    ts = rng.uniform(0.0, 1.3, 17)
    u = par.eval(ts, p, 1.3)
    jp = par.jac_p(ts, p, 1.3)
    assert np.array_equal(u, np.einsum("tms,s->tm", jp, p))


def test_jac_p_matches_finite_differences():
    rng = np.random.default_rng(5)
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    p = rng.normal(size=par.s)
    t_f = 1.2
    for t in rng.uniform(0.0, t_f, 5):
        jp = par.jac_p(t, p, t_f)
        h = 1e-6
        fd = np.empty_like(jp)
        for i in range(par.s):
            dp = np.zeros(par.s)
            dp[i] = h
            fd[:, i] = (par.eval(t, p + dp, t_f) - par.eval(t, p - dp, t_f)) / (2 * h)
        np.testing.assert_allclose(jp, fd, rtol=1e-6, atol=1e-9)


def test_form1_has_zero_tf_sensitivity():
    par = poly()
    utf = par.jac_tf(1.0, np.array([1.0, 2.0, 3.0, 4.0]), 2.0)
    np.testing.assert_array_equal(utf, np.zeros(1))


def test_lagrange_tf_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(11)
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    p = rng.normal(size=par.s)
    t_f = 1.1
    h = 1e-6
    for t in rng.uniform(0.05, 0.95, 6):
        utf = par.jac_tf(t, p, t_f)
        fd = (par.eval(t, p, t_f + h) - par.eval(t, p, t_f - h)) / (2 * h)
        np.testing.assert_allclose(utf, fd, rtol=1e-5, atol=1e-7)


def test_piecewise_linear_tf_sensitivity_inside_segments():
    rng = np.random.default_rng(13)
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form2", n_segments=5)
    p = rng.normal(size=par.s)
    t_f = 1.0
    h = 1e-7
    for t in (0.11, 0.37, 0.73):    # strictly inside segments
        utf = par.jac_tf(t, p, t_f)
        fd = (par.eval(t, p, t_f + h) - par.eval(t, p, t_f - h)) / (2 * h)
        np.testing.assert_allclose(utf, fd, rtol=1e-4, atol=1e-6)


def test_piecewise_constant_tf_sensitivity_is_zero_ae():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=5)
    p = np.arange(1.0, 6.0)
    utf = par.jac_tf(0.33, p, 1.0)
    np.testing.assert_array_equal(utf, np.zeros(1))


def test_partition_of_unity():
    ts = np.linspace(0.0, 1.0, 37)
    for kind, n in (("lagrange_nodes", 4), ("piecewise_linear", 6)):
        par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=n)
        jp = par.jac_p(ts, np.zeros(par.s), 1.0)
        np.testing.assert_allclose(jp.sum(axis=2), np.ones((37, 1)), atol=1e-12)


def test_piecewise_linear_two_active_columns():
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form2", n_segments=4)
    jp = par.jac_p(0.3, np.zeros(par.s), 1.0)
    nz = np.nonzero(jp[0])[0]
    assert len(nz) == 2
    assert jp[0, nz].sum() == pytest.approx(1.0)


def test_same_capacity_equivalence():
    # order-1 polynomial vs 2-node interpolation related by the node map
    t0, t_f = 0.2, 1.7
    par_a = make_basis("global_polynomial", m=1, t0=t0, form="form1", order=1)
    par_b = make_basis("lagrange_nodes", m=1, t0=t0, form="form2", n_segments=1)
    rng = np.random.default_rng(2)
    p_b = rng.normal(size=2)
    p_a = np.array([(p_b[0] * t_f - p_b[1] * t0) / (t_f - t0),
                    (p_b[1] - p_b[0]) / (t_f - t0)])
    ts = np.linspace(t0, t_f, 41)
    np.testing.assert_allclose(par_a.eval(ts, p_a, t_f), par_b.eval(ts, p_b, t_f),
                               atol=1e-12)


def test_independence_polynomial_moment_matrix():
    # eigendecomposition of the closed-form moment Gram on [0, 2]
    par = poly()
    mom = lambda k: 2.0 ** (k + 1) / (k + 1)
    gram = np.array([[mom(i + j) for j in range(4)] for i in range(4)])
    lam_expected = np.linalg.eigvalsh(gram)[0]
    lam = validate_independence(par, np.zeros(4), 2.0, quad_nodes=201)
    assert lam == pytest.approx(lam_expected, rel=1e-4)
    assert lam == pytest.approx(2.684e-3, rel=1e-3)


def test_independence_piecewise_constant_diagonal():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=5)
    lam = validate_independence(par, np.zeros(5), 1.0, quad_nodes=51)
    assert lam == pytest.approx(0.2, abs=1e-12)


def test_independence_rejects_duplicated_column():
    par = poly(order=1)

    def dup_jac(ts, p, t_f):
        col = np.ones((ts.size, 1))
        return np.stack([col, col], axis=-1)   # two identical columns

    broken = dataclasses.replace(par, jac_p_fn=dup_jac)
    with pytest.raises(DependentBasisError):
        validate_independence(broken, np.zeros(2), 2.0, quad_nodes=21)


def test_independence_requires_enough_nodes():
    with pytest.raises(ValueError):
        validate_independence(poly(), np.zeros(4), 2.0, quad_nodes=3)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        make_basis("global_polynomial", m=1, t0=0.0, form="form2", order=3)
    with pytest.raises(ConfigurationError):
        make_basis("unknown_kind", m=1, t0=0.0, form="form1", order=3)
    with pytest.raises(ConfigurationError):
        make_basis("piecewise_constant", m=1, t0=0.0, form="form2")
    with pytest.raises(ConfigurationError):
        make_basis("global_polynomial", m=0, t0=0.0, form="form1", order=1)


def test_domain_checks():
    par = poly()
    with pytest.raises(DomainError):
        par.eval(2.5, np.zeros(4), 2.0)
    with pytest.raises(DomainError):
        par.jac_p(-0.1, np.zeros(4), 2.0)


def test_multicontrol_block_layout():
    par = make_basis("piecewise_constant", m=2, t0=0.0, form="form1", n_segments=2)
    assert par.s == 4
    p = np.array([1.0, 2.0, 3.0, 4.0])      # node-major: (u(t0), u(t1))
    np.testing.assert_allclose(par.eval(0.1, p, 1.0), [1.0, 2.0])
    np.testing.assert_allclose(par.eval(0.9, p, 1.0), [3.0, 4.0])
    jp = par.jac_p(0.1, p, 1.0)
    np.testing.assert_allclose(jp, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
