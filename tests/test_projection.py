import numpy as np
import pytest

from ocflow import (BasisSet, DependentBasisError, EvolutionMode,
                    InnerProductSpec, QuadratureSpec, evaluate_iterate, project,
                    projected_stationarity_check, weighted_norm)
from ocflow import projection


def unit_weight_spec(t0=0.0, t_f=2.0):
    return InnerProductSpec(t0=t0, t_f=t_f, weight=np.eye(1))


def poly_basis(cols):
    """Scalar-valued basis whose columns are polynomials with given coefficients."""
    C = np.asarray(cols, dtype=float)

    def A(ts):
        V = np.vander(ts, C.shape[1], increasing=True)
        return (V @ C.T)[:, None, :]

    return BasisSet(A=A)


def test_projecting_basis_column_is_identity():
    spec = unit_weight_spec()
    basis = poly_basis([[1.0, 0.0], [0.0, 1.0]])     # {1, t}
    coords, proj = project(spec, basis, lambda ts: ts[:, None])   # f = t
    np.testing.assert_allclose(coords, [0.0, 1.0], atol=1e-12)
    ts = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(proj(ts)[:, 0], ts, atol=1e-12)


def test_quadratic_onto_affine_basis():
    # normal-equation oracle: Gram [[2,2],[2,8/3]], rhs [8/3, 4]
    spec = unit_weight_spec()
    basis = poly_basis([[1.0, 0.0], [0.0, 1.0]])
    coords, proj = project(spec, basis, lambda ts: (ts ** 2)[:, None])
    np.testing.assert_allclose(coords, [-2.0 / 3.0, 2.0], atol=1e-10)
    assert proj(1.0)[0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    # a scalar-valued basis may give its columns as (N, k) and a scalar
    # function its values as (N,)
    flat = BasisSet(A=lambda ts: basis.at(ts)[:, 0, :])
    coords_flat, proj_flat = project(spec, flat, lambda ts: ts ** 2)
    np.testing.assert_array_equal(coords_flat, coords)
    ts = np.linspace(0.0, 2.0, 9)
    np.testing.assert_array_equal(proj_flat(ts), proj(ts))


def test_orthogonal_function_has_zero_coordinates():
    spec = unit_weight_spec()
    basis = poly_basis([[1.0, 0.0], [0.0, 1.0]])
    f = lambda ts: (ts ** 2 - 2.0 * ts + 2.0 / 3.0)[:, None]
    coords, _ = project(spec, basis, f)
    np.testing.assert_allclose(coords, np.zeros(2), atol=1e-10)


def test_randomized_projection_invariants():
    rng = np.random.default_rng(23)
    spec = unit_weight_spec(0.0, 1.5)
    for _ in range(10):
        basis = poly_basis(rng.uniform(-1.0, 1.0, (3, 4)))
        fc = rng.uniform(-1.0, 1.0, 6)
        f = lambda ts: (np.vander(ts, 6, increasing=True) @ fc)[:, None]
        coords, proj = project(spec, basis, f)
        # idempotence
        coords2, _ = project(spec, basis, proj)
        assert np.abs(coords - coords2).max() < 1e-8
        # residual orthogonal to every basis column
        ts, w = spec.grid()
        resid = f(ts) - proj(ts)
        inner = np.einsum("t,tdk,td->k", w, basis.at(ts), resid)
        assert np.abs(inner).max() < 1e-8
        # norm identity
        nf = weighted_norm(spec, f)
        npj = weighted_norm(spec, proj)
        nr = weighted_norm(spec, lambda ts: f(ts) - proj(ts))
        assert abs(nf ** 2 - npj ** 2 - nr ** 2) < 1e-8


def test_dependent_basis_raises():
    spec = unit_weight_spec()
    basis = poly_basis([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DependentBasisError):
        project(spec, basis, lambda ts: ts[:, None])


def _dual_residual_ingredients(prob, gains, par, p, t_f):
    """Inner-product spec, K^-1 u_p basis and pointwise gradients at an iterate."""
    it = evaluate_iterate(EvolutionMode.form1(), prob, par, gains, p, t_f)
    b = it.bundle
    K = gains.K_at(np.zeros(1))[0]
    K_inv = gains.K_inv_const

    def basis_fn(ts):
        up = par.jac_p(ts, p, t_f)                 # (N, m, s)
        return np.einsum("mn,tns->tms", K_inv, up)

    def p_u(ts):
        xs = b.x_at(ts)
        us = par.eval(ts, p, t_f)
        mus, psis = b.mu_psi_at(ts)
        fu = np.asarray(prob.f_u(xs, us, ts))
        return np.asarray(prob.L_u(xs, us, ts)) + np.einsum("tnm,tn->tm", fu, mus)

    def fupsi(ts):
        xs = b.x_at(ts)
        us = par.eval(ts, p, t_f)
        _, psis = b.mu_psi_at(ts)
        fu = np.asarray(prob.f_u(xs, us, ts))
        return np.einsum("tnm,tnq->tmq", fu, psis)

    spec = InnerProductSpec(t0=prob.t0, t_f=t_f, weight=K,
                            quad=QuadratureSpec(),
                            breakpoints=tuple(par.breakpoints(t_f)))
    basis = BasisSet(A=basis_fn)
    return it, spec, basis, p_u, fupsi


def test_dual_residuals_at_zero_control(example1, e1_par):
    prob, gains = example1.prob, example1.gains
    it, spec, basis, p_u, fupsi = _dual_residual_ingredients(prob, gains, e1_par,
                                                        np.zeros(4), 2.0)
    rep = projected_stationarity_check(spec, basis, p_u, fupsi, it.pi)
    # coordinate residual = M_p^-1 (r + Gamma pi) with the closed-form blocks
    M_p = 10.0 * np.array([[2, 2, 8 / 3, 4], [2, 8 / 3, 4, 32 / 5],
                           [8 / 3, 4, 32 / 5, 32 / 3], [4, 32 / 5, 32 / 3, 128 / 7]])
    Gam = np.array([[2.0, 2.0], [4 / 3, 2.0], [4 / 3, 8 / 3], [8 / 5, 4.0]])
    expect = np.linalg.solve(M_p, Gam @ np.array([3.0, -2.5]))
    np.testing.assert_allclose(rep.coord_residual, expect, atol=1e-5)
    # the function-space norm is the M_p-weighted coordinate norm
    analytic = float(np.sqrt(expect @ (M_p @ expect)))
    assert rep.function_residual_norm == pytest.approx(analytic, rel=1e-4)


def test_dual_residuals_vanish_at_optimum(example1, e1_form1_solve):
    report, _, _, par = e1_form1_solve
    it, spec, basis, p_u, fupsi = _dual_residual_ingredients(
        example1.prob, example1.gains, par, report.p_final, 2.0)
    rep = projected_stationarity_check(spec, basis, p_u, fupsi, it.pi)
    assert rep.function_residual_norm <= 1e-3
    assert rep.coord_residual_norm <= 1e-3


def test_dual_residuals_covanish_along_trace(example1, e1_form1_solve):
    # the two residual norms differ by the SPD metric M_p, so their ratio is
    # pinned between the extremal singular values and they vanish together
    report, trace, _, par = e1_form1_solve
    prob, gains = example1.prob, example1.gains
    M_p = None
    rows = [r for r in trace.rows if r.tau in (0.0, 1.0, 3.0, 10.0, 30.0, 100.0)]
    rows.append(trace.rows[-1])
    for row in rows:
        it, spec, basis, p_u, fupsi = _dual_residual_ingredients(prob, gains, par,
                                                            row.p, 2.0)
        rep = projected_stationarity_check(spec, basis, p_u, fupsi, it.pi)
        if M_p is None:
            M_p = it.quantities.M
            smin, smax = np.sqrt(np.linalg.eigvalsh(M_p)[[0, -1]])
        if rep.coord_residual_norm > 1e-12:
            ratio = rep.function_residual_norm / rep.coord_residual_norm
            assert smin * 0.99 <= ratio <= smax * 1.01
    assert rep.function_residual_norm <= 1e-3
    assert rep.coord_residual_norm <= 1e-3


def _rel(a, ref) -> float:
    return float(np.abs(a - ref).max() / np.abs(ref).max())


def test_gram_system_and_norm_match_the_einsum_reference(example1, e1_par, monkeypatch):
    # the Gram matrix, right-hand side and norm are quadrature._gram products;
    # they agree with the four-operand einsums to rounding
    it, spec, basis, p_u, fupsi = _dual_residual_ingredients(
        example1.prob, example1.gains, e1_par, np.array([-3.0, 2.0, 0.5, -0.1]), 2.0)
    systems = []
    solve = projection.spd_solve
    monkeypatch.setattr(projection, "spd_solve",
                        lambda M, B, context: systems.append((M, B)) or solve(M, B, context))
    rep = projected_stationarity_check(spec, basis, p_u, fupsi, it.pi)
    (gram, rhs), = systems
    ts, w = spec.grid()
    A, W = basis.at(ts), spec.weight_at(ts)
    F = np.concatenate([p_u(ts)[:, :, None], fupsi(ts)], axis=2)
    assert _rel(gram, np.einsum("t,tdi,tde,tej->ij", w, A, W, A)) <= 1e-14
    assert _rel(rhs, np.einsum("t,tdi,tde,tek->ik", w, A, W, F)) <= 1e-14
    R = np.einsum("tdi,i->td", A, rep.coord_residual)
    ref = np.sqrt(np.einsum("t,td,tde,te->", w, R, W, R))
    assert rep.function_residual_norm == pytest.approx(ref, rel=1e-14)
