"""The paper's convergence claim as pinned refinement orders on example1.

Example1 (fixed t_f = 2) is linear-quadratic, so the flow's stationarity
terms r(p) and the constraint g(p) are affine in p and Gamma is constant.
The flow's equilibrium, r + Gamma pi = 0 and g = 0, is then one KKT solve
assembled from one pipeline pass of s + 1 lanes (p = 0 and p = e_i); one
more pipeline at the solution gives the state and costate there.  The breakpoints 2i/N of
the piecewise bases are exact binary fractions, so the assembly's segment
lookups are exact at every panel endpoint.
"""

import numpy as np
import pytest

from ocflow import (EvolutionMode, OdeSettings, evaluate_iterate, evaluate_iterates,
                    make_basis, reconstruct_costate)

TIGHT = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
NS = (4, 8, 16, 32)


def _equilibrium(bp, par):
    """(p*, pi*, iterate at p*) of the form-1 flow, from one pass of s + 1
    lanes and one pipeline."""
    args = (EvolutionMode.form1(), bp.prob, par, bp.gains)
    s = par.s
    base, *unit = evaluate_iterates(*args, np.vstack([np.zeros(s), np.eye(s)]), 2.0, TIGHT)
    r0, Gamma, g0 = base.quantities.r, base.quantities.Gamma, base.g_val
    H = np.stack([it.quantities.r - r0 for it in unit], axis=1)
    G = np.stack([it.g_val - g0 for it in unit], axis=1)
    q = g0.size
    kkt = np.block([[H, Gamma], [G, np.zeros((q, q))]])
    sol = np.linalg.solve(kkt, -np.concatenate([r0, g0]))
    p, pi = sol[:s], sol[s:]
    return p, pi, evaluate_iterate(*args, p, 2.0, TIGHT)


def _errors(bp, par):
    p, pi, it = _equilibrium(bp, par)
    # the KKT point is the flow's equilibrium: no residual, no infeasibility
    assert it.residual_norm <= 1e-10 and it.g_norm <= 1e-10
    oracle = bp.oracle
    ts = np.linspace(0.0, 2.0, 801)
    lam = reconstruct_costate(bp.prob, it.bundle, pi).lam_traj(ts)
    lam_star = np.stack([oracle.lam(t) for t in ts])
    return {"u": np.abs(par.eval(ts, p, 2.0)[:, 0] - oracle.u(ts)[0]).max(),
            "x": np.abs(it.bundle.x_at(ts) - oracle.x(ts)).max(),
            "lambda": np.abs(lam - lam_star).max(),
            "pi": np.abs(pi - oracle.pi).max()}


def test_piecewise_constant_refinement_orders(example1):
    errs = [_errors(example1, make_basis("piecewise_constant", m=1, t0=0.0,
                                         form="form1", n_segments=N)) for N in NS]
    for key, order in (("u", 0.9), ("x", 1.8), ("lambda", 1.8), ("pi", 1.8)):
        e = np.array([err[key] for err in errs])
        observed = np.log2(e[:-1] / e[1:])
        assert observed.min() >= order, (key, e, observed)


@pytest.mark.parametrize("N", [2, 8])
def test_piecewise_linear_reproduces_the_linear_optimum(example1, N):
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form1", n_segments=N)
    err = _errors(example1, par)
    assert max(err.values()) <= 1e-10, err
