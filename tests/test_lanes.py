"""The lane-batched pipeline: B iterates sharing t_f in one pass.

One lane is the single-iterate pipeline, so its results are checked bit for
bit against the stages composed by hand with the unbatched formulas.  Several
lanes share one inner step sequence, so each lane agrees with its own
single evaluation to the inner tolerance: on example1, whose state is a
polynomial the scheme integrates exactly, far tighter.
"""

import dataclasses

import numpy as np
import pytest

from ocflow import (EvolutionMode, Gains, OdeSettings, QuadratureSpec, evaluate_iterate,
                    evaluate_iterates, make_basis, nlp_gradients, solve_adjoints,
                    solve_state)
from ocflow.integrate import _initial_step, _rms, _stiffness, integrate_ivp
from ocflow.sensitivity import _terminal_values, assemble_form1, assemble_form2

TIGHT = OdeSettings(rel_tol=1e-11, abs_tol=1e-13)


def _cubic():
    return make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)


def _pwc20():
    return make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=20)


def _unbatched(mode, prob, par, gains, p, t_f, quad):
    """The single-iterate pipeline from its stages, with plain 2-D algebra."""
    free = prob.tf_mode == "free"
    x_traj = solve_state(prob, par, p, t_f)
    bundle = solve_adjoints(prob, par, p, x_traj, t_f)
    x_f = bundle.x_f
    J = float(prob.phi(x_f, t_f)) + bundle.cost_integral
    g_val = np.asarray(prob.g(x_f, t_f), dtype=float)
    if mode.kind == "gradient_flow":
        quant = nlp_gradients(prob, par, bundle, p, t_f, quad, with_tf=free)
    elif free:
        quant = assemble_form2(prob, par, bundle, gains, p, t_f, quad)
    else:
        quant = assemble_form1(prob, par, bundle, gains, t_f, quad)
    r, Gamma = quant.r, quant.Gamma
    cols = np.concatenate([r[:, None], Gamma], axis=1)
    W = mode.K_theta @ cols if quant.M is None else np.linalg.solve(quant.M, cols)
    W_r, W_Gamma = W[:, 0], W[:, 1:]
    if g_val.size:
        pi = -np.linalg.solve(Gamma.T @ W_Gamma, Gamma.T @ W_r - gains.K_g @ g_val)
    else:
        pi = np.zeros(0)
    residual = r + Gamma @ pi
    return dict(p=p, t_f=t_f, pi=pi, J=J, g_val=g_val,
                g_norm=np.sqrt(g_val.dot(g_val)), residual=residual,
                residual_norm=np.sqrt(residual.dot(residual)),
                dtheta=-(W_r + W_Gamma @ pi)), bundle, quant


def _same(a, b) -> bool:
    return a is None and b is None or np.array_equal(a, b)


def _same_trajectory(a, b) -> bool:
    return (np.array_equal(a.t_grid, b.t_grid) and np.array_equal(a.values, b.values)
            and all(np.array_equal(x, y) for x, y in zip(a.segments, b.segments))
            and (a.nsteps, a.nrejected) == (b.nsteps, b.nrejected))


@pytest.mark.parametrize("case", ["e1_form1", "e1_gradient_flow", "brach_form2_pwc20",
                                  "lqr_like"])
def test_one_lane_is_the_unbatched_pipeline(case, example1, brach, lqr_like):
    quad = QuadratureSpec()
    if case == "brach_form2_pwc20":
        mode, bp, par, t_f = EvolutionMode.form2(), brach, _pwc20(), 0.85
        p = 0.03 + 0.06 * np.arange(20)
        prob, gains = bp.prob, bp.gains
    elif case == "lqr_like":             # not vectorized: every callback per point
        mode, par, t_f, p = EvolutionMode.form1(), _cubic(), 2.0, np.array([0.3, -1, 0.4, 0])
        prob, gains = lqr_like, Gains.constant(K=0.1, m=1, q=0)
    else:
        mode = (EvolutionMode.form1() if case == "e1_form1"
                else EvolutionMode.gradient_flow(0.1 * np.eye(4)))
        par, t_f, p = _cubic(), 2.0, np.array([-3.0, 2.5, 0.1, 0.02])
        prob, gains = example1.prob, example1.gains
    if prob.tf_mode == "free":
        want, bundle, quant = _unbatched(mode, prob, par, gains, p, t_f, quad)
    else:
        want, bundle, quant = _unbatched(mode, prob, par, gains, p, prob.tf_fixed, quad)
        t_f = prob.tf_fixed
    it, = evaluate_iterates(mode, prob, par, gains, p[None], t_f, quad=quad)
    for name, value in want.items():
        assert _same(getattr(it, name), value), name
    for name in ("r", "Gamma", "M", "tf_scalar", "tf_row"):
        assert _same(getattr(it.quantities, name), getattr(quant, name)), name
    assert _same_trajectory(it.bundle.x_traj, bundle.x_traj)
    assert _same_trajectory(it.bundle.adjoint_sol, bundle.adjoint_sol)
    assert it.bundle.p.shape == (par.s,)
    single = evaluate_iterate(mode, prob, par, gains, p, t_f, quad=quad)
    assert all(_same(getattr(single, name), value) for name, value in want.items())


@pytest.mark.parametrize("mode", [EvolutionMode.form1(),
                                  EvolutionMode.gradient_flow(0.1 * np.eye(4))])
def test_each_lane_matches_its_own_pipeline_on_example1(example1, mode):
    # the state is a polynomial of degree 5, which every step integrates
    # exactly, so of the node values only the cost channel feels the shared
    # step sequence
    par, ode = _cubic(), OdeSettings()
    rng = np.random.default_rng(3)
    P = np.array([-3.5, 3.0, 0.0, 0.0]) + rng.uniform(-1.0, 1.0, (8, 4))
    its = evaluate_iterates(mode, example1.prob, par, example1.gains, P, 2.0, ode)
    assert len(its) == 8
    for p, it in zip(P, its):
        one = evaluate_iterate(mode, example1.prob, par, example1.gains, p, 2.0, ode)
        assert np.array_equal(it.p, p) and it.bundle.p.shape == (4,)
        np.testing.assert_allclose(it.pi, one.pi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(it.quantities.r, one.quantities.r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(it.quantities.Gamma, one.quantities.Gamma,
                                   rtol=0, atol=1e-12)
        assert abs(it.J - one.J) <= ode.rel_tol * abs(one.J) + ode.abs_tol
        # each lane's bundle is that lane's own iterate
        np.testing.assert_allclose(it.bundle.x_f, one.bundle.x_f, rtol=0, atol=1e-12)
        ts = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(it.bundle.x_at(ts), one.bundle.x_at(ts),
                                   rtol=ode.rel_tol, atol=ode.abs_tol)


@pytest.mark.parametrize("kind", ["piecewise_constant", "piecewise_linear"])
def test_each_lane_matches_its_own_pipeline_on_the_brachistochrone(brach, kind):
    # piecewise linear nodes move with t_f, so each lane has its own u_tf
    # column and metric M_ptf
    par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=20)
    rng = np.random.default_rng(4)
    P = 0.06 * np.arange(par.s) + rng.uniform(-0.05, 0.05, (4, par.s))
    its = evaluate_iterates(EvolutionMode.form2(), brach.prob, par, brach.gains, P,
                            0.83, TIGHT)
    for p, it in zip(P, its):
        one = evaluate_iterate(EvolutionMode.form2(), brach.prob, par, brach.gains, p,
                               0.83, TIGHT)
        assert it.dtheta.shape == (par.s + 1,)
        for name in ("pi", "J", "g_val", "residual", "dtheta"):
            np.testing.assert_allclose(getattr(it, name), getattr(one, name),
                                       rtol=0, atol=1e-8, err_msg=name)
        np.testing.assert_allclose(it.quantities.M, one.quantities.M, rtol=0, atol=1e-8)


@pytest.mark.parametrize("vectorized", [True, False])
def test_terminal_values_of_lanes_match_each_lane(brach, vectorized):
    # one formula over lanes: a lane bundle's brackets are its lanes' own,
    # and a single iterate's callbacks take one plain point, t_f a float
    calls = []

    def f(x, u, t):
        calls.append((np.shape(x), np.shape(u), type(t)))
        return brach.prob.f(x, u, t)

    prob = dataclasses.replace(brach.prob, vectorized=vectorized, f=f)
    par, t_f = _pwc20(), 0.85
    rng = np.random.default_rng(7)
    P = 0.03 + 0.06 * np.arange(20) + rng.uniform(-0.02, 0.02, (4, 20))
    bundle = solve_adjoints(prob, par, P, solve_state(prob, par, P, t_f), t_f)
    tf_scalar, tf_row = _terminal_values(prob, bundle)
    assert tf_scalar.shape == (4,) and tf_row.shape == (4, prob.q)
    for b, lane in enumerate(bundle.lanes()):
        calls.clear()
        scalar, row = _terminal_values(prob, lane)
        assert calls == [((prob.n,), (prob.m,), float)]
        assert type(scalar) is float and scalar == tf_scalar[b]
        assert np.array_equal(row, tf_row[b])


def test_lane_count_and_shape_are_checked(example1):
    args = (EvolutionMode.form1(), example1.prob, _cubic(), example1.gains)
    for P in (np.zeros(4), np.zeros((2, 5)), np.zeros((0, 4)), np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match="P has shape"):
            evaluate_iterates(*args, P, 2.0)


def test_lane_norms_are_the_worst_lanes():
    rng = np.random.default_rng(5)
    lanes = [rng.normal(size=3) * s for s in (1e-3, 1.0, 10.0)]
    flat = np.concatenate(lanes)
    assert _rms(flat, 3) == max(_rms(v) for v in lanes)
    assert np.isnan(_rms(np.concatenate([lanes[0], [np.nan, 0.0, 0.0]]), 2))
    # the stiffness estimate |K[6] - K[5]| / |y - y5| of the stiffest lane
    ys = [rng.normal(size=3) for _ in range(3)]
    y5s = [y + rng.normal(size=3) * 1e-3 for y in ys]
    Ks = [rng.normal(size=(7, 3)) * s for s in (1.0, 5.0, 2.0)]

    def stiffness(lanes):
        return _stiffness(np.concatenate([ys[b] for b in lanes]),
                          np.concatenate([y5s[b] for b in lanes]),
                          np.concatenate([Ks[b] for b in lanes], axis=1), len(lanes))

    assert stiffness([0, 1, 2]) == max(stiffness([b]) for b in range(3)) > 0.0
    # a lane whose y - y5 is at rounding level gives no estimate
    y5s[1] = ys[1].copy()
    assert stiffness([1]) == 0.0
    assert stiffness([0, 1, 2]) == max(stiffness([0]), stiffness([2]))


def test_lanes_share_steps_and_keep_their_own_tolerance():
    # two decoupled decays, one 100x stiffer: alone the slow lane takes few
    # steps, together both take the stiff lane's steps, and each lane's
    # solution is as accurate as its own solve
    rates = np.array([[1.0], [100.0]])
    both = integrate_ivp(lambda t, y: -rates * y, np.ones((2, 1)), (0.0, 0.1))
    # the first step is no larger than either lane's own
    y0, ode = np.ones(2), OdeSettings()
    first = _initial_step(lambda t, y: -rates[:, 0] * y, 0.0, y0, -rates[:, 0], ode, 2)
    assert first <= min(_initial_step(lambda t, y, k=k: -k * y, 0.0, y0[:1], -k * y0[:1],
                                      ode) for k in rates[:, 0])
    alone = [integrate_ivp(lambda t, y, k=k: -k * y, np.ones(1), (0.0, 0.1))
             for k in rates[:, 0]]
    assert both.values.shape == (both.t_grid.size, 2)
    assert both.nsteps >= max(a.nsteps for a in alone) > min(a.nsteps for a in alone)
    for lane, a, k in zip(both.lanes(2), alone, rates[:, 0]):
        for t in (0.05, 0.1):
            exact = np.exp(-k * t)
            assert abs(lane(t)[0] - exact) <= max(abs(a(t)[0] - exact), 1e-6)


def test_lanes_of_a_problem_without_vectorized_callbacks(lqr_like):
    # every callback runs per point, lane by lane; no terminal constraint
    par = _cubic()
    P = np.array([[0.3, -1.0, 0.4, 0.0], [0.1, -0.5, 0.2, 0.05], [-0.2, 0.3, -0.1, 0.02]])
    gains = Gains.constant(K=0.1, m=1, q=0)
    its = evaluate_iterates(EvolutionMode.form1(), lqr_like, par, gains, P, 2.0, TIGHT)
    for p, it in zip(P, its):
        one = evaluate_iterate(EvolutionMode.form1(), lqr_like, par, gains, p, 2.0, TIGHT)
        assert it.pi.shape == (0,) and it.g_norm == 0.0
        for name in ("J", "residual", "dtheta"):
            np.testing.assert_allclose(getattr(it, name), getattr(one, name),
                                       rtol=0, atol=1e-8, err_msg=name)


TERMINAL = ("phi", "phi_x", "phi_t", "g", "g_x", "g_t")


@pytest.mark.parametrize("vectorized", [True, False])
def test_terminal_callbacks_run_once_per_pass_on_a_vectorized_problem(brach, vectorized):
    # a pass of 4 lanes at one t_f: each terminal callback runs once for all
    # lanes where it is used (phi_x and g_x by the adjoints and the t_f
    # brackets), or once per lane when the problem is not vectorized; each
    # lane keeps its own pipeline's answer
    calls = dict.fromkeys(TERMINAL, 0)

    def counting(name):
        fn = getattr(brach.prob, name)

        def wrapped(x_f, t_f):
            calls[name] += 1
            return fn(x_f, t_f)
        return wrapped

    prob = dataclasses.replace(brach.prob, vectorized=vectorized,
                               **{name: counting(name) for name in TERMINAL})
    par, mode, t_f = _pwc20(), EvolutionMode.form2(), 0.8166
    P = 1.4771 * t_f * (np.arange(20) + 0.5) / 20 + np.linspace(-0.1, 0.1, 4)[:, None]
    its = evaluate_iterates(mode, prob, par, brach.gains, P, t_f, TIGHT)
    lanes = 1 if vectorized else len(P)
    assert calls == {"phi": lanes, "g": lanes, "phi_t": lanes, "g_t": lanes,
                     "phi_x": 2 * lanes, "g_x": 2 * lanes}
    for p, it in zip(P, its):
        one = evaluate_iterate(mode, brach.prob, par, brach.gains, p, t_f, TIGHT)
        for name in ("J", "g_val", "pi", "dtheta"):
            np.testing.assert_allclose(getattr(it, name), getattr(one, name),
                                       rtol=0, atol=1e-8, err_msg=name)
        for name in ("tf_scalar", "tf_row"):
            np.testing.assert_allclose(getattr(it.quantities, name),
                                       getattr(one.quantities, name), rtol=0, atol=1e-8)


def _per_lane_products(prob, par, bundle, gains, quad, with_tf):
    """Each lane's r, Gamma and metric as the unbatched products over its own
    full basis columns U = [U_p | u_tf], the t_f row without its brackets."""
    from ocflow.sensitivity import _grid_data

    out = []
    for lane in bundle.lanes():
        gd = _grid_data(prob, par, lane, quad, gains=gains, with_tf=with_tf)
        U = np.concatenate([gd.U_p, gd.u_tf[..., None]], axis=-1) if with_tf else gd.U_p
        N, m, k = U.shape
        WU = (gd.w[:, None, None] * U).reshape(N * m, k)
        G = WU.T @ (gd.kinv @ U).reshape(N * m, k)
        out.append((np.einsum("t,tmi,tm->i", gd.w, U, gd.pu),
                    np.einsum("t,tmi,tmq->iq", gd.w, U, gd.fupsi), 0.5 * (G + G.T)))
    return out


@pytest.mark.parametrize("case", ["e1_form1", "brach_pwc20", "brach_hat6", "brach_lagrange4"])
def test_shared_p_block_matches_per_lane_products(case, example1, brach):
    # a pass shares U_p and its Gram block G_pp across lanes and gives each
    # lane only its t_f border; that equals each lane's own products over its
    # full columns, bit for bit where u_tf = 0 (form 1, piecewise constant),
    # and to rounding where u_tf is a product of its own (hat, Lagrange)
    quad = QuadratureSpec()
    if case == "e1_form1":
        bp, par, t_f = example1, _cubic(), 2.0
        P = np.array([-3.5, 3.0, 0.0, 0.0]) + np.linspace(-0.2, 0.2, 5)[:, None]
    else:
        bp, t_f = brach, 0.8166
        kind, N = {"brach_pwc20": ("piecewise_constant", 20), "brach_hat6": ("piecewise_linear", 6),
                   "brach_lagrange4": ("lagrange_nodes", 4)}[case]
        par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=N)
        P = 0.3 + 0.1 * np.random.default_rng(5).standard_normal((6, par.s))
    with_tf = bp.prob.tf_mode == "free"
    bundle = solve_adjoints(bp.prob, par, P, solve_state(bp.prob, par, P, t_f), t_f)
    if with_tf:
        quant = assemble_form2(bp.prob, par, bundle, bp.gains, P, t_f, quad)
    else:
        quant = assemble_form1(bp.prob, par, bundle, bp.gains, t_f, quad)
        assert quant.M.ndim == 2 and not quant.M.flags.writeable
    exact = case in ("e1_form1", "brach_pwc20")
    for b, (r, Gamma, M) in enumerate(_per_lane_products(bp.prob, par, bundle, bp.gains,
                                                        quad, with_tf)):
        lane = quant.lanes()[b]
        if with_tf:
            r[-1] += lane.tf_scalar
            Gamma[-1] += lane.tf_row
            M[-1, -1] += 1.0 / bp.gains.k_tf
        for got, want in ((lane.r, r), (lane.Gamma, Gamma), (lane.M, M)):
            if exact:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def _traced_peak_mb(fn) -> float:
    """The peak of traced allocations during ``fn()``, after a warm-up call."""
    import tracemalloc

    fn()                                # builds the per-t_f grid memo
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_a_lane_pass_memory_grows_with_lanes_and_channels(example1, brach):
    # no lookup gathers (points, channels, 4) coefficients and no pass copies
    # the basis columns per lane; the bounds sit between what these passes
    # take without (about 1.5 and 31 MB) and with both (about 2.6 and 84 MB)
    P = np.array([-3.5, 3.0, 0.0, 0.0]) + 0.05 * np.random.default_rng(0).standard_normal((26, 4))
    e1 = _traced_peak_mb(lambda: evaluate_iterates(EvolutionMode.form1(), example1.prob,
                                                   _cubic(), example1.gains, P, 2.0))
    assert e1 <= 2.0
    par, t_f = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=80), 0.8166
    p = 1.4771 * t_f * (np.arange(80) + 0.5) / 80
    P = p + 1e-6 * np.vstack([np.zeros(80), np.eye(80)])      # an FD Jacobian's 81 lanes
    pc80 = _traced_peak_mb(lambda: evaluate_iterates(EvolutionMode.form2(), brach.prob, par,
                                                     brach.gains, P, t_f))
    assert pc80 <= 40.0
