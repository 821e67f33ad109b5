"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines in order.
"""

import numpy as np

from ocflow import (BasisSet, EvolutionMode, InnerProductSpec, OdeSettings,
                    QuadratureSpec, evaluate_iterate, make_basis, nlp_gradients,
                    project, reconstruct_costate, simulate_control, solve_adjoints,
                    solve_state, projected_stationarity_check, weighted_norm)

TIGHT = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
P_STAR = np.array([-3.5, 3.0, 0.0, 0.0])
PI_STAR = np.array([3.0, -2.5])


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_example1_form1(e1_form1_solve):
    report, _, _, _ = e1_form1_solve
    p_err = np.abs(report.p_final - P_STAR).max()
    pi_err = np.abs(report.pi_final - PI_STAR).max()
    ok = p_err <= 1e-3 and pi_err <= 1e-3 and report.wall_time <= 30.0
    _verdict(1, "example1 form1 converges to the analytic parameters", ok,
             f"|p-p*|={p_err:.2e}, |pi-pi*|={pi_err:.2e}, "
             f"wall={report.wall_time:.2f}s")


def test_criterion_02_example1_gradient_flow(e1_gradflow_solve):
    report, _, _, _ = e1_gradflow_solve
    p_err = np.abs(report.p_final - P_STAR).max()
    pi_err = np.abs(report.pi_final - PI_STAR).max()
    ok = p_err <= 1e-3 and pi_err <= 1e-3
    _verdict(2, "gradient flow with K_theta = 0.1 I reaches the same optimum",
             ok, f"|p-p*|={p_err:.2e}, |pi-pi*|={pi_err:.2e}, "
             f"tau={report.tau_reached:.0f}")


def test_criterion_03_example1_costates(example1, e1_form1_solve):
    report, _, bundle, _ = e1_form1_solve
    lam = reconstruct_costate(example1.prob, bundle, report.pi_final).lam_traj
    ts = np.linspace(0.0, 2.0, 401)
    vals = lam(ts)
    e1 = np.abs(vals[:, 0] - 3.0).max()
    e2 = np.abs(vals[:, 1] - (3.5 - 3.0 * ts)).max()
    ok = e1 <= 1e-3 and e2 <= 1e-3
    _verdict(3, "reconstructed costates match the analytic ones", ok,
             f"sup|l1-3|={e1:.2e}, sup|l2-(3.5-3t)|={e2:.2e}")


def test_criterion_04_brachistochrone_four_cases(
        brach_case1, brach_case2, brach_case3, brach_case4):
    pi_ref = np.array([-0.1477, 0.0564])
    cases = [("case1", brach_case1, 2e-3), ("case2", brach_case2, 2e-3),
             ("case3", brach_case3, 2e-3), ("case4", brach_case4, 2e-3)]
    details, ok = [], True
    for name, (report, _, _, _), pi_tol in cases:
        tf_err = abs(report.tf_final - 0.8165)
        pi_err = np.abs(report.pi_final - pi_ref).max()
        ok = ok and report.converged and tf_err <= 1e-3 and pi_err <= pi_tol
        details.append(f"{name}: converged={report.converged}, tf_err={tf_err:.1e}, "
                       f"pi_err={pi_err:.1e}")
    _verdict(4, "all four descent parameterizations converge to t_f = 0.8165", ok,
             "; ".join(details))


def test_criterion_05_case1_parameters_and_case2_agreement(
        brach_case1, brach_case2):
    rep1, _, _, par1 = brach_case1
    rep2, _, _, par2 = brach_case2
    p_err = np.abs(rep1.p_final - np.array([0.0, 1.4771, 0.0, 0.0, 0.0])).max()
    t_hi = min(rep1.tf_final, rep2.tf_final)
    ts = np.linspace(0.0, t_hi, 201)
    u1 = par1.eval(ts, rep1.p_final, rep1.tf_final)[:, 0]
    u2 = par2.eval(ts, rep2.p_final, rep2.tf_final)[:, 0]
    sup = np.abs(u1 - u2).max()
    pi_gap = np.abs(rep1.pi_final - rep2.pi_final).max()
    ok = p_err <= 2e-3 and sup <= 2e-3 and pi_gap <= 1e-3
    _verdict(5, "case1 parameters are the linear law; case1/case2 solutions agree",
             ok, f"|p-ref|={p_err:.1e}, sup|u1-u2|={sup:.1e}, |pi1-pi2|={pi_gap:.1e}")


def test_criterion_06_constraint_decay_law(e1_decay_solve):
    _, trace, _, _ = e1_decay_solve
    taus = trace.taus()
    g = trace.column("g_norm")
    i50 = int(np.argmin(np.abs(taus - 50.0)))
    assert taus[i50] == 50.0
    ratio = g[i50] / g[0]
    rel = abs(ratio - np.exp(-5.0)) / np.exp(-5.0)
    logs = np.log(g)
    above = g > 1e-6
    mono = all(logs[i + 1] <= logs[i] + 1e-12
               for i in range(len(g) - 1) if above[i] and above[i + 1])
    ok = rel <= 0.2 and mono
    _verdict(6, "||g|| decays like exp(-0.1 tau), monotone to the 1e-6 floor",
             ok, f"ratio rel err={rel:.1e}, monotone={mono}")


def test_criterion_07_gradient_oracle(example1, brach):
    worst = 0.0
    rng = np.random.default_rng(31)
    for bp, order, p_scale, tf_rng in ((example1, 3, 2.0, None),
                                       (brach, 4, 0.8, (0.8, 1.2))):
        prob = bp.prob
        par = make_basis("global_polynomial", m=1, t0=prob.t0, form="form1",
                         order=order)
        for _ in range(5):
            p = rng.uniform(-p_scale, p_scale, par.s)
            t_f = prob.tf_fixed if tf_rng is None else rng.uniform(*tf_rng)
            x = solve_state(prob, par, p, t_f, TIGHT)
            b = solve_adjoints(prob, par, p, x, t_f)
            grads = nlp_gradients(prob, par, b, p, t_f, QuadratureSpec())
            h = 1e-4
            fd = np.empty((1 + prob.q, par.s + 1))

            def Jg_of(pv, tfv):
                # J and g from one forward solve
                _, J, g = simulate_control(prob, lambda t: par.eval(t, pv, tfv),
                                           tfv, TIGHT)
                return np.append(J, g)

            for i in range(par.s):
                dp = np.zeros(par.s)
                dp[i] = h
                fd[:, i] = (Jg_of(p + dp, t_f) - Jg_of(p - dp, t_f)) / (2 * h)
            fd[:, -1] = (Jg_of(p, t_f + h) - Jg_of(p, t_f - h)) / (2 * h)
            fd_f, fd_g = fd[0], fd[1:]
            worst = max(worst,
                        np.abs(grads.r - fd_f).max()
                        / max(1.0, np.abs(fd_f).max()),
                        np.abs(grads.Gamma.T - fd_g).max()
                        / max(1.0, np.abs(fd_g).max()))
    ok = worst <= 1e-3
    _verdict(7, "assembled gradients match central differences", ok,
             f"worst rel err={worst:.2e}")


def test_criterion_08_gradient_flow_consistency(example1, brach):
    rng = np.random.default_rng(7)
    worst = 0.0
    par1 = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    for _ in range(5):
        p = rng.uniform(-2.0, 2.0, 4)
        it1 = evaluate_iterate(EvolutionMode.form1(), example1.prob, par1,
                               example1.gains, p, 2.0)
        K_theta = np.linalg.inv(it1.quantities.M)
        itg = evaluate_iterate(EvolutionMode.gradient_flow(K_theta),
                               example1.prob, par1, example1.gains, p, 2.0)
        worst = max(worst, np.abs(it1.dtheta - itg.dtheta).max()
                    / max(1.0, np.abs(it1.dtheta).max()))
    par2 = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=4)
    for _ in range(5):
        p = rng.uniform(-0.5, 1.5, 5)
        t_f = rng.uniform(0.8, 1.2)
        it1 = evaluate_iterate(EvolutionMode.form1(), brach.prob, par2,
                               brach.gains, p, t_f)
        # free t_f: the form-1 metric is M_ptf = diag(M_p, 1/k_tf)
        K_theta = np.linalg.inv(it1.quantities.M)
        itg = evaluate_iterate(EvolutionMode.gradient_flow(K_theta), brach.prob,
                               par2, brach.gains, p, t_f)
        d1, dg = it1.dtheta, itg.dtheta
        worst = max(worst, np.abs(d1 - dg).max() / max(1.0, np.abs(d1).max()))
    ok = worst <= 1e-10
    _verdict(8, "gradient flow with the inverse-Gram gain equals form1", ok,
             f"worst rel err={worst:.2e}")


def test_criterion_09_projection_suite(example1, e1_form1_solve):
    rng = np.random.default_rng(23)
    spec = InnerProductSpec(t0=0.0, t_f=1.5, weight=np.eye(1))
    worst = {"idem": 0.0, "orth": 0.0, "pyth": 0.0}
    for _ in range(10):
        C = rng.uniform(-1.0, 1.0, (3, 4))
        basis = BasisSet(
            A=lambda ts, C=C: (np.vander(ts, 4, increasing=True) @ C.T)[:, None, :])
        fc = rng.uniform(-1.0, 1.0, 6)
        f = lambda ts, fc=fc: (np.vander(ts, 6, increasing=True) @ fc)[:, None]
        coords, proj = project(spec, basis, f)
        coords2, _ = project(spec, basis, proj)
        worst["idem"] = max(worst["idem"], np.abs(coords - coords2).max())
        ts, w = spec.grid()
        resid = f(ts) - proj(ts)
        worst["orth"] = max(worst["orth"], np.abs(
            np.einsum("t,tdk,td->k", w, basis.at(ts), resid)).max())
        nf, npj = weighted_norm(spec, f), weighted_norm(spec, proj)
        nr = weighted_norm(spec, lambda ts: f(ts) - proj(ts))
        worst["pyth"] = max(worst["pyth"], abs(nf**2 - npj**2 - nr**2))

    # dual stationarity residuals along the example-1 trace
    report, trace, _, par = e1_form1_solve
    prob, gains = example1.prob, example1.gains
    K_inv = gains.K_inv_const
    K = np.linalg.inv(K_inv)
    covanish = True
    bounds = None
    final_norms = (np.inf, np.inf)
    for row in [r for r in trace.rows if r.tau in (0.0, 2.0, 10.0, 50.0)] \
            + [trace.rows[-1]]:
        it = evaluate_iterate(EvolutionMode.form1(), prob, par, gains, row.p, 2.0)
        b = it.bundle

        def basis_fn(ts, p=row.p):
            return np.einsum("mn,tns->tms", K_inv, par.jac_p(ts, p, 2.0))

        def p_u(ts, b=b, p=row.p):
            xs, us = b.x_at(ts), par.eval(ts, p, 2.0)
            mus, _ = b.mu_psi_at(ts)
            fu = np.asarray(prob.f_u(xs, us, ts))
            return np.asarray(prob.L_u(xs, us, ts)) \
                + np.einsum("tnm,tn->tm", fu, mus)

        def fupsi(ts, b=b, p=row.p):
            xs, us = b.x_at(ts), par.eval(ts, p, 2.0)
            _, psis = b.mu_psi_at(ts)
            return np.einsum("tnm,tnq->tmq", np.asarray(prob.f_u(xs, us, ts)), psis)

        sp = InnerProductSpec(t0=0.0, t_f=2.0, weight=K)
        rep = projected_stationarity_check(sp, BasisSet(A=basis_fn), p_u, fupsi, it.pi)
        if bounds is None:
            lam = np.linalg.eigvalsh(it.quantities.M)
            bounds = (np.sqrt(lam[0]), np.sqrt(lam[-1]))
        if rep.coord_residual_norm > 1e-12:
            ratio = rep.function_residual_norm / rep.coord_residual_norm
            covanish &= bounds[0] * 0.99 <= ratio <= bounds[1] * 1.01
        final_norms = (rep.function_residual_norm, rep.coord_residual_norm)
    covanish &= final_norms[0] <= 1e-3 and final_norms[1] <= 1e-3

    ok = max(worst.values()) <= 1e-8 and covanish
    _verdict(9, "projection invariants hold; dual residuals co-vanish", ok,
             f"idem={worst['idem']:.1e}, orth={worst['orth']:.1e}, "
             f"pyth={worst['pyth']:.1e}, covanish={covanish}")


def test_criterion_10_capacity_monotonicity(brach_order_scan):
    tfs = {k: r.tf_final for k, r in brach_order_scan.items()}
    ok = (abs(tfs[0] - 0.8944) <= 1e-3
          and abs(tfs[1] - 0.8165) <= 1e-3
          and abs(tfs[2] - 0.8165) <= 1e-3
          and tfs[0] >= tfs[1] >= tfs[2] - 1e-12)
    _verdict(10, "converged t_f is nonincreasing in basis capacity", ok,
             f"tf(order 0..2) = {tfs[0]:.4f}, {tfs[1]:.4f}, {tfs[2]:.4f}")
