"""The benchmark's three solver workloads.

Each workload builds its inputs from a seed, runs one certified solve
(``solve_evolution`` followed by costate reconstruction, the basis-free
multiplier and the optimality residuals) and checks the answer against the
acceptance suite's own bounds.  Library functions are always reached through
their module attribute at call time, so the tracer's wrappers take effect.

Seed 0 reproduces the acceptance configurations exactly (p0 = 0, and
t_f0 = 1 for the Brachistochrone).  Any other seed adds a uniform draw in
[-PERTURBATION, PERTURBATION] to every entry of p0, and to t_f0 when the
terminal time is free.  A seed changes the amount of work, so compare
commits on the same seed only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ocflow
from ocflow import cli, costate, evolution, sensitivity

PERTURBATION = 0.05
LAMBDA_POINTS = 401

P_STAR = np.array([-3.5, 3.0, 0.0, 0.0])
PI_STAR = np.array([3.0, -2.5])
TF_REF = 0.8165
PI_REF = np.array([-0.1477, 0.0564])

# The CLI's step-control config (tests/test_cli.py, step case).
BRACH_PWC20_CONFIG = {
    "problem": "brachistochrone", "mode": "form2",
    "parameterization": {"kind": "piecewise_constant", "N": 20},
    "init": {"t_f": 1.0}, "stop": {"tau_max": 300.0, "record_every": 10.0},
}


@dataclass
class Case:
    """Everything one workload passes to the solver, built before timing."""

    prob: ocflow.OcpProblem
    par: ocflow.Parameterization
    gains: ocflow.Gains
    mode: ocflow.EvolutionMode
    init: ocflow.EvolutionState
    stop: ocflow.StopCriteria
    check: Callable[["Outcome"], list[tuple[str, float, float]]]
    ode_inner: ocflow.OdeSettings | None = None
    ode_outer: ocflow.OdeSettings | None = None
    quad: ocflow.QuadratureSpec = field(default_factory=ocflow.QuadratureSpec)


@dataclass
class Outcome:
    """The certified answer of one solve."""

    report: ocflow.SolveReport
    rows: int                    # trace rows, each of which re-ran a pipeline
    lam_ts: np.ndarray
    lam: np.ndarray              # (LAMBDA_POINTS, n) costate samples
    pi_continuous: np.ndarray
    residuals: ocflow.OptimalityResiduals


def _draw(seed: int, p0: np.ndarray, t_f0: float, free_tf: bool):
    if seed == 0:
        return p0, t_f0
    rng = random.Random(seed)
    dp = np.array([rng.uniform(-PERTURBATION, PERTURBATION) for _ in p0])
    dtf = rng.uniform(-PERTURBATION, PERTURBATION) if free_tf else 0.0
    return p0 + dp, t_f0 + dtf


def _e1_check(with_costate: bool):
    def check(out: Outcome):
        rep = out.report
        items = [("p", float(np.abs(rep.p_final - P_STAR).max()), 1e-3),
                 ("pi", float(np.abs(rep.pi_final - PI_STAR).max()), 1e-3)]
        if with_costate:
            ts = out.lam_ts
            items += [("lambda_1", float(np.abs(out.lam[:, 0] - 3.0).max()), 1e-3),
                      ("lambda_2", float(np.abs(out.lam[:, 1] - (3.5 - 3.0 * ts)).max()),
                       1e-3)]
        return items
    return check


def _brach_check(out: Outcome):
    rep = out.report
    return [("t_f", abs(rep.tf_final - TF_REF), 1e-3),
            ("pi", float(np.abs(rep.pi_final - PI_REF).max()), 7e-3)]


def _e1_case(seed: int, mode, stop, check) -> Case:
    bp = ocflow.make_example1()
    par = ocflow.make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    p0, t_f0 = _draw(seed, np.zeros(par.s), 2.0, free_tf=False)
    return Case(prob=bp.prob, par=par, gains=bp.gains, mode=mode,
                init=ocflow.EvolutionState(p=p0, t_f=t_f0), stop=stop, check=check)


def build_e1_form1(seed: int) -> Case:
    return _e1_case(seed, ocflow.EvolutionMode.form1(),
                    ocflow.StopCriteria(tau_max=300.0, record_every=1.0),
                    _e1_check(with_costate=True))


def build_e1_gradflow(seed: int) -> Case:
    return _e1_case(seed, ocflow.EvolutionMode.gradient_flow(0.1 * np.eye(4)),
                    ocflow.StopCriteria(tau_max=60000.0, record_every=250.0),
                    _e1_check(with_costate=False))


def build_brach_pwc20(seed: int) -> Case:
    (bundle, par, gains, mode, init, stop, ode_inner, ode_outer, quad,
     _out_dir) = cli.build_run(BRACH_PWC20_CONFIG)
    p0, t_f0 = _draw(seed, init.p, init.t_f, free_tf=True)
    return Case(prob=bundle.prob, par=par, gains=gains, mode=mode,
                init=ocflow.EvolutionState(p=p0, t_f=t_f0), stop=stop,
                check=_brach_check, ode_inner=ode_inner, ode_outer=ode_outer,
                quad=quad)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int], Case]] = {
    "e1_form1": build_e1_form1,
    "e1_gradflow": build_e1_gradflow,
    "brach_pwc20": build_brach_pwc20,
}


def certified_solve(case: Case) -> Outcome:
    """One solve from the call to solve_evolution to the end of certification."""
    prob, par, gains, quad = case.prob, case.par, case.gains, case.quad
    report, trace, bundle = evolution.solve_evolution(
        case.mode, prob, par, gains, case.init, case.stop,
        ode_outer=case.ode_outer, ode_inner=case.ode_inner, quad=quad)
    t_f = report.tf_final
    lam_ts = np.linspace(prob.t0, t_f, LAMBDA_POINTS)
    lam = costate.reconstruct_costate(prob, bundle, report.pi_final).lam_traj(lam_ts)
    g_val = np.asarray(prob.g(bundle.x_at(t_f), t_f), dtype=float)
    pi_c = costate.continuous_multiplier(prob, bundle, gains, g_val, quad)
    if par.form == ocflow.FORM2:
        quant = sensitivity.assemble_form2(prob, par, bundle, gains, report.p_final,
                                           t_f, quad)
    else:
        quant = sensitivity.assemble_form1(prob, par, bundle, gains, t_f, quad)
    residuals = costate.optimality_residuals(prob, par, quant, bundle,
                                             report.pi_final, g_val, quad)
    return Outcome(report=report, rows=len(trace.rows), lam_ts=lam_ts, lam=lam,
                   pi_continuous=pi_c, residuals=residuals)


def check_outcome(case: Case, out: Outcome) -> tuple[bool, str]:
    """Apply the workload's bounds; every certified quantity must be finite."""
    items = case.check(out)
    finite = (np.all(np.isfinite(out.lam)) and np.all(np.isfinite(out.pi_continuous))
              and np.all(np.isfinite(out.residuals.param_residual)))
    ok = finite and all(err <= bound for _, err, bound in items)
    detail = ", ".join(f"{name} err {err:.2e} (bound {bound:g})"
                       for name, err, bound in items)
    return ok, detail if finite else detail + ", non-finite certificate"
