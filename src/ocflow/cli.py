"""Batch front end: solve problems from a JSON config, emit plot-ready files.

Subcommands::

    ocflow solve --config run.json [--out DIR]
    ocflow check --config run.json --what {gradients,projection,all}
    ocflow list-problems

``solve`` writes trace.csv, trajectory.csv, costates.csv and report.json to
the output directory and exits 0 on convergence, 4 when tau_max was reached
first (files are still written), 2 on config errors, 3 on solver failures.
``check`` runs the finite-difference gradient oracle and the projection
invariants at the config's initial point, writes checks.json, and exits 5 if
any check fails.  Numbers in the CSV files carry 17 significant digits so a
parse round-trips bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .costate import reconstruct_costate
from .errors import ConfigurationError, OcflowError, _require_gain, _require_number
from .evolution import (_MODE_KINDS, EvolutionMode, EvolutionState, StopCriteria,
                        _check_compat, _resolve_init, solve_evolution)
from .integrate import OdeSettings
from .parameterization import FORM1, FORM2, _NODE_KINDS, make_basis
from .problem import _central_diff, _inverse_weight, _objective
from .problems import get_problem, list_problems
from .projection import BasisSet, InnerProductSpec, project, weighted_norm
from .quadrature import QuadratureSpec, _gram
from .sensitivity import nlp_gradients, solve_adjoints, solve_state

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


# the keys each config section accepts, one per setting (the mode decides the
# basis's form); stop and ode sections take exactly their settings' fields
_SECTION_KEYS = {
    "parameterization": ("kind", "order", "N"),
    "gains": ("K", "k_tf", "K_g", "K_theta"),
    "init": ("p", "t_f"),
    "stop": tuple(f.name for f in fields(StopCriteria)),
    "ode_inner": tuple(f.name for f in fields(OdeSettings)),
    "ode_outer": tuple(f.name for f in fields(OdeSettings)),
}
_TOP_KEYS = ("problem", "mode", *_SECTION_KEYS, "quad_nodes", "out_dir")


def _check_keys(cfg: dict, allowed, where: str) -> None:
    unknown = ", ".join(repr(k) for k in cfg if k not in allowed)
    _require(not unknown, f"{where}: unknown key(s) {unknown}; "
                          f"expected some of {', '.join(allowed)}")


def _section(raw: dict, key: str, default=None) -> dict:
    """Config section ``key`` (``default`` or {} when absent), its keys checked."""
    cfg = raw.get(key) or default or {}
    _require(isinstance(cfg, dict), f"{key} must be a JSON object")
    _check_keys(cfg, _SECTION_KEYS[key], key)
    return dict(cfg)


def _in(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ConfigurationError it raises names ``section`` first."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{section}: {exc}") from None


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config root must be a JSON object")
    return raw


def build_run(raw: dict):
    """Resolve a config dict into solver objects.

    Returns (problem bundle, parameterization, gains, mode, init, stop,
    ode_inner, ode_outer, quad, out_dir).  An unknown key, at the top level or
    in a section, is a config error.  Every value is judged by the solver's
    own records and checks, made before any solve, a mode that cannot run with
    the problem, basis and gains included; a refusal names its config section.
    """
    _check_keys(raw, _TOP_KEYS, "config")
    name = raw.get("problem")
    _require(isinstance(name, str), "config needs a 'problem' name")
    try:
        bundle = get_problem(name)
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from None
    prob = bundle.prob

    mode_name = raw.get("mode", "form1")
    _require(mode_name in _MODE_KINDS,
             f"mode must be {'|'.join(_MODE_KINDS)}, got {mode_name!r}")

    par_cfg = _section(raw, "parameterization", bundle.recommended)
    kind, N = par_cfg.get("kind"), par_cfg.get("N")
    _require(kind is not None, "parameterization needs a 'kind'")
    if kind in _NODE_KINDS:             # N is the config's name of n_segments
        N = _require_number(N, "parameterization.N", integer=True, least=1)
    par = _in("parameterization", make_basis, kind, m=prob.m, t0=prob.t0,
              form=FORM2 if mode_name == "form2" else FORM1,
              order=par_cfg.get("order"), n_segments=N)

    # the problem's own gains, each key given replacing that one value
    g_cfg = _section(raw, "gains")
    K_theta = g_cfg.pop("K_theta", None)
    if "K" in g_cfg:
        g_cfg["K_inv"] = _in("gains", _inverse_weight, g_cfg.pop("K"), prob.m)
    if "K_g" in g_cfg:
        g_cfg["K_g"] = _in("gains", _require_gain, g_cfg["K_g"], "K_g", prob.q)
    gains = _in("gains", replace, bundle.gains, **g_cfg)
    mode = _in("gains", EvolutionMode, mode_name, K_theta)
    _check_compat(mode, prob, par, gains)
    init_cfg = _section(raw, "init")
    p0 = init_cfg.get("p", "zeros")
    p0, t_f0 = _resolve_init(prob, EvolutionState(
        p=np.zeros(par.s) if isinstance(p0, str) and p0 == "zeros" else p0,
        t_f=init_cfg.get("t_f", prob.tf_fixed if prob.tf_mode == "fixed" else 1.0)))
    _require(p0.shape == (par.s,), f"init.p has {p0.size} entries, the basis needs {par.s}")
    init = EvolutionState(p=p0, t_f=t_f0)

    stop, ode_inner, ode_outer = (_in(key, cls, **_section(raw, key)) for key, cls in (
        ("stop", StopCriteria), ("ode_inner", OdeSettings), ("ode_outer", OdeSettings)))
    quad = _in("quad_nodes", QuadratureSpec, nodes=raw.get("quad_nodes", 201))

    out_dir = raw.get("out_dir", "out")
    return bundle, par, gains, mode, init, stop, ode_inner, ode_outer, quad, out_dir


def _write_columns(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % float(v) for v in row) + "\n")


def cmd_solve(args) -> int:
    raw = load_config(args.config)
    if args.out is not None:
        raw["out_dir"] = args.out
    (bundle, par, gains, mode, init, stop, ode_inner, ode_outer, quad,
     out_dir) = build_run(raw)
    prob = bundle.prob

    report, trace, adj = solve_evolution(mode, prob, par, gains, init, stop,
                                         ode_outer=ode_outer, ode_inner=ode_inner,
                                         quad=quad)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_columns(out / "trace.csv",
                   ["tau"] + [f"p_{i}" for i in range(par.s)] + ["t_f"]
                   + [f"pi_{i}" for i in range(prob.q)] + ["J", "g_norm", "residual_norm", "V"],
                   [[r.tau, *r.p, r.t_f, *r.pi, r.J, r.g_norm, r.residual_norm, r.V]
                    for r in trace.rows])

    ts = np.linspace(prob.t0, report.tf_final, 401)
    xs = adj.x_at(ts)
    us = par.eval(ts, report.p_final, report.tf_final)
    _write_columns(out / "trajectory.csv",
                   ["t"] + [f"x_{i}" for i in range(prob.n)]
                   + [f"u_{i}" for i in range(prob.m)],
                   np.column_stack([ts, xs, us]))

    lam = reconstruct_costate(prob, adj, report.pi_final).lam_traj(ts)
    _write_columns(out / "costates.csv",
                   ["t"] + [f"lambda_{i}" for i in range(prob.n)],
                   np.column_stack([ts, lam]))

    with open(out / "report.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    print(f"{'converged' if report.converged else 'NOT converged'} at tau = "
          f"{report.tau_reached:g} (residual {report.residual_norm:.3e}, "
          f"||g|| {report.g_norm:.3e}); wrote {out}/")
    return 0 if report.converged else 4


def _check_gradients(prob, par, init, quad) -> list[dict]:
    """Adjoint-assembled gradients vs central differences of simulated values;
    the 2 dim(theta) points of theta = (p[, t_f]) run as one solve's lanes,
    the t_f points each at its own rate.  A fixed t_f has no column: a node
    basis's nodes would move with it, while form 1 holds them fixed by design."""
    ode = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
    p, t_f, with_tf = init.p, init.t_f, prob.tf_mode == "free"
    x_traj = solve_state(prob, par, p, t_f, ode)
    grads = nlp_gradients(prob, par, solve_adjoints(prob, par, p, x_traj), p, t_f, quad,
                          with_tf=with_tf)

    def Jg(thetas):                     # [J, g] per lane of a stack of thetas
        P, tfs = (thetas[:, :-1], thetas[:, -1]) if with_tf else (thetas, t_f)
        J, g = _objective(prob, solve_state(prob, par, P, tfs, ode))
        return np.concatenate([J[:, None], g], -1)

    fd = _central_diff(Jg, np.append(p, t_f) if with_tf else p, h=1e-4, batch=True)
    results = []
    for name, got, want in (("objective_gradient_vs_fd", grads.r, fd[0]),
                            ("constraint_jacobian_vs_fd", grads.Gamma.T, fd[1:])):
        if want.size:                   # no constraint rows when q = 0
            err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
            results.append({"name": name, "value": err, "tol": 1e-3, "passed": err <= 1e-3})
    return results


def _check_projection(prob, init, quad) -> list[dict]:
    """Idempotence, residual orthogonality and the norm identity, randomized."""
    rng = np.random.default_rng(0)
    t0, t_f = prob.t0, init.t_f
    spec = InnerProductSpec(t0=t0, t_f=t_f, weight=np.eye(1), quad=quad)
    worst = {"idempotence": 0.0, "orthogonality": 0.0, "pythagoras": 0.0}
    for _ in range(10):
        coeff = rng.uniform(-1, 1, (3, 4))
        basis = BasisSet(
            A=lambda ts, c=coeff: np.stack(
                [np.vander(ts, 4, increasing=True) @ c[j] for j in range(3)],
                axis=-1)[:, None, :])
        fc = rng.uniform(-1, 1, 6)
        f = lambda ts, fc=fc: (np.vander(ts, 6, increasing=True) @ fc)[:, None]
        coords, proj = project(spec, basis, f)
        coords2, _ = project(spec, basis, lambda ts: proj(ts))
        worst["idempotence"] = max(worst["idempotence"],
                                   float(np.abs(coords - coords2).max()))
        ts, w = spec.grid()
        resid = f(ts) - proj(ts)
        ortho = _gram(w, spec.weight_at(ts), basis.at(ts), resid[..., None])
        worst["orthogonality"] = max(worst["orthogonality"], float(np.abs(ortho).max()))
        n_f = weighted_norm(spec, f)
        n_p = weighted_norm(spec, lambda ts: proj(ts))
        n_r = weighted_norm(spec, lambda ts: f(ts) - proj(ts))
        worst["pythagoras"] = max(worst["pythagoras"],
                                  abs(n_f**2 - n_p**2 - n_r**2))
    return [{"name": f"projection_{name}", "value": val, "tol": 1e-8, "passed": val <= 1e-8}
            for name, val in worst.items()]


def cmd_check(args) -> int:
    raw = load_config(args.config)
    (bundle, par, gains, mode, init, stop, ode_inner, ode_outer, quad,
     out_dir) = build_run(raw)
    prob = bundle.prob

    results = []
    if args.what in ("gradients", "all"):
        results += _check_gradients(prob, par, init, quad)
    if args.what in ("projection", "all"):
        results += _check_projection(prob, init, quad)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "checks.json", "w") as fh:
        json.dump({"what": args.what, "checks": results}, fh, indent=2)
        fh.write("\n")
    failures = [r for r in results if not r["passed"]]
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: "
              f"{r['value']:.3e} (tol {r['tol']:.1e})")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 5
    return 0


def cmd_list_problems(_args) -> int:
    for name in list_problems():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocflow",
        description="Direct-shooting optimal control by virtual-time gradient flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None, help="override config out_dir")
    p_solve.set_defaults(fn=cmd_solve)

    p_check = sub.add_parser("check", help="run gradient/projection oracles")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--what", choices=("gradients", "projection", "all"),
                         default="all")
    p_check.set_defaults(fn=cmd_check)

    p_list = sub.add_parser("list-problems", help="list built-in problem names")
    p_list.set_defaults(fn=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OcflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
