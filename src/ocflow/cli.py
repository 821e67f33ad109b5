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
import numbers
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .costate import reconstruct_costate
from .errors import ConfigurationError, OcflowError
from .evolution import (EvolutionMode, EvolutionState, StopCriteria, _check_compat,
                        _resolve_init, solve_evolution)
from .integrate import OdeSettings
from .parameterization import FORM1, FORM2, make_basis
from .problem import Gains, _central_diff, simulate_control
from .problems import get_problem, list_problems
from .projection import BasisSet, InnerProductSpec, project, weighted_norm
from .quadrature import QuadratureSpec, _gram
from .sensitivity import nlp_gradients, solve_adjoints, solve_state

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigurationError(msg)


# the keys each config section accepts; "form" rides along in the built-in
# problems' recommended parameterizations (the mode decides the form), and
# stop and ode sections take exactly their settings' fields
_SECTION_KEYS = {
    "parameterization": ("kind", "order", "N", "n_segments", "form"),
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


def _number(value, key: str, integer: bool = False):
    """``value`` as a float, or an int when ``integer``.

    Anything else, a boolean or numeric text included, is a config error
    naming ``key``.
    """
    kind = numbers.Integral if integer else numbers.Real
    _require(isinstance(value, kind) and not isinstance(value, bool),
             f"{key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _gain(value, key: str):
    """A gain, a number or nested lists of numbers, read entry by entry."""
    if isinstance(value, list):
        return [_gain(v, key) for v in value]
    return _number(value, key)


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
    in a section, is a config error; so is a mode that cannot run with the
    problem, basis and gains, or a non-finite initial iterate (the solver's
    own checks, made before any solve).
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
    _require(mode_name in ("form1", "form2", "gradient_flow"),
             f"mode must be form1|form2|gradient_flow, got {mode_name!r}")

    par_cfg = _section(raw, "parameterization", bundle.recommended)
    kind = par_cfg.get("kind")
    _require(kind is not None, "parameterization needs a 'kind'")
    n_segments = par_cfg.get("N", par_cfg.get("n_segments"))
    _require(par_cfg.get("n_segments", n_segments) == n_segments,
             f"parameterization: N = {n_segments!r} and n_segments = "
             f"{par_cfg.get('n_segments')!r} differ; give one of them")
    try:
        par = make_basis(kind, m=prob.m, t0=prob.t0,
                         form=FORM2 if mode_name == "form2" else FORM1,
                         order=par_cfg.get("order"), n_segments=n_segments)
    except OcflowError as exc:
        raise ConfigurationError(f"parameterization: {exc}") from None

    g_cfg = _section(raw, "gains")
    k_tf = _number(g_cfg.get("k_tf", 0.1 if prob.tf_mode == "free" else 0.0), "gains.k_tf")
    K, K_g = (_gain(g_cfg.get(key, 0.1), f"gains.{key}") for key in ("K", "K_g"))
    K_theta = _gain(g_cfg["K_theta"], "gains.K_theta") if "K_theta" in g_cfg else None
    try:
        gains = Gains.constant(K=K, m=prob.m, q=prob.q, k_tf=k_tf, K_g=K_g)
        mode = {"form1": EvolutionMode.form1, "form2": EvolutionMode.form2,
                "gradient_flow": lambda: EvolutionMode.gradient_flow(K_theta)}[mode_name]()
    except (OcflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"gains: {exc}") from None
    init_cfg = _section(raw, "init")
    p0 = init_cfg.get("p", "zeros")
    if isinstance(p0, str):
        _require(p0 == "zeros", f"init.p must be a vector or 'zeros', got {p0!r}")
        p0 = np.zeros(par.s)
    else:
        try:
            p0 = np.asarray(p0, dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError(f"init.p is not a numeric vector: {p0!r}") from None
        _require(p0.shape == (par.s,),
                 f"init.p has {p0.size} entries, the basis needs {par.s}")
    t_f0 = _number(init_cfg.get("t_f", prob.tf_fixed if prob.tf_mode == "fixed" else 1.0),
                   "init.t_f")
    init = EvolutionState(p=p0, t_f=t_f0)
    _check_compat(mode, prob, par, gains)
    _resolve_init(prob, init)

    stop_kw = {k: _number(v, f"stop.{k}") for k, v in _section(raw, "stop").items()}
    try:
        stop = StopCriteria(**stop_kw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"stop: {exc}") from None

    def ode_from(key):
        kw = {k: _number(v, f"{key}.{k}", integer=k == "max_steps")
              for k, v in _section(raw, key).items()}
        try:
            return OdeSettings(**kw)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{key}: {exc}") from None

    ode_inner, ode_outer = ode_from("ode_inner"), ode_from("ode_outer")

    nodes = _number(raw.get("quad_nodes", 201), "quad_nodes", integer=True)
    try:
        quad = QuadratureSpec(nodes=nodes)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"quad_nodes: {exc}") from None

    out_dir = raw.get("out_dir", "out")
    return bundle, par, gains, mode, init, stop, ode_inner, ode_outer, quad, out_dir


def _write_columns(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
    """Adjoint-assembled gradients vs central differences of simulated values."""
    ode = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
    p, t_f = init.p, init.t_f
    x_traj = solve_state(prob, par, p, t_f, ode)
    grads = nlp_gradients(prob, par, solve_adjoints(prob, par, p, x_traj, t_f),
                          p, t_f, quad)

    def Jg_of(theta):
        pv, tfv = theta[:-1], theta[-1]
        _, J, g = simulate_control(prob, par.bind(pv, tfv), tfv, ode,
                                   breakpoints=par.breakpoints(tfv))
        return np.concatenate([[J], g])

    fd = _central_diff(Jg_of, np.append(p, t_f), h=1e-4)
    fd_f, fd_g = fd[0], fd[1:]

    results = []
    tol = 1e-3
    scale_f = max(1.0, float(np.abs(fd_f).max()))
    err_f = float(np.abs(grads.r - fd_f).max()) / scale_f
    results.append({"name": "objective_gradient_vs_fd", "value": err_f,
                    "tol": tol, "passed": err_f <= tol})
    if prob.q:
        scale_g = max(1.0, float(np.abs(fd_g).max()))
        err_g = float(np.abs(grads.Gamma.T - fd_g).max()) / scale_g
        results.append({"name": "constraint_jacobian_vs_fd", "value": err_g,
                        "tol": tol, "passed": err_g <= tol})
    return results


def _check_projection(prob, init, quad) -> list[dict]:
    """Idempotence, residual orthogonality and the norm identity, randomized."""
    rng = np.random.default_rng(0)
    t0, t_f = prob.t0, init.t_f
    spec = InnerProductSpec(t0=t0, t_f=t_f, weight=np.eye(1), quad=quad)
    results = []
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
    for name, val in worst.items():
        results.append({"name": f"projection_{name}", "value": val,
                        "tol": 1e-8, "passed": val <= 1e-8})
    return results


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
