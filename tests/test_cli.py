import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocflow
from ocflow import (EvolutionMode, EvolutionState, StopCriteria, make_basis,
                    solve_evolution, solve_state)
from ocflow import cli
from ocflow.cli import main
from ocflow.problems import _REGISTRY, register_problem


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {"problem": "example1", "out_dir": str(tmp_path / "out")}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_solve_example1_writes_artifacts(tmp_path):
    path, cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    out = tmp_path / "out"
    for fname in ("trace.csv", "trajectory.csv", "costates.csv", "report.json"):
        assert (out / fname).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    np.testing.assert_allclose(report["p_final"], [-3.5, 3.0, 0.0, 0.0], atol=1e-3)
    np.testing.assert_allclose(report["pi_final"], [3.0, -2.5], atol=1e-3)


def test_trace_roundtrips_bit_exactly(tmp_path):
    path, _ = write_config(tmp_path, stop={"tau_max": 20.0, "record_every": 1.0,
                                           "tol_opt": 1e-12, "tol_feas": 1e-12})
    assert main(["solve", "--config", str(path)]) == 4    # tau_max before tolerance
    lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])

    # identical in-memory solve (everything is deterministic)
    from ocflow import make_example1
    bp = make_example1()
    par = make_basis("global_polynomial", m=1, t0=0.0, form="form1", order=3)
    _, trace, _ = solve_evolution(
        EvolutionMode.form1(), bp.prob, par, bp.gains,
        EvolutionState(p=np.zeros(4), t_f=2.0),
        StopCriteria(tau_max=20.0, record_every=1.0, tol_opt=1e-12, tol_feas=1e-12))
    assert len(trace.rows) == parsed.shape[0]
    for row, vals in zip(trace.rows, parsed):
        mem = np.array([row.tau, *row.p, row.t_f, *row.pi, row.J, row.g_norm,
                        row.residual_norm, row.V])
        assert np.array_equal(mem, vals)


def test_report_schema_stable_across_problems(tmp_path):
    p1, _ = write_config(tmp_path, name="a.json", out_dir=str(tmp_path / "o1"))
    main(["solve", "--config", str(p1)])
    p2, _ = write_config(
        tmp_path, name="b.json", problem="brachistochrone", mode="form2",
        parameterization={"kind": "lagrange_nodes", "N": 4},
        init={"t_f": 1.0}, stop={"tau_max": 2.0},
        out_dir=str(tmp_path / "o2"))
    assert main(["solve", "--config", str(p2)]) == 4      # not converged, files written
    k1 = set(json.loads((tmp_path / "o1" / "report.json").read_text()))
    k2 = set(json.loads((tmp_path / "o2" / "report.json").read_text()))
    assert k1 == k2
    assert (tmp_path / "o2" / "trace.csv").exists()


def test_trajectory_and_costate_headers(tmp_path):
    path, _ = write_config(tmp_path, stop={"tau_max": 5.0})
    main(["solve", "--config", str(path)])
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x_0,x_1,u_0"
    cost = (tmp_path / "out" / "costates.csv").read_text().splitlines()
    assert cost[0] == "t,lambda_0,lambda_1"
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "tau,p_0,p_1,p_2,p_3,t_f,pi_0,pi_1,J,g_norm,residual_norm,V"


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2

    path, _ = write_config(tmp_path, problem="missing-problem")
    assert main(["solve", "--config", str(path)]) == 2

    path, _ = write_config(tmp_path, ode_outer={"rel_tol": -1.0})
    assert main(["solve", "--config", str(path)]) == 2
    assert "rel_tol" in capsys.readouterr().err

    path, _ = write_config(tmp_path, init={"p": [1.0, 2.0]})
    assert main(["solve", "--config", str(path)]) == 2

    path, _ = write_config(tmp_path, init={"p": ["a", "b", "c", "d"]})
    assert main(["solve", "--config", str(path)]) == 2

    path, _ = write_config(tmp_path, init={"t_f": "soon"})
    assert main(["solve", "--config", str(path)]) == 2

    # c1 is a constant of the trace's V, not a setting
    path, _ = write_config(tmp_path, stop={"c1": 0.01})
    assert main(["solve", "--config", str(path)]) == 2
    assert "stop: unknown key(s) 'c1'" in capsys.readouterr().err

    path, _ = write_config(tmp_path, mode="gradient_flow", gains={"K_theta": -1.0})
    assert main(["solve", "--config", str(path)]) == 2
    assert "K_theta" in capsys.readouterr().err

    # modes the solver would refuse are refused before any pipeline runs
    import ocflow.evolution as evolution

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "solve_state", lambda *a, **k: pytest.fail("a pipeline ran"))
        for overrides, needle in (({"mode": "gradient_flow"}, "needs K_theta"),
                                  ({"problem": "brachistochrone", "gains": {"k_tf": 0}},
                                   "free t_f requires k_tf > 0"),
                                  ({"mode": "gradient_flow",
                                    "gains": {"K_theta": [[1, 0], [0, 1]]}},
                                   "K_theta has shape (2, 2), expected (1, 1) or (4, 4)"),
                                  ({"gains": {"K_theta": 0.1}},
                                   "gains: form1 mode takes no K_theta"),
                                  ({"problem": "brachistochrone", "mode": "form2",
                                    "parameterization": {"kind": "piecewise_constant",
                                                         "N": 4},
                                    "gains": {"K_theta": 0.1}},
                                   "gains: form2 mode takes no K_theta")):
            path, _ = write_config(tmp_path, **overrides)
            assert main(["solve", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error: " in err and needle in err

    for gains in ({"K": "abc"}, {"k_tf": "abc"}, {"K_theta": "abc"}):
        path, _ = write_config(tmp_path, mode="gradient_flow", gains=gains)
        assert main(["solve", "--config", str(path)]) == 2

    # values JSON would coerce (booleans, fractions for integer keys, numeric
    # text) are refused, naming the section and key; so are wrongly shaped gains
    for overrides, key in (({"ode_inner": {"max_steps": 2.5}}, "ode_inner: max_steps"),
                           ({"ode_inner": {"max_steps": True}}, "ode_inner: max_steps"),
                           ({"stop": {"tau_max": True}}, "stop: tau_max"),
                           ({"stop": {"tau_max": "abc"}}, "stop: tau_max"),
                           ({"quad_nodes": 201.5}, "quad_nodes"),
                           ({"init": {"t_f": True}}, "init.t_f"),
                           ({"gains": {"K_g": True}}, "gains: K_g"),
                           ({"gains": {"K_g": [[1.0, 0.0], [0.0, True]]}}, "gains: K_g"),
                           ({"gains": {"K": [[False]]}}, "gains: K"),
                           ({"gains": {"K_g": np.eye(3).tolist()}}, "K_g")):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    path, _ = write_config(tmp_path, ode_inner={"initial_step": 0})
    assert main(["solve", "--config", str(path)]) == 2
    assert "initial_step" in capsys.readouterr().err

    path, _ = write_config(tmp_path, quad_nodes=200)
    assert main(["solve", "--config", str(path)]) == 2
    assert "quad_nodes: nodes must be an odd integer >= 3" in capsys.readouterr().err

    bad.write_text("[1, 2]")
    assert main(["solve", "--config", str(bad)]) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err

    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_keys_exit_2(tmp_path, capsys):
    # misspelled keys used to run silently on the defaults
    for overrides, where, bad in (
            ({"stop": {"tau_mx": 5.0}}, "stop", "tau_mx"),
            ({"stop": {"tau_max": 5.0, "record_evry": 1.0}}, "stop", "record_evry"),
            ({"stop": {"pi_bound": 1e6}}, "stop", "pi_bound"),
            ({"ode_inner": {"reltol": 1e-6}}, "ode_inner", "reltol"),
            ({"ode_outer": {"abs_tol": 1e-8, "initial_step": 1e-3}}, "ode_outer",
             "initial_step"),
            ({"gains": {"K_gain": 0.1}}, "gains", "K_gain"),
            ({"init": {"tf": 2.0}}, "init", "tf"),
            ({"parameterization": {"kind": "global_polynomial", "order": 3,
                                   "nodes": 4}}, "parameterization", "nodes"),
            ({"quad_node": 201}, "config", "quad_node"),
            ({"parametrization": {"kind": "global_polynomial"}}, "config",
             "parametrization")):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(path)]) == 2
        assert f"config error: {where}: unknown key(s) {bad!r};" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_accepted_key_spellings():
    # N alone sizes a piecewise basis, and the mode alone decides its form,
    # so the built-in recommended parameterizations carry no "form" either
    par = cli.build_run({"problem": "brachistochrone", "mode": "form2",
                         "parameterization": {"kind": "piecewise_constant", "N": 6}})[1]
    assert par.s == 6 and par.form == "form2"
    for name in ("example1", "brachistochrone"):
        assert set(ocflow.get_problem(name).recommended) <= {"kind", "order", "N"}


def test_conflicting_basis_sizes_exit_2(tmp_path, capsys):
    # N is the one key for a basis's size; n_segments next to it is unknown
    path, _ = write_config(tmp_path, parameterization={"kind": "piecewise_constant",
                                                       "N": 4, "n_segments": 8})
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: parameterization: unknown key(s) 'n_segments';" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("par_cfg, key", [
    ({"kind": "piecewise_constant", "n_segments": 6}, "n_segments"),
    ({"kind": "global_polynomial", "order": 3, "form": "form1"}, "form"),
])
def test_form_and_n_segments_keys_exit_2(tmp_path, capsys, par_cfg, key):
    # one key per setting: n_segments was an alias of N, and the mode decides the form
    path, _ = write_config(tmp_path, parameterization=par_cfg)
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: parameterization: unknown key(s) {key!r}; expected some " \
        "of kind, order, N" in err
    assert not (tmp_path / "out").exists()


def test_build_run_takes_the_problems_own_gains(example1):
    # the CLI used to solve every problem at K^-1 = 10 and K_g = 0.1
    own = ocflow.Gains.constant(K=1.0, m=1, q=2, K_g=0.5)
    register_problem("example1-own-gains", lambda: dataclasses.replace(example1, gains=own))

    def gains(**given):
        cfg = {"problem": "example1-own-gains", "gains": given}
        g = cli.build_run(cfg)[2]
        return g.K_inv.tolist(), g.K_g.tolist(), g.k_tf

    try:
        assert gains() == ([[1.0]], [[0.5, 0.0], [0.0, 0.5]], 0.0)
        # each key given under gains replaces that one value
        assert gains(K_g=0.2) == ([[1.0]], [[0.2, 0.0], [0.0, 0.2]], 0.0)
        assert gains(K=4.0) == ([[0.25]], [[0.5, 0.0], [0.0, 0.5]], 0.0)
        assert gains(k_tf=0.3) == ([[1.0]], [[0.5, 0.0], [0.0, 0.5]], 0.3)
    finally:
        _REGISTRY.pop("example1-own-gains")


def test_non_integer_basis_sizes_exit_2(tmp_path, capsys):
    for par_cfg in ({"kind": "piecewise_constant", "N": "abc"},
                    {"kind": "piecewise_constant", "N": 2.5},
                    {"kind": "global_polynomial", "order": "3"}):
        path, _ = write_config(tmp_path, parameterization=par_cfg)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: parameterization" in err and "Traceback" not in err


@pytest.mark.parametrize("N", [None, 2.5, 0])
def test_basis_size_error_names_the_config_key(N):
    par_cfg = {"kind": "piecewise_constant"} | ({} if N is None else {"N": N})
    with pytest.raises(ocflow.ConfigurationError,
                       match=rf"^parameterization\.N must be an integer >= 1, got {N!r}$"):
        cli.build_run({"problem": "example1", "parameterization": par_cfg})


def test_check_passes_on_builtin(tmp_path):
    path, _ = write_config(tmp_path)
    assert main(["check", "--config", str(path), "--what", "all"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())
    assert checks["what"] == "all"
    assert all(c["passed"] for c in checks["checks"])
    names = {c["name"] for c in checks["checks"]}
    assert "objective_gradient_vs_fd" in names
    assert "projection_idempotence" in names


def test_check_detects_corrupted_jacobian(tmp_path, example1):
    wrong = np.array([[0.0], [1.5]])                    # wrong gain on u

    def bad_f_u(x, u, t):
        return np.broadcast_to(wrong, (*np.shape(t), 2, 1)) if np.ndim(t) else wrong

    bad_prob = dataclasses.replace(example1.prob, f_u=bad_f_u,
                                   name="example1-corrupted")
    register_problem("example1-corrupted",
                     lambda: dataclasses.replace(example1, prob=bad_prob))
    try:
        path, _ = write_config(tmp_path, problem="example1-corrupted")
        assert main(["check", "--config", str(path), "--what", "gradients"]) == 5
        checks = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert not all(c["passed"] for c in checks["checks"])
    finally:
        _REGISTRY.pop("example1-corrupted")


def test_solve_brachistochrone_step_case(tmp_path):
    # the heaviest configuration end to end: free terminal time, step control
    path, _ = write_config(
        tmp_path, problem="brachistochrone", mode="form2",
        parameterization={"kind": "piecewise_constant", "N": 20},
        init={"t_f": 1.0}, stop={"tau_max": 300.0, "record_every": 10.0})
    assert main(["solve", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is True
    assert abs(report["tf_final"] - 0.8165) <= 1e-3
    assert np.abs(np.array(report["pi_final"]) - [-0.1477, 0.0564]).max() <= 2e-3


def test_check_projection_on_brachistochrone(tmp_path):
    path, _ = write_config(tmp_path, problem="brachistochrone",
                           init={"t_f": 1.0})
    assert main(["check", "--config", str(path), "--what", "projection"]) == 0


def test_gradient_flow_config_plumbing(tmp_path):
    path, _ = write_config(tmp_path, mode="gradient_flow",
                           gains={"K_theta": 10.0}, stop={"tau_max": 5.0})
    assert main(["solve", "--config", str(path)]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["converged"] is False


def test_solver_errors_exit_3(tmp_path, capsys):
    # one step cannot cover the horizon: the state solve fails in the solver
    path, _ = write_config(tmp_path, ode_inner={"max_steps": 1})
    assert main(["solve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "solver error: exceeded max_steps = 1 (at t = 0." in err
    assert "np.float64" not in err


def test_horizon_refusal_exits_3(tmp_path, capsys, shrinking_horizon):
    # a flow that drives a free t_f to t0 ends on the basis's typed refusal,
    # reported as a solver error, not as an uncaught traceback
    from ocflow.problems import BuiltinProblem

    register_problem("shrinking-horizon", lambda: BuiltinProblem(
        prob=shrinking_horizon, gains=ocflow.Gains.constant(K=1.0, m=1, q=0, k_tf=1.0),
        recommended={"kind": "global_polynomial", "order": 1}))
    try:
        path, _ = write_config(tmp_path, problem="shrinking-horizon", init={"t_f": 1.0},
                               stop={"tau_max": 50.0})
        assert main(["solve", "--config", str(path)]) == 3
    finally:
        _REGISTRY.pop("shrinking-horizon")
    err = capsys.readouterr().err
    assert re.search(r"solver error: t_f = -\d\.\d+ must exceed t0 = 0\.0", err)
    assert "Traceback" not in err


def test_out_flag_overrides_config(tmp_path):
    path, _ = write_config(tmp_path, stop={"tau_max": 5.0})
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "alt")]) == 4
    assert (tmp_path / "alt" / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert "example1" in out and "brachistochrone" in out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ocflow.cli", "list-problems"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "example1" in proc.stdout


@pytest.mark.parametrize("problem, s, free", [("example1", 4, False),
                                               ("brachistochrone", 5, True)])
def test_check_gradients_runs_theta_as_one_lane_pass(tmp_path, monkeypatch, problem, s, free):
    # one forward solve gives both J and g at each central-difference point:
    # the iterate's own, then the 2 dim(theta) points of theta = (p[, t_f])
    # as the lanes of one solve, the two t_f points, when t_f is free (the
    # built-in polynomial bases), lanes of their own t_f
    shapes = []

    def counting(prob, par, p, t_f, *args):
        shapes.append((np.shape(p), np.unique(t_f).size))
        return solve_state(prob, par, p, t_f, *args)

    monkeypatch.setattr(cli, "solve_state", counting)
    path, _ = write_config(tmp_path, problem=problem, init={"t_f": 1.0}
                           if problem == "brachistochrone" else {})
    assert main(["check", "--config", str(path), "--what", "gradients"]) == 0
    assert shapes == [((s,), 1), ((2 * (s + free), s), 1 + 2 * free)]


@pytest.mark.parametrize("kind", ["lagrange_nodes", "piecewise_linear",
                                  "piecewise_constant"])
def test_check_gradients_of_node_bases_on_a_fixed_horizon(tmp_path, kind):
    # a form-1 node basis holds its nodes fixed, so u_tf = 0, while moving
    # t_f would move them: a fixed t_f has no column to compare
    p = [0.1, -0.2, 0.3, -0.4] + ([] if kind == "piecewise_constant" else [0.5])
    path, _ = write_config(tmp_path, parameterization={"kind": kind, "N": 4},
                           init={"p": p})
    assert main(["check", "--config", str(path), "--what", "gradients"]) == 0
    checks = json.loads((tmp_path / "out" / "checks.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["objective_gradient_vs_fd",
                                           "constraint_jacobian_vs_fd"]
    assert all(c["value"] <= 1e-6 for c in checks)


def test_import_leaves_scipy_out():
    src = Path(ocflow.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ocflow; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_non_finite_stop_values_exit_2(tmp_path, capsys):
    # Python's json reads NaN and Infinity; StopCriteria refuses both
    for key in ("tau_max", "record_every", "tol_opt"):
        for text in ("NaN", "Infinity"):
            path = tmp_path / "stop.json"
            path.write_text(f'{{"problem": "example1", "out_dir": "{tmp_path / "out"}", '
                            f'"stop": {{"{key}": {text}}}}}')
            assert main(["solve", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "stop: " in err and key in err


def test_non_finite_gains_and_initial_values_exit_2(tmp_path, capsys, monkeypatch):
    # Python's json reads NaN and Infinity; a non-finite gain or initial value
    # is refused, naming its key, before any pipeline runs
    import ocflow.evolution as evolution

    monkeypatch.setattr(evolution, "solve_state", lambda *a, **k: pytest.fail("a pipeline ran"))
    for problem, mode, section, value, needle in (
            ("example1", "form1", "gains", '{{"K": {}}}', "gains: K must be finite"),
            ("example1", "form1", "gains", '{{"K": [[{}]]}}', "gains: K must be finite"),
            ("example1", "form1", "gains", '{{"K_g": {}}}', "gains: K_g must be finite"),
            ("brachistochrone", "form1", "gains", '{{"k_tf": {}}}',
             "gains: k_tf must be a finite number"),
            ("example1", "gradient_flow", "gains", '{{"K_theta": {}}}',
             "gains: K_theta must be finite"),
            ("brachistochrone", "form1", "init", '{{"t_f": {}}}',
             "init.t_f must be a finite number"),
            ("example1", "form1", "init", '{{"t_f": {}}}', "init.t_f must be a finite number"),
            ("example1", "form1", "init", '{{"p": [0, {}, 0, 0]}}', "init.p must be finite")):
        for text in ("NaN", "Infinity"):
            path = tmp_path / "non_finite.json"
            path.write_text(f'{{"problem": "{problem}", "mode": "{mode}", '
                            f'"out_dir": "{tmp_path / "out"}", '
                            f'"{section}": {value.format(text)}}}')
            assert main(["solve", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error: " in err and needle in err, (value, text, err)
