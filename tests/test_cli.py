import dataclasses
import json
import subprocess
import sys

import numpy as np

from ocflow import (EvolutionMode, EvolutionState, StopCriteria, make_basis,
                    solve_evolution)
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

    path, _ = write_config(tmp_path, stop={"c1": 0})
    assert main(["solve", "--config", str(path)]) == 2

    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


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
    code = main(["solve", "--config", str(path)])
    assert code in (0, 4)              # files are written either way
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["tf_final"] - 0.8165) <= 1e-3


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


def test_solver_errors_exit_3(tmp_path):
    # gradient_flow without K_theta fails inside the solver, not the config
    path, _ = write_config(tmp_path, mode="gradient_flow")
    assert main(["solve", "--config", str(path)]) == 3


def test_programmatic_entry_points(tmp_path):
    from ocflow.cli import run_check, run_solve
    path, _ = write_config(tmp_path, stop={"tau_max": 5.0})
    assert run_solve(str(path), out_dir=str(tmp_path / "alt")) == 4
    assert (tmp_path / "alt" / "report.json").exists()
    assert run_check(str(path), what="projection") == 0


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert "example1" in out and "brachistochrone" in out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ocflow.cli", "list-problems"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "example1" in proc.stdout
