"""One rule judges every setting and gain: errors._require_number,
_require_numbers and _require_gain.

Each settings field, gain and count argument refuses text, a bool, None, a
non-finite number and a value below its bound (for a gain, one that is not
positive-definite) with a ConfigurationError that names the field and the
repr of the value it was given.
"""

import dataclasses
import math

import numpy as np
import pytest

from ocflow import (ConfigurationError, EvolutionMode, EvolutionState, Gains,
                    InnerProductSpec, OdeSettings, QuadratureSpec, StopCriteria,
                    gradient_flow_generic, make_basis, solve_evolution,
                    validate_independence, validate_problem)
from ocflow.evolution import _resolve_init


def _poly(**kw):
    return make_basis("global_polynomial", **{"m": 1, "t0": 0.0, "form": "form1",
                                              "order": 3, **kw})


def _pwc(**kw):
    return make_basis("piecewise_constant", **{"m": 1, "t0": 0.0, "form": "form2",
                                               "n_segments": 4, **kw})


# (field, build(value), the value below its bound or None, an integer field);
# None is left out where it means "not given": a gradient flow without
# K_theta and a free problem's tf_fixed; a gain's bound is positive-definite
def _table(example1, brach):
    prob, free = example1.prob, brach.prob
    kkt = dict(f_grad=lambda th: th, h_val=lambda th: th[:1] - 1.0,
               h_jac=lambda th: np.eye(1, 3), stop=StopCriteria(tau_max=1.0))
    return [
        ("rel_tol", lambda v: OdeSettings(rel_tol=v), 0.0, False),
        ("abs_tol", lambda v: OdeSettings(abs_tol=v), 0.0, False),
        ("max_steps", lambda v: OdeSettings(max_steps=v), 0, True),
        *[(f, lambda v, f=f: StopCriteria(**{f: v}), 0.0, False)
          for f in ("tau_max", "tol_opt", "tol_feas", "record_every")],
        ("nodes", lambda v: QuadratureSpec(nodes=v), 1, True),
        ("k_tf", lambda v: Gains.constant(K=0.1, m=1, q=2, k_tf=v), -1.0, False),
        ("K", lambda v: Gains.constant(K=v, m=1, q=2), -1.0, False),
        ("K_g", lambda v: Gains.constant(K=0.1, m=1, q=2, K_g=v), -1.0, False),
        ("K_theta", lambda v: EvolutionMode.gradient_flow(v), -1.0, False),
        ("K_theta", lambda v: gradient_flow_generic(K_theta=v, K_h=1.0, theta0=np.zeros(3),
                                                    **kkt), -1.0, False),
        ("K_h", lambda v: gradient_flow_generic(K_theta=1.0, K_h=v, theta0=np.zeros(3),
                                                **kkt), -1.0, False),
        ("theta0", lambda v: gradient_flow_generic(K_theta=1.0, K_h=1.0, theta0=[0.0, v, 0.0],
                                                   **kkt), None, False),
        ("weight", lambda v: InnerProductSpec(t0=0.0, t_f=2.0, weight=v), -1.0, False),
        ("t0", lambda v: InnerProductSpec(t0=v, t_f=2.0, weight=1.0), None, False),
        ("t_f", lambda v: InnerProductSpec(t0=0.0, t_f=v, weight=1.0), None, False),
        *[(f, lambda v, f=f: dataclasses.replace(prob, **{f: v}), least, True)
          for f, least in (("n", 0), ("m", 0), ("q", -1))],
        ("t0", lambda v: dataclasses.replace(prob, t0=v), None, False),
        ("tf_fixed", lambda v: dataclasses.replace(prob, tf_fixed=v), -1.0, False),
        ("m", lambda v: _poly(m=v), 0, True),
        ("t0", lambda v: _poly(t0=v), None, False),
        ("order", lambda v: _poly(order=v), -1, True),
        ("n_segments", lambda v: _pwc(n_segments=v), 0, True),
        ("samples", lambda v: validate_problem(prob, samples=v), 0, True),
        ("quad_nodes", lambda v: validate_independence(_poly(), 2.0, quad_nodes=v), 3, True),
        ("init.p", lambda v: _resolve_init(free, EvolutionState(p=[0.0, v], t_f=1.0)),
         None, False),
        ("init.t_f", lambda v: _resolve_init(free, EvolutionState(p=[0.0], t_f=v)),
         -1.0, False),
    ]


def test_every_setting_refuses_a_bad_value_naming_field_and_value(example1, brach):
    for field, build, below, integer in _table(example1, brach):
        bad = ["5", True, None, math.nan, math.inf, -math.inf]
        if field in ("K_theta", "tf_fixed"):
            bad.remove(None)
        bad += ([] if below is None else [below]) + ([5.0] if integer else [])
        for value in bad:
            with pytest.raises(ConfigurationError) as info:
                build(value)
            msg = str(info.value)
            assert field in msg and repr(value) in msg, (field, value, msg)


def test_configuration_error_is_a_value_error():
    assert issubclass(ConfigurationError, ValueError)
    with pytest.raises(ValueError, match="tau_max"):
        StopCriteria(tau_max=-1.0)


def test_numpy_scalars_are_numbers(example1):
    ode = OdeSettings(rel_tol=np.float32(0.5), abs_tol=np.float64(1e-6),
                      max_steps=np.int64(7))
    assert (type(ode.rel_tol), type(ode.max_steps)) == (float, int)
    assert ode.rel_tol == 0.5 and ode.max_steps == 7
    assert StopCriteria(tau_max=np.int32(5)).tau_max == 5.0
    assert type(QuadratureSpec(nodes=np.int64(5)).nodes) is int
    prob = dataclasses.replace(example1.prob, n=np.int64(2), q=np.uint8(2),
                               t0=np.float32(0.0), tf_fixed=np.float64(2.0))
    assert (type(prob.n), type(prob.q), type(prob.t0)) == (int, int, float)
    assert _poly(m=np.int16(1), t0=np.float64(0.0), order=np.int64(3)).s == 4
    assert Gains.constant(K=np.float32(0.5), m=1, q=2, k_tf=np.int64(1)).k_tf == 1.0


def test_a_huge_integer_is_refused_or_kept_never_overflows():
    # math.isfinite and float() raise OverflowError on an int beyond the float range
    assert OdeSettings(max_steps=10**400).max_steps == 10**400
    for bad in ({"rel_tol": 10**400}, {"abs_tol": -10**400}):
        with pytest.raises(ConfigurationError, match="must be a finite number"):
            OdeSettings(**bad)
    with pytest.raises(ConfigurationError, match="K must be finite numbers"):
        Gains.constant(K=[[10**400]], m=1, q=2)


def test_arrays_are_read_entry_by_entry():
    # numpy would read each of these as a float, a bool or an object array
    for K in ([[1.0, 0.0], [0.0, True]], [[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, None]],
              [["1", "0"], ["0", "1"]], np.eye(2, dtype=bool)):
        with pytest.raises(ConfigurationError, match="K_g must be finite numbers"):
            Gains.constant(K=0.1, m=1, q=2, K_g=K)
    assert Gains.constant(K=0.1, m=1, q=2, K_g=[[1, 0], [0, 1]]).K_g.dtype == float


def test_text_initial_values_are_refused_before_any_pipeline(monkeypatch, example1, brach):
    # np.asarray(..., dtype=float) read ["1", "2"] as numbers, and the
    # Brachistochrone's t_f as the text "1.0"
    import ocflow.evolution as evolution

    monkeypatch.setattr(evolution, "solve_state", lambda *a, **k: pytest.fail("a pipeline ran"))
    par = _poly(order=4)
    for init, field in ((EvolutionState(p=["0"] * 5, t_f=1.0), "init.p"),
                        (EvolutionState(p=np.zeros(5), t_f="1.0"), "init.t_f")):
        with pytest.raises(ConfigurationError, match=field):
            solve_evolution(EvolutionMode.form1(), brach.prob, par, brach.gains, init,
                            StopCriteria())
    # EvolutionState keeps what it was given; the solve reads it
    assert EvolutionState(p=["0"], t_f=None).p == ["0"]


def test_a_non_finite_x0_is_refused_naming_x0(example1):
    # x0 was read with np.asarray: [nan, 0.0] built, and the first solve
    # failed with an IntegrationError about the tolerances
    for bad in (math.nan, math.inf, "1.0", None, True):
        with pytest.raises(ConfigurationError, match="x0 must be finite numbers") as info:
            dataclasses.replace(example1.prob, x0=[bad, 0.0])
        assert repr(bad) in str(info.value)


def test_run_time_p_and_t_f_are_refused_through_the_same_rule(example1):
    # evaluate_iterate read the text p ["0", "0", "0", "0"] as numbers and
    # ran a pipeline, and a text t_f raised an untyped TypeError; the basis,
    # solve_state and the costate functions read text p, pi and g as numbers,
    # and a NaN gave a NaN u or lambda silently
    from ocflow import (continuous_multiplier, optimality_residuals,
                        projected_stationarity_check, reconstruct_costate, solve_state)
    from ocflow.evolution import evaluate_iterate, evaluate_iterates

    par, mode, prob, gains = _poly(), EvolutionMode.form1(), example1.prob, example1.gains
    for bad in (["0"] * 4, [0.0, 0.0, True, 0.0], [0.0, math.nan, 0.0, 0.0]):
        with pytest.raises(ConfigurationError, match="p must be finite numbers"):
            evaluate_iterate(mode, prob, par, gains, bad, 2.0)
        with pytest.raises(ConfigurationError, match="P must be finite numbers"):
            evaluate_iterates(mode, prob, par, gains, [np.zeros(4), bad], 2.0)
        for run in (lambda: par.bind(bad, 2.0), lambda: par.eval(1.0, bad, 2.0),
                    lambda: par.jac_tf(1.0, bad, 2.0), lambda: solve_state(prob, par, bad, 2.0)):
            with pytest.raises(ConfigurationError, match="p must be finite numbers"):
                run()
    it = evaluate_iterate(mode, prob, par, gains, np.zeros(4), 2.0)
    b, spec = it.bundle, InnerProductSpec(t0=0.0, t_f=2.0, weight=1.0)
    for bad in (["3", "-2.5"], [True, 0.0], [math.nan, 0.0]):
        for run, field in (
                (lambda: reconstruct_costate(prob, b, bad), "pi"),
                (lambda: optimality_residuals(prob, par, it.quantities, b, bad, it.g_val), "pi"),
                (lambda: optimality_residuals(prob, par, it.quantities, b, it.pi, bad), "g_val"),
                (lambda: continuous_multiplier(prob, b, gains, bad), "g_val"),
                (lambda: projected_stationarity_check(spec, None, None, None, bad), "pi")):
            with pytest.raises(ConfigurationError, match=f"{field} must be finite numbers"):
                run()
    for run in (evaluate_iterate, evaluate_iterates):
        p = np.zeros(4) if run is evaluate_iterate else np.zeros((2, 4))
        for bad in ("2.0", math.nan, True):
            with pytest.raises(ConfigurationError, match="t_f must be a finite number") as info:
                run(mode, prob, par, gains, p, bad)
            assert repr(bad) in str(info.value)


def test_the_default_settings_are_one_shared_record(monkeypatch, example1):
    # a solve without ode_inner or ode_outer builds no OdeSettings of its own
    import ocflow.integrate as integrate

    built = []
    post_init = OdeSettings.__post_init__
    monkeypatch.setattr(OdeSettings, "__post_init__",
                        lambda self: (built.append(self), post_init(self))[1])
    report, _, _ = solve_evolution(EvolutionMode.form1(), example1.prob, _poly(),
                                   example1.gains, EvolutionState(p=np.zeros(4), t_f=2.0),
                                   StopCriteria(tau_max=5.0))
    assert report.tau_reached == 5.0 and built == []
    assert integrate._DEFAULT_ODE == OdeSettings()
