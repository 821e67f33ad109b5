import dataclasses
import re

import numpy as np
import pytest

from ocflow import (ConfigurationError, DependentBasisError, DimensionError, DomainError,
                    QuadratureSpec, integrate_ivp, make_basis, replay_linear,
                    validate_independence)
from ocflow.evolution import EvolutionMode, evaluate_iterate
from ocflow.parameterization import _contract
from ocflow.quadrature import panel_edges, simpson_points


def poly(order=3, m=1):
    return make_basis("global_polynomial", m=m, t0=0.0, form="form1", order=order)


def test_polynomial_jacobian_row():
    par = poly()
    t = 0.7
    np.testing.assert_allclose(par.jac_p(t, 2.0),
                               [[1.0, t, t**2, t**3]])


def test_polynomial_analytic_control_value():
    par = poly()
    u = par.eval(1.0, np.array([-3.5, 3.0, 0.0, 0.0]), 2.0)
    assert u[0] == pytest.approx(-0.5)


def test_piecewise_constant_segments():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form1", n_segments=2)
    p = np.array([1.5, -2.0])
    assert par.eval(0.25, p, 1.0)[0] == 1.5
    assert par.eval(0.75, p, 1.0)[0] == -2.0
    np.testing.assert_allclose(par.jac_p(0.25, 1.0), [[1.0, 0.0]])
    # half-open segments, closed at the right end of the horizon
    assert par.eval(0.5, p, 1.0)[0] == -2.0
    assert par.eval(1.0, p, 1.0)[0] == -2.0


def test_piecewise_linear_interpolates():
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form1", n_segments=2)
    u = par.eval(0.25, np.array([0.0, 1.0, 0.0]), 1.0)
    assert u[0] == pytest.approx(0.5)


def test_lagrange_reproduces_linear_function():
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    t_f = 0.8165
    nodes = np.linspace(0.0, t_f, 5)
    p = 1.4771 * nodes
    ts = np.linspace(0.0, t_f, 23)
    np.testing.assert_allclose(par.eval(ts, p, t_f)[:, 0], 1.4771 * ts,
                               atol=1e-12)


@pytest.mark.parametrize("kind,kwargs,form", [
    ("global_polynomial", {"order": 3}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form2"),
    ("piecewise_linear", {"n_segments": 5}, "form2"),
    ("piecewise_constant", {"n_segments": 5}, "form2"),
])
def test_zero_parameters_give_zero_control(kind, kwargs, form):
    par = make_basis(kind, m=1, t0=0.0, form=form, **kwargs)
    ts = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(par.eval(ts, np.zeros(par.s), 1.0),
                                  np.zeros((11, 1)))


@pytest.mark.parametrize("kind,kwargs,form", [
    ("global_polynomial", {"order": 2}, "form1"),
    ("lagrange_nodes", {"n_segments": 3}, "form2"),
    ("piecewise_linear", {"n_segments": 4}, "form2"),
    ("piecewise_constant", {"n_segments": 4}, "form2"),
])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("lanes", [(), (3,)])
def test_linearity_eval_equals_jacobian_product(kind, kwargs, form, m, lanes):
    # u on a grid is the one contraction of its u_p with p: bit for bit
    # bind's control, the piecewise-constant gather included
    rng = np.random.default_rng(3)
    par = make_basis(kind, m=m, t0=0.0, form=form, **kwargs)
    P = rng.normal(size=(*lanes, par.s))
    ts = np.concatenate([_probe_times(par, rng, 1.3),
                         simpson_points(0.0, 1.3, QuadratureSpec(41), par.breakpoints(1.3))[0]])
    u = par.eval(ts, P, 1.3)
    assert u.shape == (*lanes, ts.size, m)
    assert np.array_equal(u, _contract(par.jac_p(ts, 1.3), P))


def test_jac_p_matches_finite_differences():
    rng = np.random.default_rng(5)
    par = make_basis("lagrange_nodes", m=1, t0=0.0, form="form2", n_segments=4)
    p = rng.normal(size=par.s)
    t_f = 1.2
    for t in rng.uniform(0.0, t_f, 5):
        jp = par.jac_p(t, t_f)
        h = 1e-6
        fd = np.empty_like(jp)
        for i in range(par.s):
            dp = np.zeros(par.s)
            dp[i] = h
            fd[:, i] = (par.eval(t, p + dp, t_f) - par.eval(t, p - dp, t_f)) / (2 * h)
        np.testing.assert_allclose(jp, fd, rtol=1e-6, atol=1e-9)


def test_form1_has_zero_tf_sensitivity():
    par = poly()
    utf = par.jac_tf(1.0, np.array([1.0, 2.0, 3.0, 4.0]), 2.0)
    np.testing.assert_array_equal(utf, np.zeros(1))


@pytest.mark.parametrize("m", [1, 2])
def test_lagrange_tf_sensitivity_matches_finite_differences(m):
    rng = np.random.default_rng(11)
    par = make_basis("lagrange_nodes", m=m, t0=0.0, form="form2", n_segments=4)
    p = rng.normal(size=par.s)
    t_f = 1.1
    h = 1e-6
    for t in rng.uniform(0.05, 0.95, 6):
        utf = par.jac_tf(t, p, t_f)
        fd = (par.eval(t, p, t_f + h) - par.eval(t, p, t_f - h)) / (2 * h)
        np.testing.assert_allclose(utf, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("m", [1, 2])
def test_piecewise_linear_tf_sensitivity_inside_segments(m):
    rng = np.random.default_rng(13)
    par = make_basis("piecewise_linear", m=m, t0=0.0, form="form2", n_segments=5)
    p = rng.normal(size=par.s)
    t_f = 1.0
    h = 1e-7
    for t in (0.11, 0.37, 0.73):    # strictly inside segments
        utf = par.jac_tf(t, p, t_f)
        fd = (par.eval(t, p, t_f + h) - par.eval(t, p, t_f - h)) / (2 * h)
        np.testing.assert_allclose(utf, fd, rtol=1e-4, atol=1e-6)


def test_piecewise_constant_tf_sensitivity_is_zero_ae():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=5)
    p = np.arange(1.0, 6.0)
    utf = par.jac_tf(0.33, p, 1.0)
    np.testing.assert_array_equal(utf, np.zeros(1))


def test_partition_of_unity():
    ts = np.linspace(0.0, 1.0, 37)
    for kind, n in (("lagrange_nodes", 4), ("piecewise_linear", 6)):
        par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=n)
        jp = par.jac_p(ts, 1.0)
        np.testing.assert_allclose(jp.sum(axis=2), np.ones((37, 1)), atol=1e-12)


def test_piecewise_linear_two_active_columns():
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form2", n_segments=4)
    jp = par.jac_p(0.3, 1.0)
    nz = np.nonzero(jp[0])[0]
    assert len(nz) == 2
    assert jp[0, nz].sum() == pytest.approx(1.0)


def test_same_capacity_equivalence():
    # order-1 polynomial vs 2-node interpolation related by the node map
    t0, t_f = 0.2, 1.7
    par_a = make_basis("global_polynomial", m=1, t0=t0, form="form1", order=1)
    par_b = make_basis("lagrange_nodes", m=1, t0=t0, form="form2", n_segments=1)
    rng = np.random.default_rng(2)
    p_b = rng.normal(size=2)
    p_a = np.array([(p_b[0] * t_f - p_b[1] * t0) / (t_f - t0),
                    (p_b[1] - p_b[0]) / (t_f - t0)])
    ts = np.linspace(t0, t_f, 41)
    np.testing.assert_allclose(par_a.eval(ts, p_a, t_f), par_b.eval(ts, p_b, t_f),
                               atol=1e-12)


def test_independence_polynomial_moment_matrix():
    # eigendecomposition of the closed-form moment Gram on [0, 2]
    par = poly()
    mom = lambda k: 2.0 ** (k + 1) / (k + 1)
    gram = np.array([[mom(i + j) for j in range(4)] for i in range(4)])
    lam_expected = np.linalg.eigvalsh(gram)[0]
    lam = validate_independence(par, 2.0, quad_nodes=201)
    assert lam == pytest.approx(lam_expected, rel=1e-4)
    assert lam == pytest.approx(2.684e-3, rel=1e-3)


def test_independence_piecewise_constant_diagonal():
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=5)
    lam = validate_independence(par, 1.0, quad_nodes=51)
    assert lam == pytest.approx(0.2, abs=1e-12)


def test_independence_rejects_duplicated_column():
    par = poly(order=1)
    # two identical basis functions, so two identical columns of u_p
    broken = dataclasses.replace(par, values_fn=lambda ts, t_f: np.ones((ts.size, 2)))
    with pytest.raises(DependentBasisError):
        validate_independence(broken, 2.0, quad_nodes=21)


def test_independence_requires_enough_nodes():
    # too few nodes, a fraction, a whole float and a bool are refused as
    # given, not as the odd count the rule would round them to
    for bad in (3, 11.5, 12.0, True):
        with pytest.raises(ValueError, match=re.escape(
                f"quad_nodes must be an integer >= 4, got {bad!r}")):
            validate_independence(poly(), 2.0, quad_nodes=bad)
    assert validate_independence(poly(), 2.0, quad_nodes=np.int64(200)) == \
        validate_independence(poly(), 2.0, quad_nodes=201)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        make_basis("global_polynomial", m=1, t0=0.0, form="form2", order=3)
    with pytest.raises(ConfigurationError):
        make_basis("unknown_kind", m=1, t0=0.0, form="form1", order=3)
    with pytest.raises(ConfigurationError):
        make_basis("piecewise_constant", m=1, t0=0.0, form="form2")
    with pytest.raises(ConfigurationError):
        make_basis("global_polynomial", m=0, t0=0.0, form="form1", order=1)
    with pytest.raises(ConfigurationError, match="form must be"):
        make_basis("global_polynomial", m=1, t0=0.0, form="form3", order=1)


def test_integer_settings_must_be_integers():
    # a float or a bool is refused when the object is built, numpy integers
    # are integers
    for m in (1.5, 1.0, True):
        with pytest.raises(ConfigurationError, match="m must be an integer"):
            make_basis("piecewise_constant", m=m, t0=0.0, form="form2", n_segments=3)
    par = make_basis("piecewise_constant", m=np.int64(2), t0=0.0, form="form2", n_segments=3)
    assert type(par.m) is int and type(par.s) is int and par.s == 6
    for nodes in (3.0, 201.0, True, "5"):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"nodes must be an integer >= 3, got {nodes!r}")):
            QuadratureSpec(nodes=nodes)
    pts, _ = simpson_points(0.0, 1.0, QuadratureSpec(nodes=np.int64(5)))
    assert pts.size == 6


def test_domain_checks():
    par = poly()
    with pytest.raises(DomainError):
        par.eval(2.5, np.zeros(4), 2.0)
    with pytest.raises(DomainError):
        par.jac_p(-0.1, 2.0)
    with pytest.raises(ConfigurationError, match="t_f must be a finite number, got None"):
        par.breakpoints(None)


@pytest.mark.parametrize("t_f", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call", ["bind", "jac_p", "jac_tf", "breakpoints",
                                  "evaluate_iterate"])
def test_non_finite_terminal_time_is_refused(example1, call, t_f):
    # refused before any step: an infinite t_f put every piecewise-constant
    # breakpoint at inf, and the state solve failed later, as a step underflow
    kind = "piecewise_constant" if call == "breakpoints" else "global_polynomial"
    sizes = {"n_segments": 4} if call == "breakpoints" else {"order": 3}
    par = make_basis(kind, m=1, t0=0.0, form="form1", **sizes)
    p = np.full(par.s, 0.1)
    run = {"bind": lambda: par.bind(p, t_f),
           "jac_p": lambda: par.jac_p(0.5, t_f),
           "jac_tf": lambda: par.jac_tf(0.5, p, t_f),
           "breakpoints": lambda: par.breakpoints(t_f),
           "evaluate_iterate": lambda: evaluate_iterate(
               EvolutionMode.form1(), example1.prob, par, example1.gains, p, t_f)}[call]
    with pytest.raises(ConfigurationError, match="t_f must be a finite number"):
        run()


def test_multicontrol_block_layout():
    par = make_basis("piecewise_constant", m=2, t0=0.0, form="form1", n_segments=2)
    assert par.s == 4
    p = np.array([1.0, 2.0, 3.0, 4.0])      # node-major: (u(t0), u(t1))
    np.testing.assert_allclose(par.eval(0.1, p, 1.0), [1.0, 2.0])
    np.testing.assert_allclose(par.eval(0.9, p, 1.0), [3.0, 4.0])
    jp = par.jac_p(0.1, 1.0)
    np.testing.assert_allclose(jp, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


KINDS_FORMS = [
    ("global_polynomial", {"order": 4}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form1"),
    ("lagrange_nodes", {"n_segments": 4}, "form2"),
    ("piecewise_linear", {"n_segments": 6}, "form1"),
    ("piecewise_linear", {"n_segments": 6}, "form2"),
    ("piecewise_constant", {"n_segments": 20}, "form1"),
    ("piecewise_constant", {"n_segments": 20}, "form2"),
]


def _probe_times(par, rng, t_f):
    """Random times, t0, t_f, the exact node times and points inside the slack."""
    t0 = par.t0
    n_seg = par.meta.get("n_segments", 4)
    nodes = t0 + (t_f - t0) * np.arange(n_seg + 1) / n_seg
    slack = 1e-12 * max(1.0, t_f - t0)
    return np.concatenate([rng.uniform(t0, t_f, 200), nodes, par.breakpoints(t_f),
                           [t0, t_f, t0 - 0.5 * slack, t_f + 0.5 * slack]])


@pytest.mark.parametrize("kind,kwargs,form", KINDS_FORMS)
@pytest.mark.parametrize("m", [1, 2])
def test_scalar_evaluators_match_array_path(kind, kwargs, form, m):
    rng = np.random.default_rng(11)
    par = make_basis(kind, m=m, t0=0.3, form=form, **kwargs)
    p = rng.normal(size=par.s)
    t_f = 1.1173
    ts = _probe_times(par, rng, t_f)
    arr = par.eval(ts, p, t_f)
    u = par.bind(p, t_f)
    bound = np.array([u(t) for t in ts])
    scalar = np.array([par.eval(t, p, t_f) for t in ts])
    stages = np.concatenate([u(ts[k:k + 6]) for k in range(0, ts.size, 6)])
    assert bound.shape == scalar.shape == stages.shape == arr.shape == (ts.size, m)
    if m == 1:
        assert np.array_equal(bound, arr)
        assert np.array_equal(scalar, arr)
        assert np.array_equal(stages, arr)
    else:
        scale = np.abs(arr).max()
        for values in (bound, scalar, stages):
            np.testing.assert_allclose(values, arr, rtol=1e-15, atol=1e-15 * scale)


@pytest.mark.parametrize("kind,kwargs,form", KINDS_FORMS)
def test_eval_of_lanes_is_bind_row_for_row(kind, kwargs, form):
    # eval is bind's evaluator, so a (B, s) p gives each lane's own control
    rng = np.random.default_rng(5)
    par = make_basis(kind, m=1, t0=0.3, form=form, **kwargs)
    P = rng.normal(size=(3, par.s))
    t_f = 1.1173
    ts = _probe_times(par, rng, t_f)
    lanes = par.eval(ts, P, t_f)
    assert lanes.shape == (3, ts.size, 1)
    for p, lane, at_t in zip(P, lanes, par.eval(ts[7], P, t_f)):
        u = par.bind(p, t_f)
        assert np.array_equal(lane, u(ts))
        assert np.array_equal(at_t, u(ts[7]))


@pytest.mark.parametrize("kind,kwargs,form", KINDS_FORMS)
def test_bound_control_checks_domain_and_shape(kind, kwargs, form):
    par = make_basis(kind, m=1, t0=0.3, form=form, **kwargs)
    p = np.ones(par.s)
    t_f = 1.1173
    slack = 1e-12 * max(1.0, t_f - par.t0)
    u = par.bind(p, t_f)
    for t in (par.t0 - 2 * slack, t_f + 2 * slack, np.nan):
        with pytest.raises(DomainError):
            u(t)
        with pytest.raises(DomainError):
            u(np.array([par.t0, t, t_f]))
    for t in (par.t0 - 2 * slack, t_f + 2 * slack, np.nan):
        with pytest.raises(DomainError):
            par.eval(t, p, t_f)
        with pytest.raises(DomainError):
            par.jac_p(np.array([par.t0, t]), t_f)
        with pytest.raises(DomainError):
            par.jac_tf(np.array([par.t0, t]), p, t_f)
    with pytest.raises(DimensionError, match="p has shape"):
        par.bind(np.ones(par.s + 1), t_f)
    with pytest.raises(DimensionError, match="p has shape"):
        par.bind(np.ones((par.s, 1)), t_f)
    # a t_f array holds one t_f per lane of p
    for P, t_fs in ((p, [t_f, t_f + 0.1]), (np.stack([p, p]), [t_f] * 3)):
        with pytest.raises(DimensionError, match="t_f has shape"):
            par.bind(P, np.array(t_fs))
    with pytest.raises(DomainError, match=r"t_f = 0\.3 must exceed t0 = 0\.3"):
        par.bind(p, par.t0)


def test_basis_sizes_must_be_integers():
    for kwargs in ({"order": "abc"}, {"order": 2.5}, {"order": True}, {"order": -1}):
        with pytest.raises(ConfigurationError):
            make_basis("global_polynomial", m=1, t0=0.0, form="form1", **kwargs)
    for n in ("abc", 20.0, 0, None):
        with pytest.raises(ConfigurationError):
            make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=n)
    par = make_basis("piecewise_linear", m=1, t0=0.0, form="form2",
                     n_segments=np.int64(4))
    assert par.s == 5 and type(par.meta["n_segments"]) is int


# terminal times at which a sigma-rounding locator put one-ulp-inside points
# on the neighbouring segment
TF_TRIED = [0.79, 0.8123, 0.8165, 0.83, 1.0, 1.1, 2.0]


def assert_on_segments(par, p, t_f, ts, ks):
    """The control at times ``ts`` is the one of segments ``ks``.

    Piecewise-constant values are the segment's parameter; a piecewise-linear
    control is continuous, so its segment shows in the t_f-sensitivity,
    -sigma/(t_f - t0) times the segment's slope in sigma.
    """
    ts, ks = np.ravel(ts), np.ravel(ks)
    N = par.meta["n_segments"]
    if par.kind == "piecewise_constant":
        assert np.array_equal(par.eval(ts, p, t_f)[:, 0], p[ks])
        u = par.bind(p, t_f)
        assert np.array_equal([u(t)[0] for t in ts], p[ks])
    else:
        sig = (ts - par.t0) / (t_f - par.t0)
        want = -sig / (t_f - par.t0) * N * (p[ks + 1] - p[ks])
        np.testing.assert_allclose(par.jac_tf(ts, p, t_f)[:, 0], want,
                                   rtol=1e-12, atol=1e-300)


def segment_of(par, t_f, ts):
    """Segment of times well inside one (panel or step midpoints)."""
    N = par.meta["n_segments"]
    return np.floor((np.asarray(ts) - par.t0) / (t_f - par.t0) * N).astype(int)


PIECEWISE = ["piecewise_constant", "piecewise_linear"]


@pytest.mark.parametrize("kind", PIECEWISE)
@pytest.mark.parametrize("t_f", TF_TRIED)
@pytest.mark.parametrize("nodes", [201, 41])
def test_simpson_endpoints_evaluate_on_their_panel_segment(kind, t_f, nodes):
    par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(4).normal(size=par.s)
    pts, _ = simpson_points(0.0, t_f, QuadratureSpec(nodes), par.breakpoints(t_f))
    panels = pts.reshape(-1, 3)
    ks = np.repeat(segment_of(par, t_f, panels[:, 1]), 3)
    assert_on_segments(par, p, t_f, panels, ks)


def test_panel_edges_keep_every_breakpoint():
    # 52 segments on 20 panels: some uniform edges land within rounding of a
    # breakpoint, up to 2 ulp below it
    par = make_basis("piecewise_constant", m=1, t0=0.0, form="form2", n_segments=52)
    for t_f in (0.821875, 6.184375):
        bp = par.breakpoints(t_f)
        edges = panel_edges(0.0, t_f, QuadratureSpec(41), bp)
        assert np.isin(bp, edges).all()
        assert edges[0] == 0.0 and edges[-1] == t_f and (np.diff(edges) > 0).all()
        p = np.arange(par.s, dtype=float)
        pts, _ = simpson_points(0.0, t_f, QuadratureSpec(41), bp)
        panels = pts.reshape(-1, 3)
        assert_on_segments(par, p, t_f, panels,
                           np.repeat(segment_of(par, t_f, panels[:, 1]), 3))


@pytest.mark.parametrize("t_f", [0.0, -1.0, float("nan")])
def test_quadrature_needs_a_forward_span(t_f):
    for grid in (panel_edges, simpson_points):
        with pytest.raises(ValueError, match="t0 < t_f"):
            grid(0.0, t_f, QuadratureSpec(41), (-0.5, 0.5))


@pytest.mark.parametrize("kind", PIECEWISE)
@pytest.mark.parametrize("form", ["form1", "form2"])
def test_scalar_and_array_paths_agree_next_to_breakpoints(kind, form):
    par = make_basis(kind, m=1, t0=0.0, form=form, n_segments=20)
    p = np.random.default_rng(8).normal(size=par.s)
    for t_f in TF_TRIED:
        bp = par.breakpoints(t_f)
        ts = np.concatenate([np.nextafter(bp, -np.inf), bp, np.nextafter(bp, np.inf),
                             [0.0, np.nextafter(t_f, 0.0), t_f]])
        u = par.bind(p, t_f)
        arr = par.eval(ts, p, t_f)[:, 0]
        assert np.array_equal([u(t)[0] for t in ts], arr)
        assert np.array_equal([par.eval(t, p, t_f)[0] for t in ts], arr)
        if kind == "piecewise_linear" and form == "form1":
            continue          # its segment shows only in the t_f-sensitivity
        # right-continuous: a breakpoint and the ulp above it share a segment
        k = np.arange(1, 20)
        assert_on_segments(par, p, t_f, np.nextafter(bp, -np.inf), k - 1)
        assert_on_segments(par, p, t_f, bp, k)
        assert_on_segments(par, p, t_f, np.nextafter(bp, np.inf), k)
        assert_on_segments(par, p, t_f, [t_f], [19])


@pytest.mark.parametrize("kind", PIECEWISE)
@pytest.mark.parametrize("t_f", TF_TRIED)
def test_stage_times_evaluate_on_their_own_segment(kind, t_f):
    par = make_basis(kind, m=1, t0=0.0, form="form2", n_segments=20)
    p = np.random.default_rng(9).normal(size=par.s)
    bp = par.breakpoints(t_f)
    u = par.bind(p, t_f)
    forward = []

    def rhs(t, y):
        forward.append(t)
        return np.array([u(t)[0], np.cos(3.0 * t) * y[0]])

    sol = integrate_ivp(rhs, np.ones(2), (0.0, t_f), breakpoints=bp)
    ts = np.array(forward)
    # a stage strictly inside a subinterval belongs to it
    assert not np.isin(ts, bp).any()
    assert_on_segments(par, p, t_f, ts, np.searchsorted(bp, ts, side="left"))

    replayed = []

    def coefficients(ts, xs):
        replayed.append(ts)
        return np.zeros((ts.size, 2, 2)), np.zeros((ts.size, 2))

    # the solve restarted at every breakpoint, and the replay clamps its
    # stages at the restarts the solve recorded
    assert np.array_equal(sol.restarts, bp)
    replay_linear(sol, coefficients, np.ones((2, 1)))
    ts = replayed[0].reshape(-1, 6)     # stage 6 shares stage 5's (t, x)
    steps = segment_of(par, t_f, 0.5 * (sol.t_grid[:-1] + sol.t_grid[1:]))
    assert_on_segments(par, p, t_f, ts, np.repeat(steps, 6))
