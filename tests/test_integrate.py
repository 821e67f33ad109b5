import re
import warnings

import numpy as np
import pytest

from ocflow import (DenseTrajectory, DimensionError, DivergenceError, DomainError,
                    IntegrationError, OdeSettings, StepBudgetError, integrate_ivp, replay_linear)
from ocflow.integrate import _RADAU_A, _RADAU_C, _broyden, _Radau, dense_output


def test_exponential_decay():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    assert sol(1.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_double_integrator_reaches_origin():
    def rhs(t, y):
        return np.array([y[1], 3.0 * t - 3.5])

    sol = integrate_ivp(rhs, np.array([1.0, 1.0]), (0.0, 2.0))
    np.testing.assert_allclose(sol(2.0), [0.0, 0.0], atol=1e-5)


def test_dense_output_node_values_exact():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    for t, v in zip(sol.t_grid, sol.values):
        assert np.array_equal(sol(t), v)
        assert np.array_equal(sol(np.array([t]))[0], v)


def test_dense_output_midpoints_match_exponential():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    mids = 0.5 * (sol.t_grid[:-1] + sol.t_grid[1:])
    err = np.abs(sol(mids)[:, 0] - np.exp(-mids)).max()
    assert err < 1e-5      # within 10x the step tolerance


def test_dense_output_interval_end():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    assert np.array_equal(sol(1.0), sol.values[-1])


def test_dense_eval_out_of_range():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        DenseTrajectory(sol.t_grid[::-1], sol.values, sol.segments)
    with pytest.raises(DomainError):
        sol(1.5)
    with pytest.raises(DomainError):
        sol(np.array([0.2, -0.3]))
    with pytest.raises(DomainError):
        sol(float("nan"))
    with pytest.raises(DomainError):
        sol(np.array([0.2, np.nan]))


def test_fifth_order_convergence():
    # halving a fixed step must cut the global error by ~2^5; the replay runs
    # y' = cos(t) y backward from y(2) = exp(sin 2) over uniform steps
    def coefficients(ts, xs):
        return np.cos(ts)[:, None, None], np.zeros((ts.size, 1))

    def y0_error(n_steps):
        t = np.linspace(0.0, 2.0, n_steps + 1)
        h = np.diff(t)
        grid = DenseTrajectory(t, np.zeros((n_steps + 1, 1)),
                               (t[:-1], h, h, np.zeros((n_steps, 1)),
                                np.zeros((4, n_steps, 1))))
        sol = replay_linear(grid, coefficients, np.array([[np.exp(np.sin(2.0))]]))
        return abs(sol.values[0, 0] - 1.0)

    e1 = y0_error(20)
    e2 = y0_error(40)
    assert 16.0 < e1 / e2 < 64.0


def test_replay_cuts_the_steps_its_coefficients_cannot_take():
    # y' = -0.1 y: left to the error controller alone, the forward steps ride
    # at h * 0.1 ~ 3.3, the real-axis stability limit, and |y| stalls near
    # 2e-7, inside abs_tol.  The adjoint mu' = 0.1 mu, mu(3000) = 1, replayed
    # on them cuts each step where |h| 0.1 > 0.8 * 3.3, on the forward
    # step's own polynomial, and stays at mu = exp(-0.1 (3000 - t)) <= 1
    sol = integrate_ivp(lambda t, y: -0.1 * y, np.array([1.0]), (0.0, 3000.0))
    assert (0.1 * np.diff(sol.t_grid)).max() > 0.8 * 3.3
    mu = replay_linear(sol, lambda ts, xs: (np.full((ts.size, 1, 1), 0.1), np.zeros((ts.size, 1))),
                       np.ones((1, 1)))
    assert np.isin(sol.t_grid, mu.t_grid).all() and mu.t_grid.size > sol.t_grid.size
    assert (0.1 * np.diff(mu.t_grid)).max() <= 0.8 * 3.3
    assert np.abs(mu(np.linspace(0.0, 3000.0, 30001))).max() <= 1.0 + 1e-12
    assert np.abs(mu.values).max() <= 1.0 + 1e-12


def test_refined_lookups_equal_the_parents():
    # a refined trajectory evaluates its parent's polynomials: at the
    # parent's nodes, at its own new nodes and between them its lookups, and
    # those of its lane views of their own horizon, are the parent's bit for
    # bit, and it keeps the solve's record
    rates = np.array([[1.0], [3.0]])
    sol = integrate_ivp(lambda t, y: -rates * y + (1.0 if t < 0.7 else -0.5),
                        np.ones((2, 2)), (0.0, 2.0), breakpoints=[0.7])
    sol.ends = np.array([2.0, 3.0])
    rng = np.random.default_rng(4)
    new = rng.uniform(0.0, 2.0, 50)
    ref = sol.refined(np.union1d(sol.t_grid, new))
    ts = np.concatenate([sol.t_grid, new, rng.uniform(0.0, 2.0, 500)])
    assert ref.t_grid.size == sol.t_grid.size + 50
    assert np.array_equal(ref(ts), sol(ts))
    for name in ("restarts", "ends", "lane_count", "channels", "nsteps", "nrejected", "max_steps"):
        assert np.array_equal(getattr(ref, name), getattr(sol, name))
    for view, whole, end in zip(ref.lanes(), sol.lanes(), sol.ends):
        tb = np.concatenate([whole.t_grid, rng.uniform(0.0, end, 200)])
        assert np.array_equal(view(tb), whole(tb))


def test_step_budget_error():
    with pytest.raises(StepBudgetError):
        integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0),
                      OdeSettings(max_steps=2))


def test_nan_stage_fails_at_the_steps_end():
    # y' = 1 is integrated exactly: no step is rejected, so the failing run
    # attempts the clean run's steps up to its failure
    grid = integrate_ivp(lambda t, y: np.ones(1), np.array([0.0]), (0.0, 1.0)).t_grid

    def rhs(t, y):
        return np.array([np.nan if t > 0.5 else 1.0])

    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0))
    # the failing step is the first to reach past 0.5; its end is a node of
    # the clean run
    assert exc.value.time == grid[grid > 0.5][0]
    assert type(exc.value.time) is float


def test_spans_must_run_forward():
    # backward passes are replay_linear's; a backward or empty span is refused
    for t_span in ((1.0, 0.0), (1.0, 1.0), (0.0, -1e-300)):
        with pytest.raises(ValueError, match="forward"):
            integrate_ivp(lambda t, y: -y, np.array([1.0]), t_span)


def test_overflowing_error_estimate_is_rejected():
    # calls 1 and 2 are the first stage and the starting-step probe; the six
    # stages of the first attempt (calls 3-8) are huge but finite, so its
    # scaled error overflows, which rejects the step; it is no divergence
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([1e300 if 3 <= len(calls) <= 8 else 1.0])

    with np.errstate(over="ignore"):
        sol = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0), OdeSettings(rel_tol=1e-160))
    assert sol.nrejected == 1
    assert sol.values[-1, 0] == pytest.approx(1.0, rel=1e-12)


def test_failure_times_are_floats():
    with pytest.raises(StepBudgetError) as exc:
        integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0),
                      OdeSettings(max_steps=2))
    assert type(exc.value.time) is float
    assert "np.float64" not in str(exc.value)


def test_divergence_error_carries_time():
    def rhs(t, y):
        return np.array([np.nan]) if t > 0.5 else np.array([1.0])

    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0))
    assert exc.value.time is not None
    # a right-hand side already non-finite at the start fails there
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(lambda t, y: np.array([np.inf]), np.array([0.0]), (0.25, 1.0))
    assert exc.value.time == 0.25
    # so does a backward replay from a non-finite end value, at its end
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(DivergenceError) as exc:
        replay_linear(sol, lambda ts, xs: (-np.ones((ts.size, 1, 1)), np.zeros((ts.size, 1))),
                      np.full((1, 1), np.nan))
    assert exc.value.time == 1.0


def test_breakpoints_keep_piecewise_constant_exact():
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    sol = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0), breakpoints=[0.5])
    assert abs(sol(1.0)[0]) < 1e-14
    assert abs(sol(0.5)[0] - 0.5) < 1e-14


def test_settings_validation():
    with pytest.raises(ValueError):
        OdeSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        OdeSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(max_steps=0)
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            OdeSettings(max_steps=bad)
    assert OdeSettings(max_steps=np.int64(3)).max_steps == 3
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError):
            OdeSettings(rel_tol=bad)
        with pytest.raises(ValueError):
            OdeSettings(abs_tol=bad)
    with pytest.raises(ValueError):
        integrate_ivp(lambda t, y: -y, np.array([1.0]), (1.0, 1.0))


def test_statistics_reported():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    assert type(sol) is DenseTrajectory
    assert sol.nsteps > 0
    assert sol.nrejected >= 0


def test_tolerances_too_small_for_an_initial_step_fail_typed():
    # the scaled norms overflow, so no initial step is finite and positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as info:
            integrate_ivp(lambda t, y: np.cos(3.0 * t) * y, np.array([1.0]), (0.0, 1.0),
                          OdeSettings(rel_tol=1e-300, abs_tol=1e-300))
    assert type(info.value) is IntegrationError
    assert info.value.time == 0.0
    assert "rel_tol = 1e-300" in str(info.value) and "abs_tol = 1e-300" in str(info.value)


def test_radau_shares_the_initial_step_refusal():
    # Radau's start takes the same estimate, and refuses tolerances too small
    # for it with the same typed error at t = 0
    with pytest.raises(IntegrationError) as info:
        _radau(lambda y: -y, [1.0], lambda y: -np.eye(1),
               OdeSettings(rel_tol=1e-300, abs_tol=1e-300))
    assert type(info.value) is IntegrationError and info.value.time == 0.0
    assert "rel_tol = 1e-300" in str(info.value) and "abs_tol = 1e-300" in str(info.value)


def test_the_initial_step_probe_stays_inside_the_span():
    # Hairer's trial step 0.01 d0 / d1 is 100 here, over a span of 1
    ts = []

    def rhs(t, y):
        ts.append(t)
        return 1e-4 * y

    sol = integrate_ivp(rhs, np.array([1.0]), (0.0, 1.0))
    assert max(ts) == 1.0
    assert sol(1.0)[0] == pytest.approx(np.exp(1e-4), rel=1e-12)


def test_repeated_breakpoints_count_once():
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    def coefficients(ts, xs):
        return -np.ones((ts.size, 1, 1)), np.where(ts < 0.5, 1.0, -1.0)[:, None]

    def solves(breakpoints):
        sol = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0), breakpoints=breakpoints)
        return sol, replay_linear(sol, coefficients, np.ones((1, 1)))

    once, twice = solves([0.5]), solves([0.5, 0.5])
    assert np.array_equal(once[0].restarts, [0.5]) and np.array_equal(twice[0].restarts, [0.5])
    for a, b in zip(once, twice):
        assert np.array_equal(a.t_grid, b.t_grid)
        assert np.array_equal(a.values, b.values)
        assert all(np.array_equal(sa, sb) for sa, sb in zip(a.segments, b.segments))


def test_a_trajectory_replays_at_its_own_restarts():
    # a solve records the breakpoints it restarted at, and a replay on its
    # steps clamps its stage times there: a trajectory built by hand from the
    # solve's nodes and segments replays bit for bit the same when given them,
    # and unclamped, with stages on the breakpoint itself, when not
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    seen = []

    def coefficients(ts, xs):
        seen.append(ts)
        return -np.ones((ts.size, 1, 1)), np.where(ts < 0.5, 1.0, -1.0)[:, None]

    sol = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0), breakpoints=[0.0, 0.5, 0.5, 1.0, 2.0])
    assert np.array_equal(sol.restarts, [0.5]) and 0.5 in sol.t_grid
    plain = DenseTrajectory(sol.t_grid, sol.values, sol.segments)
    given = DenseTrajectory(sol.t_grid, sol.values, sol.segments, restarts=sol.restarts)
    assert plain.restarts.shape == (0,)
    want, got, unclamped = (replay_linear(traj, coefficients, np.ones((1, 1)))
                            for traj in (sol, given, plain))
    assert np.array_equal(seen[0], seen[1]) and 0.5 not in seen[0]
    assert np.array_equal(want.values, got.values)
    assert all(np.array_equal(a, b) for a, b in zip(want.segments, got.segments))
    assert 0.5 in seen[2] and not np.array_equal(unclamped.values, want.values)
    # lane views keep their solve's restarts
    lanes = integrate_ivp(lambda t, y: rhs(t, y) * np.ones_like(y), np.zeros((2, 1)),
                          (0.0, 1.0), breakpoints=[0.5])
    assert all(np.array_equal(view.restarts, [0.5]) for view in lanes.lanes())


def test_shapes_are_refused_typed_before_any_step():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    for y0 in (1.0, np.ones((2, 2, 2)), np.ones(0), np.ones((2, 0)), np.ones((0, 3))):
        with pytest.raises(DimensionError, match=re.escape(
                f"y0 has shape {np.shape(y0)}, expected (d,) or (B, d) with d, B >= 1")):
            integrate_ivp(rhs, y0, (0.0, 1.0))
    assert not calls

    sol = integrate_ivp(rhs, np.ones(2), (0.0, 1.0))
    calls.clear()

    def coefficients(ts, xs):
        calls.append(ts)
        return -np.ones((ts.size, 2, 2)), np.zeros(ts.size)

    with pytest.raises(DimensionError, match=re.escape("expected (n, r) or (B, n, r)")):
        replay_linear(sol, coefficients, np.ones(2))
    assert not calls
    for n in (3, 2):
        with pytest.raises(DimensionError, match=re.escape(
                f"expected M as (..., {n}, {n}) and l as (..., {n})")):
            replay_linear(sol, coefficients, np.ones((n, 1)))


def test_a_mis_shaped_right_hand_side_is_refused_typed():
    # y' = -(y_0 + y_1) as one (1,) value for a (2,) state used to broadcast
    # into both channels, and a (B, 1) value for (B, 3) lanes to raise
    # numpy's own error; the first f is checked against the state's shape,
    # once, before any step
    calls = []

    def summed(t, y):
        calls.append(t)
        return -y.sum(axis=-1, keepdims=True)

    for y0 in (np.array([1.0, 2.0]), np.ones((4, 3))):
        calls.clear()
        with pytest.raises(DimensionError, match=re.escape(
                f"rhs returned shape {y0.shape[:-1] + (1,)}, expected {y0.shape}")):
            integrate_ivp(summed, y0, (0.0, 1.0))
        assert calls == [0.0]
    # a (d,) state's right-hand side sees (d,) arrays, lanes' their (B, d)
    for y0 in (np.array([1.0, 2.0]), np.ones((4, 3))):
        shapes = set()
        integrate_ivp(lambda t, y: shapes.add(y.shape) or -y, y0, (0.0, 1.0))
        assert shapes == {y0.shape}


def _pendulum(t_span):
    def rhs(t, y):
        return np.array([y[1], -np.sin(y[0]) + np.cos(3.0 * t), 0.3 * y[0] * y[1]])

    return integrate_ivp(rhs, np.array([0.3, -0.2, 1.0]), t_span)


_PENDULUM_Y_END = np.array([[1.0, 0.5], [-0.5, 0.0], [0.2, 1.0]])


def _replayed_pendulum(y_end=_PENDULUM_Y_END, forcing=1.0):
    # its segments are anchored at the right end, with negative denominators
    def coefficients(ts, xs):
        M = np.zeros((ts.size, 3, 3))
        M[:, 0, 1] = 1.0
        M[:, 1, 0] = -np.cos(xs[:, 0])
        M[:, 2, 2] = 0.3 * xs[:, 0]
        return M, forcing * np.sin(ts)[:, None] * xs

    return replay_linear(_pendulum((0.0, 3.0)), coefficients, y_end)


def test_replay_channels_hold_the_block_row_major():
    # channel i*r + j holds Y[i, j], and lookups give the (n, r) blocks: the
    # forced first column replays alone, and so does the second, which sees
    # M only
    whole = _replayed_pendulum()
    r = _PENDULUM_Y_END.shape[1]
    assert whole.channels == _PENDULUM_Y_END.shape and whole.lane_count is None
    assert np.array_equal(whole.values[-1], _PENDULUM_Y_END.reshape(-1))
    assert np.array_equal(whole.last, _PENDULUM_Y_END)
    ts = np.random.default_rng(5).uniform(0.0, 3.0, 50)
    assert whole(ts).shape == (50, *_PENDULUM_Y_END.shape)
    for j, part in ((0, _replayed_pendulum(_PENDULUM_Y_END[:, :1])),
                    (1, _replayed_pendulum(_PENDULUM_Y_END[:, 1:], forcing=0.0))):
        np.testing.assert_allclose(whole.values[:, j::r], part.values, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(whole(ts)[..., j], part(ts)[..., 0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("source", ["t_span0", "replay"])
def test_dense_scalar_lookups_match_array_lookups(source):
    sol = {"t_span0": lambda: _pendulum((0.0, 3.0)),
           "replay": _replayed_pendulum}[source]()
    if source == "replay":
        assert (sol.segments[1] < 0).all()
        assert np.array_equal(sol.segments[0], sol.t_grid[1:])
    lo, hi = sol.t_grid[0], sol.t_grid[-1]
    rng = np.random.default_rng(2)
    ts = np.concatenate([rng.uniform(lo, hi, 500), sol.t_grid, [lo, hi]])
    batched = sol(ts)
    scalar = np.array([sol(t) for t in ts])
    alone = np.array([sol(np.array([t]))[0] for t in ts])
    assert np.array_equal(scalar, batched)
    assert np.array_equal(alone, batched)
    assert np.array_equal(sol(sol.t_grid).reshape(sol.values.shape), sol.values)


def test_dense_lookups_of_lane_views_match_the_whole():
    # each point is its own contraction, so a lane's view, whose interpolant
    # data is not contiguous, looks up its lane of the whole bit for bit; the
    # whole's lookups and last node put the lane axis first
    lanes = integrate_ivp(lambda t, y: np.stack([-y[0], np.cos(t) - y[1]]),
                          np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]]), (0.0, 3.0))
    assert (lanes.lane_count, lanes.channels) == (2, (3,))
    views = lanes.lanes()
    assert not views[1].segments[4].flags.c_contiguous
    ts = np.random.default_rng(3).uniform(0.0, 3.0, 101)
    whole = lanes(ts)
    assert whole.shape == (2, 101, 3) and lanes.last.shape == (2, 3)
    for b, view in enumerate(views):
        assert view.lane_count is None
        assert np.array_equal(view(ts), whole[b])
        assert np.array_equal(view(ts[7]), lanes(ts[7])[b])
        assert np.array_equal(view(ts[7:8]), lanes(ts[7:8])[b])
        assert np.array_equal(view.last, lanes.last[b])
        assert np.array_equal(view.last, view.values[-1])
        assert view(np.array([])).shape == (0, 3)
    assert lanes(np.array([])).shape == (2, 0, 3)


def _gathered_lookup(traj, t):
    """The lookup as a per-point gather of whole segments, (P, d, 4) for Q,
    and one einsum over the stacked points, in the layout of the lookups:
    the reference for the power-by-power gather of :func:`dense_output`, and
    the values it gave when Q was stored channels by power."""
    grid = traj.t_grid
    ts = np.minimum(np.maximum(np.asarray(t, dtype=float).reshape(-1), grid[0]), grid[-1])
    idx = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, grid.size - 2)
    anchor, denom, scale, base, Q = traj.segments
    Q = np.moveaxis(Q, 0, -1)                   # (segments, channels, 4)
    theta = (ts - anchor.take(idx)) / denom.take(idx)
    powers = np.empty((ts.size, 4))
    powers[:, 0] = theta
    powers[:, 1] = theta * theta
    powers[:, 2] = powers[:, 1] * theta
    powers[:, 3] = powers[:, 2] * theta
    out = np.einsum("...k,...ck->...c", powers, Q.take(idx, axis=0))
    out *= scale.take(idx)[:, None]
    out += base.take(idx, axis=0)
    left, right = ts == grid.take(idx), ts == grid.take(idx + 1)
    out[left] = traj.values[idx[left]]
    out[right] = traj.values[idx[right] + 1]
    out = out[0] if np.ndim(t) == 0 else out
    points = out.ndim - 1
    lanes = [] if traj.lane_count is None else [traj.lane_count]
    out = out.reshape(*out.shape[:-1], *lanes, *traj.channels)
    return np.moveaxis(out, points, 0) if lanes else out


def _step_forced(t_span):
    # a right-hand side that jumps at the breakpoints 0.7 and 1.9
    def rhs(t, y):
        return np.array([y[1], -y[0] + (1.0 if t < 0.7 else -0.5), 2.0 if t < 1.9 else y[0]])

    return integrate_ivp(rhs, np.array([0.2, 0.0, -1.0]), t_span, breakpoints=[0.7, 1.9])


def _lane_solve():
    return integrate_ivp(lambda t, y: np.stack([-y[0], np.cos(t) - y[1], y[0] * y[1]]),
                         np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0], [0.1, 0.2, 0.3]]),
                         (0.0, 3.0))


def _replayed_lanes():
    # the pendulum replay's coefficients on each lane of a lane solve, lanes first
    def coefficients(ts, xs):
        assert xs.shape == (3, ts.size, 3)
        M = np.zeros((*xs.shape[:-1], 3, 3))
        M[..., 0, 1] = 1.0
        M[..., 1, 0] = -np.cos(xs[..., 0])
        M[..., 2, 2] = 0.3 * xs[..., 0]
        return M, np.sin(ts)[:, None] * xs

    y_end = np.stack([_PENDULUM_Y_END, -_PENDULUM_Y_END, 2.0 * _PENDULUM_Y_END])
    return replay_linear(_lane_solve(), coefficients, y_end)


@pytest.mark.parametrize("source", ["forward", "breakpoints", "replay", "lanes",
                                    "lane_replay"])
def test_lookups_match_the_gathered_segment_lookup(source):
    # every lookup equals, bit for bit, a gather of each point's whole
    # segment and one einsum over Q stored channels by power: scalar,
    # one-point and array t, nodes, breakpoints, lane views, lanes-first
    # lookups and trajectories looked up together with ``others``
    sol = {"forward": lambda: _pendulum((0.0, 3.0)),
           "breakpoints": lambda: _step_forced((0.0, 3.0)),
           "replay": _replayed_pendulum,
           "lanes": _lane_solve,
           "lane_replay": _replayed_lanes}[source]()
    assert sol.segments[4].shape == (4, sol.t_grid.size - 1, sol.values.shape[1])
    assert sol.segments[4].flags.c_contiguous
    lo, hi = sol.t_grid[0], sol.t_grid[-1]
    ts = np.concatenate([np.random.default_rng(4).uniform(lo, hi, 400), sol.t_grid,
                         [0.7, 1.9, lo, hi]])
    assert np.array_equal(sol(ts), _gathered_lookup(sol, ts))
    for t in ts[::37]:
        assert np.array_equal(sol(t), _gathered_lookup(sol, t))
        assert np.array_equal(sol(np.array([t])), _gathered_lookup(sol, np.array([t])))
    assert np.array_equal(sol.last, _gathered_lookup(sol, hi))
    if source.startswith("lane"):
        assert sol.lane_count == 3
        for b, view in enumerate(sol.lanes()):
            assert not view.segments[4].flags.c_contiguous
            assert np.array_equal(view(ts), _gathered_lookup(view, ts))
            assert np.array_equal(view(ts), sol(ts)[b])
    if source in ("forward", "breakpoints"):
        # a trajectory on the same grid, looked up with ``others``
        twin = DenseTrajectory(sol.t_grid, -2.0 * sol.values,
                               (*sol.segments[:3], -2.0 * sol.segments[3],
                                np.asfortranarray(-2.0 * sol.segments[4])))
        own, other = sol(ts, twin)
        assert np.array_equal(own, _gathered_lookup(sol, ts))
        assert np.array_equal(other, _gathered_lookup(twin, ts))
        # trajectories on different grids cannot share one search
        stranger = DenseTrajectory(sol.t_grid[::2], sol.values[::2], sol.segments)
        with pytest.raises(ValueError, match="share their grid"):
            sol(ts, stranger)


def _radau(f, y0, jac, settings=None, t_end=10.0, h=None):
    """A Radau IIA stepper for y' = f(y) from y0 at t = 0, with step h if
    given, and the list of its rhs calls after its initial step estimate's
    probe; loose default tolerances accept every step."""
    y0, calls = np.asarray(y0, dtype=float), []

    def rhs(ys):
        calls.append(len(ys))
        return [f(y) for y in ys]
    ros = _Radau(rhs, jac, y0, f(y0), t_end, settings or OdeSettings(rel_tol=1e6, abs_tol=1e6))
    del calls[:]
    if h is not None:
        ros.h = h
    return ros, calls


def _radau_r(z):
    """Radau IIA's stability function, the (2, 3) Pade approximant of exp(z)."""
    return (1 + 2 * z / 5 + z ** 2 / 20) / (1 - 3 * z / 5 + 3 * z ** 2 / 20 - z ** 3 / 60)


@pytest.mark.parametrize("z", [-0.3, -2.0, -40.0])
def test_radau_step_is_its_stability_function(z):
    # y' = lam y with the exact J: the collocation system is linear, so one
    # step is exactly R(h lam) y0, reached in one Newton iteration, one call
    # of the three stage points, whose norm under the loose tolerance ends
    # Newton at the carried factor's start 1.0; f(y_new) is left to the next
    # step
    lam = -2.0
    ros, calls = _radau(lambda y: lam * y, [1.5], lambda y: np.array([[lam]]), t_end=100.0,
                        h=z / lam)
    h, K = ros.step()
    assert h == z / lam and ros.nrejected == 0
    assert ros.y[0] == pytest.approx(1.5 * _radau_r(z), rel=1e-13)
    assert calls == [3] and ros.f is None


def test_radau_is_l_stable():
    # h lam = -1e4: |R| = 3e-4, so the stiff mode is damped in one step
    assert abs(_radau_r(-1e4)) < 1e-3
    ros, _ = _radau(lambda y: -1e4 * y, [1.0], lambda y: np.array([[-1e4]]), h=1.0)
    ros.step()
    assert abs(ros.y[0]) < 1e-3 and ros.y[0] == pytest.approx(_radau_r(-1e4), rel=1e-10)


def test_radau_sends_f_with_the_next_steps_stage_points():
    # y' = lam y with the exact J at the default tolerances: the first step
    # starts at the carried factor 1.0 and takes two Newton iterations, calls
    # of 3 and 3 points.  Its last rate, at rounding level, is carried over,
    # so the next step's Newton takes one iteration, one call of 4 points:
    # the step's start y first, whose f opens the step, then its three stages
    lam, points = -2.0, []
    ros, calls = _radau(lambda y: lam * y, [1.5], lambda y: np.array([[lam]]),
                        OdeSettings(), t_end=100.0, h=0.1)
    rhs = ros.rhs
    ros.rhs = lambda ys: points.append(np.array(ys)) or rhs(ys)
    ros.step()
    assert calls == [3, 3] and ros.f is None and 0.0 <= ros._faccon < 1e-10
    y = ros.y
    ros.step()
    assert calls == [3, 3, 4] and np.array_equal(points[-1][0], y)
    assert np.array_equal(ros._last[2], lam * y) and ros.nrejected == 0


def test_radau_broyden_update_comes_before_the_next_newton_matrix(monkeypatch):
    # J takes its Broyden update with f(y_new), which comes with the next
    # step's stage points, before that step forms I - h A (x) J: the J of
    # that matrix (and of the step's error filter) meets the secant
    # condition J (y_new - y) = f(y_new) - f(y) of the step before
    f = lambda y: np.array([-y[0] + y[1] ** 2, -0.1 * y[1] - y[0] * y[1]])   # noqa: E731
    jac = lambda y: np.array([[-1.0, 2 * y[1]], [-y[1], -0.1 - y[0]]])       # noqa: E731
    ros, _ = _radau(f, [1.0, 2.0], jac, OdeSettings(), h=0.05)
    seen, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append(ros.J.copy()) or inv(a))
    y0 = ros.y
    ros.step()
    y1, J_after_step = ros.y, ros.J.copy()
    ros.step()
    assert ros.nrejected == 0 and not ros._fresh
    dy, dF = y1 - y0, f(y1) - f(y0)
    assert not np.allclose(J_after_step @ dy, dF, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(seen[-1] @ dy, dF, rtol=1e-12, atol=1e-14)
    assert np.array_equal(seen[-1], ros.J)


def test_radau_carried_factor_climbs_until_newton_measures_a_rate_again():
    # as in RADAU5, each Newton solve stores the carried factor's 0.8 power
    # (of eps at least) before its first iteration: while steps end Newton
    # after one iteration the factor climbs toward 1, until a first
    # iteration no longer ends it and the second measures a rate again
    ros, _ = _radau(lambda y: -y, [1.0], lambda y: -np.eye(1), OdeSettings(), t_end=100.0)
    ros.step()
    newton, seen = ros._newton, []

    def spied(y, h, Z, scale):
        before = ros._faccon
        solved = newton(y, h, Z, scale)
        seen.append((before, solved[1], ros._faccon))
        return solved
    ros._newton = spied
    while not ros.done and (not seen or seen[-1][1] == 1):
        ros.step()
    ones, last = seen[:-1], seen[-1]
    assert len(ones) >= 3 and last[1] == 2
    for before, _, after in ones:
        assert after == max(before, np.finfo(float).eps) ** 0.8
    assert ones[-1][2] > 1e3 * ones[0][2]


def test_radau_carried_factor_starts_at_one_in_a_new_stepper():
    # a new stepper starts from the carried factor 1.0, whatever an earlier
    # Radau stepper carried, so its first step takes two Newton iterations;
    # its later steps, one each
    f, jac = (lambda y: -y), (lambda y: -np.eye(1))                         # noqa: E731
    first, _ = _radau(f, [1.0], jac, OdeSettings())
    first.step()
    first.step()
    assert first._faccon < 1e-10
    ros, calls = _radau(f, first.y, jac, OdeSettings())
    assert ros._faccon == 1.0
    ros.step()
    assert calls == [3, 3]
    ros.step()
    assert calls == [3, 3, 4]


def test_radau_re_forms_a_slow_jacobian_at_the_next_step():
    # as in RADAU5, a step whose Newton contracts slower than _THET leaves
    # its successor to re-form J first, at that step's own point; a J under
    # which Newton contracts fast is kept
    from ocflow.integrate import _THET

    A, jacs = np.diag([1.0, 4.0]), []

    def jac(y):                         # the first J is wrong in its second mode
        jacs.append(y.copy())
        return -np.diag([1.0, 2.0]) if len(jacs) == 1 else -A
    ros, calls = _radau(lambda y: -A @ y, [1.0, 1.0], jac, OdeSettings(rel_tol=0.1, abs_tol=0.1),
                        h=0.3)
    ros.step()
    assert ros._slow and ros._faccon / (1 + ros._faccon) > _THET and len(jacs) == 1
    y = ros.y.copy()
    ros.step()
    assert len(jacs) == 2 and np.array_equal(jacs[1], y) and not ros._slow
    ros.step()
    ros.step()
    assert len(jacs) == 2


def test_radau_keeps_the_tolerance_on_a_stiff_system():
    # y' = -diag(1e3, 1) y over [0, 5] at the default OdeSettings, J exact:
    # the fast mode is damped and the slow one meets rel_tol, in few steps
    rate = np.array([1e3, 1.0])
    ros, calls = _radau(lambda y: -rate * y, [1.0, 1.0], lambda y: -np.diag(rate),
                        OdeSettings(), t_end=5.0, h=1e-3)
    while not ros.done:
        ros.step()
    assert ros.t == 5.0 and abs(ros.y[0]) < 1e-10
    assert ros.y[1] == pytest.approx(np.exp(-5.0), rel=1e-3)
    # the first step's Newton calls are of 3 points, every later step's
    # first call of 4 (its start point ahead of the stages), and no f(y_new)
    # is a call of its own
    assert ros.nsteps < 40 and set(calls) == {3, 4}
    assert calls[:2] == [3, 3] and calls.count(4) == ros.nsteps - 1


def test_broyden_update_meets_the_secant_condition():
    rng = np.random.default_rng(3)
    J, dy, dF = rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4)
    J0 = J.copy()
    _broyden(J, dy, dF)
    np.testing.assert_allclose(J @ dy, dF, rtol=1e-13, atol=1e-13)
    # the update is rank one: J acts as before on every direction orthogonal to dy
    v = rng.normal(size=4)
    v -= (v @ dy) / (dy @ dy) * dy
    np.testing.assert_allclose(J @ v, J0 @ v, rtol=1e-13, atol=1e-13)
    J1 = J.copy()
    _broyden(J, np.zeros(4), dF)            # no step, no update
    assert np.array_equal(J, J1)


def test_radau_segment_is_the_collocation_cubic():
    # the segment reproduces y at theta = 0 exactly and y_new at theta = 1,
    # passes through the stage values y + Z_i at the nodes c_i, and is a
    # cubic: its fourth power is zero
    f = lambda y: np.array([-y[0] + y[1] ** 2, -0.1 * y[1]])             # noqa: E731
    ros, _ = _radau(f, [1.0, 2.0], lambda y: np.array([[-1.0, 2 * y[1]], [0.0, -0.1]]),
                    OdeSettings(), h=0.3)
    y_prev = ros.y
    h, K = ros.step()
    Q = ros.segment(K)
    assert Q.shape == (4, 2) and not Q[3].any()
    assert np.array_equal(dense_output(0.0, h, y_prev, Q), y_prev)
    np.testing.assert_allclose(dense_output(1.0, h, y_prev, Q), ros.y, rtol=1e-14)
    np.testing.assert_allclose(dense_output(_RADAU_C, h, y_prev, Q), y_prev + h * K,
                               rtol=1e-14)


def test_radau_newton_failure_reforms_j_once_then_halves_h(monkeypatch):
    # a J gone wrong after an accepted step, planted by the Broyden update
    # that opens the next step: Newton fails, J is re-formed once through
    # jac, Newton fails again with it, and h is halved; with a fresh J no
    # further re-form follows, only more halving.  On y' = -y^2 the exact J
    # leaves a carried factor near 1e-3, so the bad J's first iteration is
    # large enough to call a second, whose rate fails Newton
    import ocflow.integrate as integrate

    events, bad = [], np.array([[40.0]])

    def jac(y):
        events.append("jac")
        return -2 * y[None] if len(events) == 1 else bad
    ros, _ = _radau(lambda y: -y ** 2, [1.0], jac, OdeSettings())
    ros.step()
    assert 1e-4 < ros._faccon < 1e-2
    newton = ros._newton

    def spied(y, h, Z, scale):
        solved = newton(y, h, Z, scale)
        events.append((h, solved is not None))
        return solved
    ros._newton, ros.h = spied, 1.0
    monkeypatch.setattr(integrate, "_broyden", lambda J, dy, dF: J.__setitem__(..., bad))
    del events[:]
    ros.step()
    assert events[:4] == [(1.0, False), "jac", (1.0, False), (0.5, False)]
    assert events.count("jac") == 1 and events[-1][1]
    assert [e[0] for e in events if e != "jac"][2:] == [0.5 ** k for k in
                                                       range(1, len(events) - 2)]
    assert ros.nrejected == len(events) - 3 and ros.nsteps == 2


def test_radau_refines_the_error_estimate_after_a_rejection():
    # y' = -y^2 + sin 3y from 2 with a frozen J = 0 and a first step of 5:
    # the step is rejected several times, and once rejected, an estimate
    # over the tolerance is refined by one call at y + err before it is
    # judged; the step accepted at last keeps the tolerance
    f = lambda y: -y ** 2 + np.sin(3 * y)                                 # noqa: E731
    settings = OdeSettings(rel_tol=1e-6, abs_tol=1e-9)
    ros, calls = _radau(f, [2.0], lambda y: np.zeros((1, 1)), settings, h=5.0)
    h, K = ros.step()
    newton = calls[:]                   # the step makes no call at y_new
    assert ros.nrejected > 1
    assert newton.count(1) == 1 and newton[0] == newton[-1] == 3
    assert set(newton) == {1, 3}
    # f(y_new) is the first point of the next step's first call
    y_new = ros.y
    ros.step()
    assert calls[len(newton)] == 4 and np.array_equal(ros._last[2], f(y_new))
    exact = integrate_ivp(lambda t, y: f(y), np.array([2.0]), (0.0, h),
                          OdeSettings(rel_tol=1e-12, abs_tol=1e-14))(h)
    assert abs(y_new - exact)[0] <= settings.abs_tol + settings.rel_tol * abs(exact[0])


def test_radau_singular_newton_matrix_fails_newton():
    # J = 1e20 everywhere makes I - h A (x) J singular in floating point (the
    # identity is lost to rounding, and the two rows of each block agree):
    # Newton fails when it forms the matrix, after its first call, and h is
    # halved as for any other failure
    J = np.full((2, 2), 1e20)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(6) - np.kron(_RADAU_A, J))
    ros, calls = _radau(lambda y: -y, [1.0, 1.0], lambda y: J, OdeSettings(), h=1.0)
    newton, events = ros._newton, []

    def spied(y, h, Z, scale):
        before = len(calls)
        solved = newton(y, h, Z, scale)
        events.append((h, solved is not None, calls[before:]))
        ros.J = -np.eye(2)              # the exact J from the first failure on
        return solved
    ros._newton = spied
    h, K = ros.step()
    assert events == [(1.0, False, [3]), (0.5, True, [3, 3])]
    assert h == 0.5 and ros.nrejected == 1


def test_radau_errors_are_typed():
    f = lambda y: -y                                                      # noqa: E731
    with pytest.raises(DivergenceError, match="Jacobian"):
        _radau(f, [1.0], lambda y: np.array([[np.nan]]))
    ros, _ = _radau(f, [1.0], lambda y: -np.eye(1), OdeSettings(max_steps=3))
    with pytest.raises(StepBudgetError, match="max_steps = 3"):
        while True:
            ros.step()
    # f(y_new) not finite, the first point of the next step's first call,
    # ends the solve with a DivergenceError at the accepted step's end time,
    # not as a rejection
    ros, calls = _radau(f, [1.0], lambda y: -np.eye(1), h=0.5)

    def nan_at_acceptance(ys):
        calls.append(len(ys))
        return [np.full_like(y, np.nan) if len(ys) == 4 and i == 0 else -y
                for i, y in enumerate(ys)]
    ros.rhs = nan_at_acceptance
    ros.step()
    assert ros.t == 0.5 and calls == [3]
    with pytest.raises(DivergenceError, match="non-finite right-hand side") as exc:
        ros.step()
    assert exc.value.time == 0.5 and ros.nrejected == 0 and calls == [3, 4]
    # stages that are never finite fail Newton, which halves h until it underflows
    ros, _ = _radau(f, [1.0], lambda y: -np.eye(1), h=0.5)
    ros.rhs = lambda ys: [np.full_like(y, np.nan) for y in ys]
    with pytest.raises(IntegrationError, match="underflow"):
        ros.step()
