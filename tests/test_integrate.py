import warnings

import numpy as np
import pytest

from ocflow import (DenseTrajectory, DivergenceError, DomainError, IntegrationError,
                    OdeSettings, StepBudgetError, integrate_ivp, replay_linear)
from ocflow.integrate import _Stepper


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
                                np.zeros((n_steps, 1, 4))))
        sol = replay_linear(grid, coefficients, np.array([[np.exp(np.sin(2.0))]]))
        return abs(sol.values[0, 0] - 1.0)

    e1 = y0_error(20)
    e2 = y0_error(40)
    assert 16.0 < e1 / e2 < 64.0


def test_step_stays_inside_the_stability_limit():
    # y' = -0.1 y: left to the error controller alone, steps ride at
    # h * lambda ~ 3.3, the real-axis stability limit, and |y| stalls near
    # 2e-7; the stability cap holds them to 0.8 * 3.3 and y keeps decaying
    sol = integrate_ivp(lambda t, y: -0.1 * y, np.array([1.0]), (0.0, 3000.0))
    late = sol.t_grid >= 1500.0
    assert np.abs(sol.values[late]).max() < 1e-12
    h_lambda = 0.1 * np.diff(sol.t_grid)[late[:-1]]
    assert h_lambda.max() <= 0.8 * 3.3 * (1 + 1e-12)


def test_replay_needs_the_breakpoints_on_its_grid():
    sol = integrate_ivp(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    assert 0.5 not in sol.t_grid

    def coefficients(ts, xs):
        return -np.ones((ts.size, 1, 1)), np.zeros((ts.size, 1))
    with pytest.raises(ValueError):
        replay_linear(sol, coefficients, np.ones((1, 1)), breakpoints=[0.5])
    back = replay_linear(sol, coefficients, np.ones((1, 1)), breakpoints=[0.0, 1.0])
    assert back.values[0, 0] == pytest.approx(np.e, rel=1e-3)


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


def test_guard_rejects_until_underflow():
    # a guard that can never be satisfied ends in a loud failure
    stepper = _Stepper(lambda t, y: -np.ones(1), 0.0, np.array([0.5]), 10.0,
                       OdeSettings(), guard=lambda t, y: y[0] > 0.4)
    with pytest.raises(IntegrationError, match="underflow"):
        while not stepper.done:
            stepper.step()


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


def test_repeated_breakpoints_count_once():
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    def coefficients(ts, xs):
        return -np.ones((ts.size, 1, 1)), np.where(ts < 0.5, 1.0, -1.0)[:, None]

    def solves(breakpoints):
        sol = integrate_ivp(rhs, np.array([0.0]), (0.0, 1.0), breakpoints=breakpoints)
        return sol, replay_linear(sol, coefficients, np.ones((1, 1)),
                                  breakpoints=breakpoints)

    for a, b in zip(solves([0.5]), solves([0.5, 0.5])):
        assert np.array_equal(a.t_grid, b.t_grid)
        assert np.array_equal(a.values, b.values)
        assert all(np.array_equal(sa, sb) for sa, sb in zip(a.segments, b.segments))


def _pendulum(t_span):
    def rhs(t, y):
        return np.array([y[1], -np.sin(y[0]) + np.cos(3.0 * t), 0.3 * y[0] * y[1]])

    return integrate_ivp(rhs, np.array([0.3, -0.2, 1.0]), t_span)


def _replayed_pendulum():
    # its segments are anchored at the right end, with negative denominators
    def coefficients(ts, xs):
        M = np.zeros((ts.size, 3, 3))
        M[:, 0, 1] = 1.0
        M[:, 1, 0] = -np.cos(xs[:, 0])
        M[:, 2, 2] = 0.3 * xs[:, 0]
        return M, np.sin(ts)[:, None] * xs

    return replay_linear(_pendulum((0.0, 3.0)), coefficients,
                         np.array([[1.0, 0.5], [-0.5, 0.0], [0.2, 1.0]]))


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
    assert np.array_equal(sol(sol.t_grid), sol.values)


def test_dense_lookups_of_lane_views_match_the_whole():
    # each point is its own contraction, so a lane's view, whose interpolant
    # data is not contiguous, looks up its channels of the whole bit for bit
    lanes = integrate_ivp(lambda t, y: np.stack([-y[0], np.cos(t) - y[1]]),
                          np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]]), (0.0, 3.0))
    views = lanes.lanes(2)
    assert not views[1].segments[4].flags.c_contiguous
    ts = np.random.default_rng(3).uniform(0.0, 3.0, 101)
    whole = lanes(ts)
    for b, view in enumerate(views):
        assert np.array_equal(view(ts), whole[:, 3 * b:3 * b + 3])
        assert view(np.array([])).shape == (0, 3)
    assert lanes(np.array([])).shape == (0, 6)


def _gathered_lookup(traj, t):
    """The lookup as a per-point gather of whole segments, (P, d, 4) for Q,
    and one einsum over the stacked points: the reference for the power-by-
    power gather of :func:`dense_output`."""
    grid = traj.t_grid
    ts = np.minimum(np.maximum(np.asarray(t, dtype=float).reshape(-1), grid[0]), grid[-1])
    idx = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, grid.size - 2)
    anchor, denom, scale, base, Q = traj.segments
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
    return out[0] if np.ndim(t) == 0 else out


def _step_forced(t_span):
    # a right-hand side that jumps at the breakpoints 0.7 and 1.9
    def rhs(t, y):
        return np.array([y[1], -y[0] + (1.0 if t < 0.7 else -0.5), 2.0 if t < 1.9 else y[0]])

    return integrate_ivp(rhs, np.array([0.2, 0.0, -1.0]), t_span, breakpoints=[0.7, 1.9])


@pytest.mark.parametrize("source", ["forward", "breakpoints", "replay", "lanes"])
def test_lookups_match_the_gathered_segment_lookup(source):
    # every lookup equals, bit for bit, a gather of each point's whole
    # segment and one einsum: scalar and array t, nodes, breakpoints, lane
    # views and trajectories looked up together with ``others``
    sol = {"forward": lambda: _pendulum((0.0, 3.0)),
           "breakpoints": lambda: _step_forced((0.0, 3.0)),
           "replay": _replayed_pendulum,
           "lanes": lambda: integrate_ivp(
               lambda t, y: np.stack([-y[0], np.cos(t) - y[1], y[0] * y[1]]),
               np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0], [0.1, 0.2, 0.3]]), (0.0, 3.0))
           }[source]()
    lo, hi = sol.t_grid[0], sol.t_grid[-1]
    ts = np.concatenate([np.random.default_rng(4).uniform(lo, hi, 400), sol.t_grid,
                         [0.7, 1.9, lo, hi]])
    assert np.array_equal(sol(ts), _gathered_lookup(sol, ts))
    for t in ts[::37]:
        assert np.array_equal(sol(t), _gathered_lookup(sol, t))
    if source == "lanes":
        for view in sol.lanes(3):
            assert not view.segments[4].flags.c_contiguous
            assert np.array_equal(view(ts), _gathered_lookup(view, ts))
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
