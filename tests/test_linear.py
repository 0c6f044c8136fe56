"""Tests for the alternating AR/VAR estimators and their building blocks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arid import linear, numerics
from arid.errors import HorizonTooShort, NotPositiveDefinite, SingularSystem, ZeroNormReference
from arid.linear import (
    _MIXING_DEPTH,
    _Mixing,
    _RIDGE_BOOSTS,
    FitConfig,
    LossBreakdown,
    _measurement_rhs,
    _solve_smoother,
    _sumsq,
    assemble_ar_smoother,
    assemble_var_smoother,
    error_metrics,
    evaluate_loss,
    fit_ar,
    fit_ar_batch,
    fit_var1,
    param_step,
    solve_banded_spd,
    solve_block_tridiagonal_spd,
    state_step,
)
from arid.model import (
    ARParams,
    LinearSSModel,
    NoiseSpec,
    SyntheticSpec,
    TimeSeries,
    build_companion,
    delay_windows,
    oscillatory_ar5,
    scalar_values,
    simulate,
)
from arid.numerics import Smoother, SteadyProbe, smoother_bands, solve_regularized_ls, solve_smoother


def noise_free_series(theta: np.ndarray, x1: np.ndarray, n_steps: int) -> TimeSeries:
    model = build_companion(ARParams(theta))
    _, measured = simulate(model, x1, n_steps, NoiseSpec(0.0, 0.0, 0))
    return measured


def loss_of(theta: np.ndarray, y_hat: np.ndarray, y: np.ndarray, rho: float, anchor_all: bool = False) -> LossBreakdown:
    """The objective of one trajectory by ``evaluate_loss`` on a stack of one, totalled as a fit logs it."""
    r = theta.size
    dynamics, measurement = evaluate_loss(theta[None], delay_windows(y_hat[None], r)[0], y_hat[None], y[None],
                                          0 if anchor_all else r - 1)
    total = dynamics[0] + rho * measurement[0]
    return LossBreakdown(float(dynamics[0]), float(measurement[0]), float(total), float(total) / y_hat.size)


def smooth(theta: np.ndarray, y, rho: float, lam: float = 0.0, anchor_all: bool = False) -> np.ndarray:
    """One trajectory smoothed by ``state_step`` on a stack of one."""
    start = 0 if anchor_all else theta.size - 1
    rhs = _measurement_rhs(np.asarray(y, dtype=float)[None], rho, start)
    return state_step(theta[None], rhs, np.full((1, 1), rho), lam, start)[0][0]


def total_with_ridge(
    theta: np.ndarray,
    y_hat: np.ndarray,
    y: TimeSeries,
    rho: float,
    lam: float,
    anchor_all: bool,
) -> float:
    total = loss_of(theta, y_hat, scalar_values(y), rho, anchor_all).total
    if lam > 0:
        total += lam * float(theta @ theta + y_hat @ y_hat)
    return total


def dense_smoother_solution(
    theta: np.ndarray, y: TimeSeries, rho: float, lam: float, anchor_all: bool
) -> np.ndarray:
    """Minimizer of the trajectory objective via dense normal equations."""
    yo = scalar_values(y)
    n = yo.size
    r = theta.size
    rows = n - r
    dynamics = np.zeros((rows, n))
    stencil = np.concatenate((-theta[::-1], [1.0]))
    for j in range(rows):
        dynamics[j, j : j + r + 1] = stencil
    start = 0 if anchor_all else r - 1
    selector = np.zeros(n)
    selector[start:] = 1.0
    normal = dynamics.T @ dynamics + np.diag(rho * selector) + lam * np.eye(n)
    return np.linalg.solve(normal, rho * selector * yo)


# ---------------------------------------------------------------------------
# loss evaluation


def test_loss_hand_computed_breakdown():
    loss = loss_of(np.array([1.0]), np.array([1.0, 2.0, 2.5]), np.array([1.0, 2.0, 3.0]), rho=2.0)
    assert loss.dynamics_term == pytest.approx(1.25, abs=1e-14)
    assert loss.measurement_term == pytest.approx(0.25, abs=1e-14)
    assert loss.total == pytest.approx(1.75, abs=1e-14)
    assert loss.normalized == pytest.approx(1.75 / 3.0, abs=1e-14)


def test_anchoring_adds_leading_measurement_residuals():
    theta = np.array([1.0, 0.0])
    y_hat = np.array([0.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    plain = loss_of(theta, y_hat, y, rho=0.5, anchor_all=False)
    anchored = loss_of(theta, y_hat, y, rho=0.5, anchor_all=True)
    assert plain.measurement_term == pytest.approx(0.0, abs=1e-14)
    assert anchored.measurement_term == pytest.approx(1.0, abs=1e-14)
    assert anchored.total - plain.total == pytest.approx(0.5, abs=1e-14)


def test_loss_terms_of_a_stack_are_those_of_its_members():
    rng = np.random.Generator(np.random.Philox(key=30))
    thetas, y_hat, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 20)), rng.normal(size=(4, 20))
    for start in (0, 2):
        dynamics, measurement = evaluate_loss(thetas, delay_windows(y_hat, 3)[0], y_hat, y, start)
        for k in range(4):
            resid = [y_hat[k, t] - sum(thetas[k, j] * y_hat[k, t - 1 - j] for j in range(3)) for t in range(3, 20)]
            assert dynamics[k] == pytest.approx(float(np.dot(resid, resid)), rel=1e-12)
            assert measurement[k] == pytest.approx(float(np.sum((y[k, start:] - y_hat[k, start:]) ** 2)), rel=1e-12)


# ---------------------------------------------------------------------------
# parameter step


def test_constant_series_fits_unit_coefficient():
    thetas, dynamics = param_step(*delay_windows(np.full((1, 4), 3.0), 1), 0.0)
    np.testing.assert_allclose(thetas, [[1.0]], rtol=0, atol=1e-12)
    assert dynamics[0] == pytest.approx(0.0, abs=1e-20)


def test_param_step_is_least_squares_on_embedding():
    # Each member of a stack is the regression of its own windows, and its dynamics term the residual of that fit.
    rng = np.random.Generator(np.random.Philox(key=31))
    windows, targets = delay_windows(rng.normal(size=(3, 40)), 3)
    thetas, dynamics = param_step(windows, targets, 0.05)
    for k in range(3):
        oracle = solve_regularized_ls(windows[k], targets[k], 0.05)
        np.testing.assert_array_equal(thetas[k], oracle)
        resid = targets[k] - windows[k] @ oracle
        assert dynamics[k] == pytest.approx(float(resid @ resid), rel=1e-12)


def test_param_step_recovers_noise_free_coefficients():
    theta_true = np.array([0.4, -0.3, 0.2])
    y = noise_free_series(theta_true, np.array([1.0, 0.5, -0.5]), 60)
    thetas, _ = param_step(*delay_windows(y.values.T, 3), 0.0)
    np.testing.assert_allclose(thetas[0], theta_true, rtol=0, atol=1e-10)


def test_param_step_gradient_vanishes_at_solution():
    rng = np.random.Generator(np.random.Philox(key=32))
    y = TimeSeries(rng.normal(size=50))
    yh = scalar_values(y)
    theta = param_step(*delay_windows(yh[None], 4), 0.0)[0][0]
    step = 1e-6
    for k in range(4):
        bump = np.zeros(4)
        bump[k] = step
        up = total_with_ridge(theta + bump, yh, y, 1.0, 0.0, False)
        down = total_with_ridge(theta - bump, yh, y, 1.0, 0.0, False)
        gradient = (up - down) / (2 * step)
        assert abs(gradient) <= 1e-4 * max(1.0, up)


# ---------------------------------------------------------------------------
# state step


@pytest.mark.parametrize("order, n_steps", [(1, 2), (3, 5), (3, 7), (3, 8), (5, 40)])
def test_smoother_bands_sum_in_pair_loop_order(order, n_steps):
    # Reference: every (a, b) stencil pair added to its band in turn.
    rng = np.random.Generator(np.random.Philox(key=order * 100 + n_steps))
    theta = rng.normal(size=order)
    stencil = np.concatenate((-theta[::-1], [1.0]))
    expected = np.zeros((order + 1, n_steps))
    for a in range(order + 1):
        for b in range(a, order + 1):
            expected[b - a, a : a + n_steps - order] += stencil[a] * stencil[b]
    expected[0] += 0.3
    smoother = assemble_ar_smoother(theta[None], n_steps, np.full((1, 1), 0.3), 0.0, 0)
    bands = smoother_bands(smoother.stencils, smoother.Q, n_steps, smoother.start, smoother.lam)
    np.testing.assert_array_equal(bands[0], expected)


def loop_bands(stencils: np.ndarray, Q: np.ndarray, n: int, start: int, lam: float) -> np.ndarray:
    """Smoother bands by one pass per stencil offset over block columns that start at 0.0.

    ``stencils`` is a (B, r + 1, p, p) stack [S_0 ... S_r]. Block (j + k, j)
    gets the p x p product S_(a+k)^T S_a of every window offset a that holds
    block j, in increasing a; then Q goes onto the diagonal blocks from
    ``start`` on and lam onto the diagonal. Band row q of column j p + c is
    entry (j p + c + q, j p + c).
    """
    count, width, p = stencils.shape[:3]
    r = width - 1
    blocks = np.zeros((count, width, n, p, p))  # blocks[:, k, j] is block (j + k, j)
    for a in range(width):
        for k in range(width - a):
            blocks[:, k, a : a + n - r] += (stencils[:, a + k].transpose(0, 2, 1) @ stencils[:, a])[:, None]
    blocks[:, 0, start:] += Q
    blocks[:, 0, :, np.arange(p), np.arange(p)] += lam
    rows = min(width, n) * p
    bands = np.zeros((count, rows, n * p))
    for c in range(p):
        for q in range(rows):
            k, i = divmod(c + q, p)
            if k < width:
                bands[:, q, c::p] = blocks[:, k, :, i, c]
    return bands


# AR(r) stencils up to order 10, and the first-order block stencils of VAR
# and NAR at the block sizes of the tests and the benchmark.
@pytest.mark.parametrize(
    "order, block_dim",
    [pytest.param(order, 1, id=str(order)) for order in range(1, 11)]
    + [pytest.param(1, block_dim, id=f"1-p{block_dim}") for block_dim in (4, 7, 32)],
)
def test_band_builder_equals_per_offset_loop_bit_for_bit(order, block_dim):
    rng = np.random.Generator(np.random.Philox(key=100 * block_dim + order))
    stencils = np.empty((5, order + 1, block_dim, block_dim))
    stencils[:, :order] = rng.normal(scale=0.5, size=(5, order, block_dim, block_dim))
    stencils[:, order] = np.eye(block_dim)
    # Exact zeros, negative zeros and tiny products reach every sign-of-zero case.
    stencils[1, 0], stencils[2, :order], stencils[3, order - 1] = 0.0, 0.0, -0.0
    stencils[4, :order] *= 1e-170
    Q = rng.normal(size=(block_dim, block_dim))
    for n in sorted({order, order + 1, 2 * order, 2 * order + 2, 200 // block_dim}):
        for start in sorted({0, order - 1}):
            for lam in (0.0, 0.01):
                bands = smoother_bands(stencils, Q, n, start, lam)
                expected = loop_bands(stencils, Q, n, start, lam)
                assert bands.shape == expected.shape and bands.tobytes() == expected.tobytes()
                # Column-major per system, so a stack is LAPACK's band layout without a copy.
                assert bands.transpose(0, 2, 1).flags.c_contiguous


def test_state_step_noise_free_fixed_point():
    theta_true = np.array([0.4, -0.3, 0.2])
    y = noise_free_series(theta_true, np.array([1.0, 0.5, -0.5]), 50)
    smoothed = smooth(theta_true, scalar_values(y), rho=0.1)
    np.testing.assert_allclose(smoothed, scalar_values(y), rtol=0, atol=1e-9)


def test_state_step_with_huge_rho_returns_measurements():
    rng = np.random.Generator(np.random.Philox(key=33))
    y = TimeSeries(rng.normal(size=40))
    yo = scalar_values(y)
    smoothed = smooth(np.array([0.5, 0.2]), yo, rho=1e8)
    relative = np.abs(smoothed[1:] - yo[1:]) / np.maximum(np.abs(yo[1:]), 1e-3)
    assert float(relative.max()) < 1e-3


@pytest.mark.parametrize("anchor_all", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_state_step_matches_dense_normal_equations(anchor_all, lam):
    rng = np.random.Generator(np.random.Philox(key=34))
    theta = np.array([0.4, -0.3, 0.2])
    y = TimeSeries(rng.normal(size=30))
    smoothed = smooth(theta, scalar_values(y), 0.25, lam, anchor_all)
    oracle = dense_smoother_solution(theta, y, 0.25, lam, anchor_all)
    np.testing.assert_allclose(smoothed, oracle, rtol=1e-10, atol=1e-12)


def test_state_step_gradient_vanishes_at_solution():
    rng = np.random.Generator(np.random.Philox(key=35))
    theta = np.array([0.6, -0.1])
    y = TimeSeries(rng.normal(size=25))
    smoothed = smooth(theta, scalar_values(y), rho=0.5)
    step = 1e-6
    worst = 0.0
    for k in range(25):
        bump = np.zeros(25)
        bump[k] = step
        up = total_with_ridge(theta, smoothed + bump, y, 0.5, 0.0, False)
        down = total_with_ridge(theta, smoothed - bump, y, 0.5, 0.0, False)
        worst = max(worst, abs((up - down) / (2 * step)))
    reference = total_with_ridge(theta, smoothed, y, 0.5, 0.0, False)
    assert worst <= 1e-4 * max(1.0, reference)


def test_state_step_survives_unpinned_leading_value():
    # With zero coefficients and the literal measurement range the first
    # trajectory value appears in no residual at all, so the normal matrix
    # is exactly singular and the diagonal-shift retry has to engage.
    smoothed = smooth(np.array([0.0, 0.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), rho=1.0)
    assert np.all(np.isfinite(smoothed))
    # Minimizer by hand: index 1 carries only its measurement residual and
    # indices >= 2 balance the zero-pull of the dynamics term against the
    # measurement pull, giving y * rho / (1 + rho).
    np.testing.assert_allclose(smoothed[1:], [2.0, 1.5, 2.0, 2.5], rtol=1e-6)


# ---------------------------------------------------------------------------
# alternating AR fit


def test_noise_free_fit_converges_immediately():
    theta_true = np.array([0.4, -0.3, 0.2])
    y = noise_free_series(theta_true, np.array([1.0, 0.5, -0.5]), 60)
    result = fit_ar(y, FitConfig(order_r=3, rho=0.1))
    assert result.converged and result.stop_reason == "zero_floor"
    assert result.iterations_run == 1
    np.testing.assert_allclose(result.theta_hat.theta, theta_true, rtol=0, atol=1e-8)


def test_first_estimate_is_classical_least_squares():
    rng = np.random.Generator(np.random.Philox(key=36))
    y = TimeSeries(rng.normal(size=80))
    result = fit_ar(y, FitConfig(order_r=4, rho=0.1, max_iterations=5))
    gamma, y_plus = delay_windows(scalar_values(y), 4)
    baseline = solve_regularized_ls(gamma, y_plus, 0.0)
    np.testing.assert_array_equal(result.estimate_history[0].theta, baseline)


def test_loss_history_non_increasing_without_ridge():
    rng = np.random.Generator(np.random.Philox(key=37))
    for trial in range(10):
        order = int(rng.integers(1, 5))
        n_steps = int(rng.integers(30, 120))
        y = TimeSeries(rng.normal(size=n_steps))
        result = fit_ar(y, FitConfig(order_r=order, rho=0.1, max_iterations=30))
        totals = [loss.total for loss in result.loss_history]
        for before, after in zip(totals, totals[1:]):
            assert after <= before * (1 + 1e-9)


def test_fit_deterministic():
    spec = SyntheticSpec(oscillatory_ar5(), 100, 0.01, 1.0, 5)
    _, y = spec.trajectory()
    config = FitConfig(order_r=5, rho=0.1, max_iterations=20, anchor_all_values=True)
    first = fit_ar(y, config)
    second = fit_ar(y, config)
    np.testing.assert_array_equal(first.theta_hat.theta, second.theta_hat.theta)
    np.testing.assert_array_equal(first.y_hat.values, second.y_hat.values)
    assert first.min_eig_magnitude == second.min_eig_magnitude


def test_fit_records_every_iteration():
    rng = np.random.Generator(np.random.Philox(key=38))
    y = TimeSeries(rng.normal(size=60))
    result = fit_ar(y, FitConfig(order_r=2, rho=0.1, max_iterations=7, convergence_tol=1e-300))
    assert result.iterations_run == 7
    assert len(result.loss_history) == 7
    assert len(result.estimate_history) == 7
    assert not result.converged and result.stop_reason == "iteration_cap"


def test_ridge_monitor_non_increasing():
    rng = np.random.Generator(np.random.Philox(key=39))
    y = TimeSeries(rng.normal(size=70))
    config = FitConfig(order_r=3, rho=0.1, lam=0.01, max_iterations=25)
    result = fit_ar(y, config)
    yh = scalar_values(result.y_hat)
    # Reconstruct the monitored objective for the final iterate only; the
    # per-iteration trajectory is not retained, so check the plain loss tail
    # pairs with the recorded history.
    final = total_with_ridge(result.theta_hat.theta, yh, y, 0.1, 0.01, False)
    recorded = result.loss_history[-1].total + 0.01 * float(
        result.theta_hat.theta @ result.theta_hat.theta + yh @ yh
    )
    assert final == pytest.approx(recorded, rel=1e-12)


def reference_fit_ar(y: TimeSeries, config: FitConfig):
    """One series as a stack of one, one step at a time: refit, smooth, two loss evaluations, guard, stop rule."""
    yo = scalar_values(y)
    # 1e-24 times the sum of squares, summed over the series scaled by its largest magnitude.
    scale = float(np.max(np.abs(yo))) or 1.0
    floor = 1e-24 * scale * scale * float(np.sum((yo / scale) ** 2))
    anchor, lam, r, rho = config.anchor_all_values, config.lam, config.order_r, config.rho
    start = 0 if anchor else r - 1
    rhs = _measurement_rhs(yo[None], rho, start)
    y_hat, history, estimates, monitor_prev, converged = yo, [], [], None, False
    for _ in range(config.max_iterations):
        theta = param_step(*delay_windows(y_hat[None], r), lam)[0][0]
        candidate = state_step(theta[None], rhs, np.full((1, 1), rho), lam, start)[0][0]
        loss = loss_of(theta, candidate, yo, rho, anchor)
        held = loss_of(theta, y_hat, yo, rho, anchor)
        if loss.total + lam * float(candidate @ candidate) > held.total + lam * float(y_hat @ y_hat):
            candidate, loss = y_hat, held
        y_hat = candidate
        history.append(loss)
        estimates.append(ARParams(theta))
        monitor = loss.total
        if lam > 0:
            monitor += lam * float(theta @ theta + y_hat @ y_hat)
        if monitor <= floor:
            converged = True
            break
        if monitor_prev is not None and abs(monitor_prev - monitor) <= config.convergence_tol * monitor_prev:
            converged = True
            break
        monitor_prev = monitor
    return TimeSeries(y_hat), tuple(history), tuple(estimates), converged


def assert_same_fit(result, expected):
    np.testing.assert_array_equal(result.theta_hat.theta, expected.theta_hat.theta)
    np.testing.assert_array_equal(result.y_hat.values, expected.y_hat.values)
    assert result.loss_history == expected.loss_history
    assert len(result.estimate_history) == len(expected.estimate_history)
    for got, want in zip(result.estimate_history, expected.estimate_history):
        np.testing.assert_array_equal(got.theta, want.theta)
    assert result.iterations_run == expected.iterations_run
    assert result.converged == expected.converged
    assert result.min_eig_magnitude == expected.min_eig_magnitude


@pytest.mark.parametrize(
    "settings",
    [
        dict(rho=0.1, convergence_tol=1e-300, anchor_all_values=True),
        dict(rho=0.1, lam=1e-3, anchor_all_values=True),
        dict(rho=0.1),
        dict(rho=1e-4, convergence_tol=1e-300),
    ],
)
def test_fit_matches_step_by_step_reference(settings):
    spec = SyntheticSpec(oscillatory_ar5(), 120, 0.01, 1.0, 41)
    for trial, order in enumerate((2, 5, 8)):
        _, y = spec.trajectory(trial)
        config = FitConfig(order_r=order, max_iterations=30, **settings)
        result = fit_ar(y, config)
        y_hat, history, estimates, converged = reference_fit_ar(y, config)
        np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
        assert result.loss_history == history
        for got, want in zip(result.estimate_history, estimates, strict=True):
            np.testing.assert_array_equal(got.theta, want.theta)
        assert result.converged == converged


def test_batch_members_equal_solo_fits_whatever_their_stop():
    # Under one config: exactly recoverable AR(6) data stops at the zero
    # floor on iteration 1, noise seed 4 has its trajectory held by the
    # descent guard and then stops on an unchanged objective, and the
    # other noise series run to the iteration cap.
    config = FitConfig(order_r=6, rho=1e-4, max_iterations=6, convergence_tol=1e-300)
    exact = noise_free_series(np.array([0.4, -0.3, 0.2, 0.1, -0.05, 0.02]), np.linspace(1.0, -0.5, 6), 40)
    noisy = [TimeSeries(np.random.Generator(np.random.Philox(key=seed)).normal(size=40)) for seed in (0, 4, 1, 2)]
    series = [noisy[0], exact, noisy[1], noisy[2], noisy[3]]
    batch = fit_ar_batch(series, config)
    solo = [fit_ar(y, config) for y in series]
    for result, expected in zip(batch, solo, strict=True):
        assert_same_fit(result, expected)

    assert (batch[1].iterations_run, batch[1].converged, batch[1].stop_reason) == (1, True, "zero_floor")
    held = batch[2].loss_history
    assert batch[2].converged and batch[2].iterations_run < config.max_iterations
    assert batch[2].stop_reason == "stall"
    assert any(now.measurement_term == before.measurement_term for before, now in zip(held, held[1:]))
    for k in (0, 3, 4):
        assert (batch[k].iterations_run, batch[k].converged) == (config.max_iterations, False)
        assert batch[k].stop_reason == "iteration_cap"


def guard_cases():
    """Series whose fits at order 6, rho 1e-8 hold at iterations 1, 2, 3 and 7, stop at the zero floor, or run to the cap."""
    exact = noise_free_series(np.array([0.4, -0.3, 0.2, 0.1, -0.05, 0.02]), np.linspace(1.0, -0.5, 6), 40)
    noise = [np.random.Generator(np.random.Philox(key=seed)).normal(size=40) for seed in range(8)]
    near_exact = TimeSeries(exact.values[:, 0] + 1e-12 * noise[0])
    series = [TimeSeries(noise[1]), near_exact, TimeSeries(noise[0]), TimeSeries(noise[4]), exact, TimeSeries(noise[7])]
    return series, FitConfig(order_r=6, rho=1e-8, max_iterations=8, convergence_tol=1e-300)


def test_batch_members_equal_step_by_step_fits_whatever_iteration_the_guard_holds():
    # A held fit's delay windows are held with its trajectory and feed the
    # next refit; the reference windows every trajectory afresh.
    series, config = guard_cases()
    batch = fit_ar_batch(series, config)
    for y, result in zip(series, batch, strict=True):
        y_hat, history, estimates, converged = reference_fit_ar(y, config)
        np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
        assert result.loss_history == history
        for got, want in zip(result.estimate_history, estimates, strict=True):
            np.testing.assert_array_equal(got.theta, want.theta)
        assert result.converged == converged
        assert_same_fit(result, fit_ar(y, config))
    # The iterations whose held trajectory kept the last measurement term.
    held = [
        [k + 2 for k, (before, now) in enumerate(zip(result.loss_history, result.loss_history[1:]))
         if now.measurement_term == before.measurement_term]
        for result in batch
    ]
    # On iteration 1 the held trajectory is the measurements, whose measurement term is 0.
    assert batch[1].loss_history[0].measurement_term == 0.0
    assert [result.iterations_run for result in batch] == [8, 2, 3, 4, 1, 8]
    assert [result.stop_reason for result in batch] == ["iteration_cap", "stall", "stall", "stall", "zero_floor",
                                                        "stall"]
    assert held[2][0] == 2 and held[3][0] == 3 and held[5][0] == 7


def test_batch_members_equal_solo_fits_when_they_stop_on_tolerance_under_a_ridge():
    # At lam > 0 the guard and the monitor carry the ridge terms. These fits
    # stop on the tolerance at iterations 4, 5 and 6, and one of them has its
    # last trajectory held by the guard.
    exact = noise_free_series(np.array([0.4, -0.3, 0.2, 0.1, -0.05, 0.02]), np.linspace(1.0, -0.5, 6), 40)
    noise = [np.random.Generator(np.random.Philox(key=seed)).normal(size=40) for seed in range(24, 32)]
    series = [TimeSeries(values) for values in noise] + [exact, TimeSeries(exact.values[:, 0] + 1e-12 * noise[0])]
    config = FitConfig(order_r=6, rho=3e-8, lam=3e-5, max_iterations=40, convergence_tol=1e-8)
    batch = fit_ar_batch(series, config)
    for y, result in zip(series, batch, strict=True):
        assert_same_fit(result, fit_ar(y, config))
        y_hat, history, estimates, converged = reference_fit_ar(y, config)
        np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
        assert result.loss_history == history
        for got, want in zip(result.estimate_history, estimates, strict=True):
            np.testing.assert_array_equal(got.theta, want.theta)
        assert result.converged == converged
    assert {result.stop_reason for result in batch} == {"tolerance"}
    assert sorted({result.iterations_run for result in batch}) == [4, 5, 6]
    held = [result for result in batch
            if any(now.measurement_term == before.measurement_term
                   for before, now in zip(result.loss_history, result.loss_history[1:]))]
    assert held


def test_long_batch_members_equal_solo_fits():
    # Past 8 192 values a sum of squares over a stack must still add each row as the row alone is added.
    spec = SyntheticSpec(oscillatory_ar5(), 20000, 0.01, 1.0, 123)
    series = [spec.trajectory(trial)[1] for trial in range(2)]
    config = FitConfig(order_r=5, rho=0.1, max_iterations=3, convergence_tol=1e-300)
    for result, y in zip(fit_ar_batch(series, config), series, strict=True):
        assert_same_fit(result, fit_ar(y, config))


def test_batch_windows_each_trajectory_once(monkeypatch):
    import arid.linear

    calls = []

    def counted(values, order_r):
        calls.append(len(values))
        return delay_windows(values, order_r)

    monkeypatch.setattr(arid.linear, "delay_windows", counted)
    series, config = guard_cases()
    batch = fit_ar_batch(series, config)
    lockstep = max(result.iterations_run for result in batch)
    # Once on the measurements, then once per iteration on the fits still running.
    assert calls == [len(series)] + [sum(result.iterations_run > k for result in batch) for k in range(lockstep)]


def test_histories_are_tuples_built_from_read_only_logs():
    spec = SyntheticSpec(oscillatory_ar5(), 80, 0.01, 1.0, 47)
    config = FitConfig(order_r=3, rho=0.1, max_iterations=9, convergence_tol=1e-300)
    for result in fit_ar_batch([spec.trajectory(trial)[1] for trial in range(3)], config):
        assert not result.theta_log.flags.writeable and not result.loss_log.flags.writeable
        assert result.theta_log.shape == (result.iterations_run, 3)
        assert result.loss_log.shape == (result.iterations_run, 3)
        assert type(result.loss_history) is tuple and type(result.estimate_history) is tuple
        assert result.loss_history is result.loss_history
        assert result.estimate_history[-1] is result.theta_hat
        for estimate, row in zip(result.estimate_history, result.theta_log, strict=True):
            np.testing.assert_array_equal(estimate.theta, row)
        for loss, row in zip(result.loss_history, result.loss_log.tolist(), strict=True):
            assert loss == LossBreakdown(*row, row[2] / 80)


def test_batch_order_does_not_change_results():
    spec = SyntheticSpec(oscillatory_ar5(), 80, 0.01, 1.0, 43)
    series = [spec.trajectory(trial)[1] for trial in range(4)]
    config = FitConfig(order_r=4, rho=0.1, max_iterations=12, anchor_all_values=True)
    forward = fit_ar_batch(series, config)
    backward = fit_ar_batch(series[::-1], config)
    for result, expected in zip(forward, backward[::-1], strict=True):
        assert_same_fit(result, expected)


def test_batch_running_past_its_first_log_rows_matches_the_reference():
    # The batch logs its histories in 64 rows that double when full; 150
    # iterations outgrow them twice, with one member stopped at iteration 1.
    config = FitConfig(order_r=5, rho=0.1, max_iterations=150, convergence_tol=1e-300)
    spec = SyntheticSpec(oscillatory_ar5(), 120, 0.01, 1.0, 41)
    exact = noise_free_series(np.array([0.4, -0.3, 0.2, 0.1, -0.05]), np.linspace(1.0, -0.5, 5), 120)
    series = [spec.trajectory(0)[1], exact, spec.trajectory(1)[1]]
    for y, result in zip(series, fit_ar_batch(series, config), strict=True):
        y_hat, history, estimates, converged = reference_fit_ar(y, config)
        np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
        assert result.loss_history == history
        for got, want in zip(result.estimate_history, estimates, strict=True):
            np.testing.assert_array_equal(got.theta, want.theta)
        assert (result.iterations_run, result.converged) == (len(history), converged)
    assert [result.iterations_run for result in fit_ar_batch(series, config)] == [150, 1, 150]


def test_iteration_cap_far_beyond_convergence_costs_nothing():
    y = TimeSeries(np.sin(0.3 * np.arange(200)) + 0.1 * np.random.Generator(np.random.Philox(key=7)).normal(size=200))
    result = fit_ar(y, FitConfig(order_r=3, rho=1.0, max_iterations=10**10))
    assert result.converged and result.stop_reason == "tolerance"
    assert_same_fit(result, fit_ar(y, FitConfig(order_r=3, rho=1.0, max_iterations=1000)))


def test_singular_refit_of_one_member_fails_the_batch():
    # A constant series has two equal delay columns at order 2.
    rng = np.random.Generator(np.random.Philox(key=44))
    series = [TimeSeries(rng.normal(size=30)), TimeSeries(np.full(30, 2.0)), TimeSeries(rng.normal(size=30))]
    with pytest.raises(SingularSystem):
        fit_ar_batch(series, FitConfig(order_r=2, rho=0.1, max_iterations=5))


def test_ar_fits_need_more_than_order_samples():
    for order, n_steps in ((1, 1), (3, 2), (3, 3)):
        y = TimeSeries(np.arange(1.0, n_steps + 1))
        config = FitConfig(order_r=order, rho=0.1)
        with pytest.raises(HorizonTooShort):
            fit_ar(y, config)
        with pytest.raises(HorizonTooShort):
            fit_ar_batch([y, y], config)


def test_batch_needs_equally_long_series():
    config = FitConfig(order_r=1, rho=0.1)
    with pytest.raises(ValueError):
        fit_ar_batch([TimeSeries(np.arange(10.0)), TimeSeries(np.arange(11.0))], config)
    with pytest.raises(ValueError):
        fit_ar_batch([], config)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_alternation_never_increases_loss(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    order = int(rng.integers(1, 4))
    y = TimeSeries(rng.normal(size=int(rng.integers(20, 60))))
    rho = float(rng.choice([0.01, 0.1, 1.0]))
    result = fit_ar(y, FitConfig(order_r=order, rho=rho, max_iterations=15))
    totals = [loss.total for loss in result.loss_history]
    for before, after in zip(totals, totals[1:]):
        assert after <= before * (1 + 1e-9)


# ---------------------------------------------------------------------------
# VAR(1) fit


@pytest.mark.parametrize("n_steps", [2, 3, 40, 127])
def test_var_with_one_channel_factors_the_ar1_bands(monkeypatch, n_steps):
    # At lam == 0 the one-channel VAR smoother and the anchored AR(1)
    # smoother are one system: the solve builds the same bands, byte for
    # byte, and solves both by dptsv to the same solution.
    rng = np.random.Generator(np.random.Philox(key=n_steps))
    y = rng.normal(size=n_steps)
    built = []

    def recording(*args):
        bands = smoother_bands(*args)
        built.append(bands.copy())
        return bands

    monkeypatch.setattr(numerics, "smoother_bands", recording)
    var_solution = solve_smoother(*assemble_var_smoother(np.array([[0.7]]), y[:, None], 0.3))
    ar_smoother = assemble_ar_smoother(np.array([[0.7]]), n_steps, np.full((1, 1), 0.3), 0.0, 0)
    ar_solution = solve_smoother(ar_smoother, _measurement_rhs(y[None], 0.3, 0))
    assert len(built) == 2 and built[0].tobytes() == built[1].tobytes()
    np.testing.assert_array_equal(var_solution, ar_solution)


@pytest.mark.parametrize("power", [-60, -42, -20, 40, 300])
def test_fits_scale_with_the_data_by_powers_of_two(power):
    # Scaling by 2^j is exact, and at lam == 0 both steps of a fit are
    # homogeneous in the data: the fit of 2^j y is 2^j times the fit of y,
    # bit for bit, with the same iterations and stop reason. A zero floor
    # that does not scale with the data stops the small fits early.
    spec = SyntheticSpec(oscillatory_ar5(), n_steps=200, transition_std=0.01, measurement_std=1.0, base_seed=0)
    _, y = spec.trajectory(0)
    ar_config = FitConfig(5, rho=0.1, max_iterations=100, convergence_tol=1e-300, anchor_all_values=True)
    rng = np.random.Generator(np.random.Philox(key=47))
    x = rng.normal(size=(500, 4))
    var_config = FitConfig(1, rho=3.0, max_iterations=50)
    for fit, series, config in ((fit_ar, scalar_values(y), ar_config), (fit_var1, x, var_config)):
        plain, scaled = fit(TimeSeries(series), config), fit(TimeSeries(np.ldexp(series, power)), config)
        assert (scaled.iterations_run, scaled.stop_reason) == (plain.iterations_run, plain.stop_reason)
        np.testing.assert_array_equal(scaled.theta_log, plain.theta_log)
        np.testing.assert_array_equal(scaled.y_hat.values, np.ldexp(plain.y_hat.values, power))
        np.testing.assert_array_equal(scaled.loss_log, np.ldexp(plain.loss_log, 2 * power))


# In the VAR fit the Y^T Y block of the refit's Gram of [X | Y], which the
# refit does not read, overflows, and so do the dynamics of the raw data,
# which the guard of iteration 1 then never holds.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("family", ["ar", "var"])
def test_zero_floor_is_finite_when_the_sum_of_squares_overflows(family):
    # Every value, and every Gram the refit factors, is finite, but the sum
    # of squares of the data is not: a floor taken from it is inf, and every
    # fit would stop on it at iteration 1.
    if family == "ar":
        values = 1e153 * np.random.default_rng(0).normal(size=50)
        values[-1] = 1.3e154
        result = fit_ar(TimeSeries(values), FitConfig(2, 0.1, max_iterations=50))
    else:
        values = 0.5e153 * np.random.default_rng(1).normal(size=(200, 2))
        values[-1] = [1.2e154, 0.0]
        result = fit_var1(TimeSeries(values), FitConfig(1, 3.0, max_iterations=50))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(values * values))
    assert result.iterations_run > 1 and result.stop_reason != "zero_floor"
    assert np.isfinite(result.loss_log).all()


def test_var_fit_needs_two_samples():
    with pytest.raises(HorizonTooShort):
        fit_var1(TimeSeries(np.ones((1, 3))), FitConfig(order_r=1, rho=0.1))


def test_var_requires_first_order_config():
    y = TimeSeries(np.ones((10, 2)))
    with pytest.raises(ValueError):
        fit_var1(y, FitConfig(order_r=2, rho=0.1))


def test_var_reduces_to_scalar_ar():
    rng = np.random.Generator(np.random.Philox(key=40))
    y = TimeSeries(rng.normal(size=50))
    config = FitConfig(order_r=1, rho=0.1, max_iterations=20)
    scalar_fit = fit_ar(y, config)
    var_fit = fit_var1(y, config)
    assert var_fit.theta_hat.shape == (1, 1)
    assert abs(var_fit.theta_hat[0, 0] - scalar_fit.theta_hat.theta[0]) <= 1e-12
    np.testing.assert_allclose(
        var_fit.y_hat.values[:, 0], scalar_values(scalar_fit.y_hat), rtol=0, atol=1e-12
    )
    assert var_fit.iterations_run == scalar_fit.iterations_run
    for a, b in zip(var_fit.loss_history, scalar_fit.loss_history):
        assert a.total == pytest.approx(b.total, rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("rho", [0.01, 1.0, 3.0])
@pytest.mark.parametrize("n_steps", [30, 200])
def test_one_channel_var_equals_ar1_bit_for_bit(n_steps, rho, lam):
    # The same refit, smoother, loss and ridges: one channel of fit_var1 is fit_ar at order 1.
    rng = np.random.Generator(np.random.Philox(key=n_steps))
    x = np.zeros(n_steps)
    for t in range(n_steps - 1):
        x[t + 1] = 0.8 * x[t] + rng.normal()
    y = TimeSeries(x + rng.normal(size=n_steps))
    config = FitConfig(order_r=1, rho=rho, lam=lam, max_iterations=30)
    scalar, vector = fit_ar(y, config), fit_var1(y, config)
    np.testing.assert_array_equal(vector.theta_log.reshape(-1, 1), scalar.theta_log)
    np.testing.assert_array_equal(vector.loss_log, scalar.loss_log)
    np.testing.assert_array_equal(vector.y_hat.values, scalar.y_hat.values)
    assert (vector.iterations_run, vector.stop_reason) == (scalar.iterations_run, scalar.stop_reason)


def reference_fit_var1(y: TimeSeries, config: FitConfig):
    """One step at a time: refit, mix, smooth with one probe for the fit, two full loss evaluations, guard, stop rule.

    From two channels on, each step after the first smooths with the Anderson
    mix of the last ``_MIXING_DEPTH`` parameters that smoothed a trajectory
    and their residuals, refit minus parameters: the history restarts from
    the current pair when the residual norm grows or the mixing system is
    singular, and empties when the guard holds the trajectory, whose
    parameters then stay the last. The guard weighs whole objectives, ridges
    included. At one channel every step is plain. Every sum of squares is the
    fits' own, ``linear._sumsq``.
    """
    x = y.values
    n, p = x.shape
    rho, lam = config.rho, config.lam

    def sumsq(array):
        return float(_sumsq(array[None])[0])

    floor = 1e-24 * max(1.0, sumsq(x))

    def loss_of(A, x_hat):
        dynamics = sumsq(x_hat[1:] - x_hat[:-1] @ A.T)
        measurement = sumsq(x - x_hat)
        total = dynamics + rho * measurement
        return LossBreakdown(dynamics, measurement, total, total / n)

    def objective(loss, A, x_hat):
        return loss.total + lam * (sumsq(A) + sumsq(x_hat))

    x_hat, history, estimates, monitor_prev, converged = x, [], [], None, False
    probe = SteadyProbe()
    pairs, last, last_norm = [], None, np.inf
    for _ in range(config.max_iterations):
        plain = solve_regularized_ls(x_hat[:-1], x_hat[1:], lam).T
        A = plain
        if p > 1 and last is None:
            last = plain.ravel()
        elif p > 1:
            residual = plain.ravel() - last
            norm = np.sqrt(sumsq(residual))
            if norm > last_norm:
                pairs = []
            pairs, last_norm = [*pairs, (last, residual)][-_MIXING_DEPTH:], norm
            if len(pairs) > 1:
                dA = np.array([new[0] - old[0] for old, new in zip(pairs, pairs[1:])])
                dR = np.array([new[1] - old[1] for old, new in zip(pairs, pairs[1:])])
                try:
                    gamma = solve_regularized_ls(dR.T, residual[:, None], 0.0)[:, 0]
                except SingularSystem:
                    pairs = pairs[-1:]
                else:
                    A = (plain.ravel() - gamma @ (dA + dR)).reshape(p, p)
        smoother = Smoother(np.stack((-A, np.eye(p)))[None], rho * np.eye(p), n, 0, lam)
        candidate = _solve_smoother(smoother, (rho * x).reshape(1, -1), solve_smoother, probe).reshape(x.shape)
        loss, held = loss_of(A, candidate), loss_of(plain, x_hat)
        if p > 1:
            hold = objective(loss, A, candidate) > objective(held, plain, x_hat)
        else:
            hold = loss.total + lam * sumsq(candidate) > held.total + lam * sumsq(x_hat)
        if hold:
            candidate, loss, A, pairs = x_hat, held, plain, []
        elif p > 1:
            last = A.ravel()
        x_hat = candidate
        history.append(loss)
        estimates.append(A)
        monitor = objective(loss, A, x_hat)
        if monitor <= floor or (monitor_prev is not None and abs(monitor_prev - monitor) <= config.convergence_tol * monitor_prev):
            converged = True
            break
        monitor_prev = monitor
    return x_hat, tuple(history), tuple(estimates), converged


@pytest.mark.parametrize(
    "settings",
    [
        dict(rho=3.0),
        dict(rho=0.1, lam=1e-3),
        dict(rho=1e-4, convergence_tol=1e-300),
    ],
)
@pytest.mark.parametrize("channels, n_steps", [(1, 60), (3, 200)])
def test_var_fit_matches_step_by_step_reference(settings, channels, n_steps):
    # 200 steps reach the steady-state factor of the block smoother.
    rng = np.random.Generator(np.random.Philox(key=47))
    A_true = 0.3 * np.eye(channels) + 0.2 * np.tri(channels, k=-1)
    x = np.empty((n_steps, channels))
    x[0] = rng.normal(size=channels)
    for t in range(n_steps - 1):
        x[t + 1] = A_true @ x[t] + 0.3 * rng.normal(size=channels)
    y = TimeSeries(x + 0.3 * rng.normal(size=x.shape))
    config = FitConfig(order_r=1, max_iterations=25, **settings)
    result = fit_var1(y, config)
    x_hat, history, estimates, converged = reference_fit_var1(y, config)
    np.testing.assert_array_equal(result.y_hat.values, x_hat)
    assert result.loss_history == history
    for got, want in zip(result.estimate_history, estimates, strict=True):
        np.testing.assert_array_equal(got, want)
    assert result.converged == converged


def recorded_leads(monkeypatch) -> list:
    """(first lead, settled lead or None) of each steady-path attempt of the solve, in order."""
    steady, leads = numerics._steady_factor, []

    def recording(smoother, lead):
        factor = steady(smoother, lead)
        leads.append((lead, factor and factor[2]))
        return factor

    monkeypatch.setattr(numerics, "_steady_factor", recording)
    return leads


def test_var_fit_starts_each_step_from_the_lead_that_last_settled(monkeypatch):
    # At rho = 0.1 the refitted smoothers of this recording settle at longer
    # and longer leads; each state step starts from the one before it.
    rng = np.random.Generator(np.random.Philox(key=47))
    A_true = 0.3 * np.eye(4) + 0.2 * np.tri(4, k=-1)
    x = np.empty((300, 4))
    x[0] = rng.normal(size=4)
    for t in range(299):
        x[t + 1] = A_true @ x[t] + 0.3 * rng.normal(size=4)
    y = TimeSeries(x + 0.3 * rng.normal(size=x.shape))
    config = FitConfig(order_r=1, rho=0.1, max_iterations=6, convergence_tol=1e-300)
    leads = recorded_leads(monkeypatch)
    result = fit_var1(y, config)
    assert len(leads) == config.max_iterations
    assert [first for first, _ in leads] == [numerics._LEAD_BLOCKS] + [settled for _, settled in leads[:-1]]
    assert max(settled for _, settled in leads) > 2 * numerics._LEAD_BLOCKS
    np.testing.assert_array_equal(result.y_hat.values, reference_fit_var1(y, config)[0])


def test_var_fit_stops_trying_the_lead_once_it_fails_to_settle(monkeypatch):
    # A random walk measured at rho = 1e-3: no lead up to a quarter of the 200
    # blocks settles, so only the first state step tries one.
    x = np.random.Generator(np.random.Philox(key=5)).normal(size=(200, 2)).cumsum(axis=0)
    config = FitConfig(order_r=1, rho=1e-3, max_iterations=4, convergence_tol=1e-300)
    leads = recorded_leads(monkeypatch)
    result = fit_var1(TimeSeries(x), config)
    assert result.iterations_run == config.max_iterations
    assert leads == [(numerics._LEAD_BLOCKS, None)]
    np.testing.assert_array_equal(result.y_hat.values, reference_fit_var1(TimeSeries(x), config)[0])


def coupled_var_recording(p: int, n: int, key: int) -> TimeSeries:
    """A measured VAR(1) whose channels each pull on both neighbours, like ``experiments.demo_var_matrix``."""
    rng = np.random.Generator(np.random.Philox(key=key))
    A = 0.45 * np.eye(p) + 0.3 * np.roll(np.eye(p), 1, axis=1) + 0.15 * np.roll(np.eye(p), -1, axis=1)
    x = np.zeros((n, p))
    for t in range(n - 1):
        x[t + 1] = A @ x[t] + 0.1 * rng.normal(size=p)
    return TimeSeries(x + 0.1 * rng.normal(size=x.shape))


def recorded_candidates(monkeypatch) -> list:
    """The trajectory of each state step of a VAR fit, in order."""
    solve, candidates = linear._solve_smoother, []

    def recording(*args):
        candidate = solve(*args)
        candidates.append(candidate.reshape(-1))
        return candidate

    monkeypatch.setattr(linear, "_solve_smoother", recording)
    return candidates


def accepted_trajectories(result, candidates, observed) -> list:
    """Each row's trajectory: its step's candidate, or the one before where the guard held, which keeps the
    last measurement term (0 for the measurements themselves)."""
    trajectories, x_hat, measurement = [], observed.reshape(-1), 0.0
    for (_, now, _), candidate in zip(result.loss_log.tolist(), candidates, strict=True):
        if now != measurement:
            x_hat = candidate
        trajectories.append(x_hat)
        measurement = now
    return trajectories


def test_mixed_var_fits_never_raise_their_objective(monkeypatch):
    # The objective with its ridges, loss total + lam (||A||^2 + ||x||^2),
    # must not rise from row to row of a mixed fit, by acceptance 1's bound.
    worst, mixed = 0.0, 0
    step = linear._Mixing.step

    def counting(self, params):
        nonlocal mixed
        out = step(self, params)
        mixed += int((out != params).any())
        return out

    monkeypatch.setattr(linear._Mixing, "step", counting)
    candidates = recorded_candidates(monkeypatch)
    for p in (2, 3, 8):
        y = coupled_var_recording(p, 300, key=p)
        for rho in (0.1, 1.0, 3.0):
            for lam in (0.0, 1e-3):
                candidates.clear()
                result = fit_var1(y, FitConfig(1, rho, lam, max_iterations=30, convergence_tol=1e-300))
                trajectories = accepted_trajectories(result, candidates, y.values)
                objectives = [total + lam * float(np.sum(A * A) + x_hat @ x_hat)
                              for total, A, x_hat in zip(result.loss_log[:, 2], result.theta_log, trajectories)]
                steps = np.diff(objectives) / np.maximum(objectives[:-1], 1e-30)
                worst = max(worst, float(steps.max(initial=0.0)))
    assert worst <= 1e-9
    assert mixed > 0


def test_a_mixed_step_that_raises_the_objective_is_held(monkeypatch):
    # The first mixing solve (iteration 3, the first with two iterates) is
    # forced to a bad combination. Its step is held: the trajectory stays,
    # the plain refit is logged, and the history goes, so iteration 4 is plain.
    y, p = coupled_var_recording(4, 300, key=4), 4
    solve, mixes = linear.solve_regularized_ls, []
    candidates = recorded_candidates(monkeypatch)

    def forced(design, targets, lam):
        # Each mixing solve is recorded by the state steps before it, even one that raises.
        mixing = targets.shape[1:] == (1,)
        if mixing:
            mixes.append(len(candidates))
        gamma = solve(design, targets, lam)
        return np.full_like(gamma, 100.0) if mixing and len(mixes) == 1 else gamma

    monkeypatch.setattr(linear, "solve_regularized_ls", forced)
    config = FitConfig(1, rho=3.0, max_iterations=8, convergence_tol=1e-300)
    result = fit_var1(y, config)
    assert mixes[:2] == [2, 4]
    x_before = candidates[1].reshape(-1, p)
    plain = solve(x_before[:-1], x_before[1:], 0.0).T
    np.testing.assert_array_equal(result.theta_log[2], plain)
    assert result.loss_log[2, 1] == result.loss_log[1, 1]
    assert result.loss_log[2, 2] < result.loss_log[1, 2]
    np.testing.assert_array_equal(result.theta_log[3], plain)
    assert result.loss_log[3, 2] < result.loss_log[2, 2]


def test_a_singular_mixing_system_restarts_the_history():
    # Two equal residuals leave the mixing system singular: the step is the
    # plain refit and the history restarts from its pair. With the next pair,
    # the residual of an affine map, the mix lands on its fixed point.
    ones = np.ones((1, 2, 2))
    mixing = _Mixing(0.0 * ones)
    for refit, want, pairs in ((ones, ones, 1), (2.0 * ones, 2.0 * ones, 1), (2.5 * ones, 3.0 * ones, 2)):
        used = mixing.step(refit)
        np.testing.assert_array_equal(used, want)
        assert len(mixing.residuals) == pairs
        mixing.settle(refit, used, False)


def test_var_recovers_noise_free_transition():
    rng = np.random.Generator(np.random.Philox(key=41))
    A_true = np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]])
    x = np.empty((40, 3))
    x[0] = rng.normal(size=3)
    for t in range(39):
        x[t + 1] = A_true @ x[t]
    result = fit_var1(TimeSeries(x), FitConfig(order_r=1, rho=0.1))
    assert result.converged and result.stop_reason == "zero_floor"
    np.testing.assert_allclose(result.theta_hat, A_true, rtol=0, atol=1e-10)


def test_var_deterministic():
    rng = np.random.Generator(np.random.Philox(key=42))
    y = TimeSeries(rng.normal(size=(30, 2)))
    config = FitConfig(order_r=1, rho=0.2, lam=0.001, max_iterations=10)
    first = fit_var1(y, config)
    second = fit_var1(y, config)
    np.testing.assert_array_equal(first.theta_hat, second.theta_hat)
    np.testing.assert_array_equal(first.y_hat.values, second.y_hat.values)
    assert (first.iterations_run, first.converged, first.stop_reason) == (10, False, "iteration_cap")


# ---------------------------------------------------------------------------
# diagonal-shift ladder of the smoother solve


def test_ladder_rescues_singular_ar_smoother():
    # A zero trailing coefficient leaves y_hat[1] out of every dynamics
    # residual, and without anchor_all or a ridge out of the measurement
    # term too: its row of the normal matrix is zero.
    theta, y = np.array([0.5, 0.0]), np.sin(np.arange(30.0))
    smoother = assemble_ar_smoother(theta[None], 30, np.full((1, 1), 0.1), 0.0, 1)
    rhs = _measurement_rhs(y[None], 0.1, 1)
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, rhs)
    solution = _solve_smoother(smoother, rhs, solve_smoother)
    assert np.all(np.isfinite(solution))
    np.testing.assert_array_equal(smooth(theta, y, 0.1), solution[0])


def _singular_stack():
    # The singular system of the test above, stacked between regular ones.
    rng = np.random.Generator(np.random.Philox(key=45))
    thetas = np.array([[0.3, -0.2], [0.5, 0.0], [-0.4, 0.1]])
    series = np.stack([rng.normal(size=30), np.sin(np.arange(30.0)), rng.normal(size=30)])
    smoother = assemble_ar_smoother(thetas, 30, np.full((1, 1), 0.1), 0.0, 1)
    return thetas, series, smoother, _measurement_rhs(series, 0.1, 1)


def test_ladder_runs_per_system_inside_a_stack():
    # The stacked solve fails, and every system must then come back as it
    # does alone, the singular one shifted by its own diagonal only.
    _, _, smoother, rhs = _singular_stack()
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, rhs)
    solutions = _solve_smoother(smoother, rhs, solve_smoother)
    assert np.all(np.isfinite(solutions))
    for i, solution in enumerate(solutions):
        member = Smoother(smoother.stencils[i : i + 1], smoother.Q, 30, 1)
        np.testing.assert_array_equal(solution, _solve_smoother(member, rhs[i : i + 1], solve_smoother)[0])


def test_assembled_stack_with_a_singular_member_reaches_the_ladder(monkeypatch):
    # The band builder's column-major bands reach LAPACK as one system
    # without a copy, and that factor fails, as it does on a copy of the
    # bands placed end to end; each member then gets its solo fit.
    thetas, series, smoother, rhs = _singular_stack()
    built, factored = [], []
    bands_of, dpbtrf_of = numerics.smoother_bands, numerics.dpbtrf

    def building(*args):
        built.append(bands_of(*args))
        return built[-1]

    def factoring(bands, **options):
        factored.append(bands)
        return dpbtrf_of(bands, **options)

    monkeypatch.setattr(numerics, "smoother_bands", building)
    monkeypatch.setattr(numerics, "dpbtrf", factoring)
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, rhs)
    assert np.shares_memory(factored[0], built[0])
    assert dpbtrf_of(np.concatenate(list(built[0]), axis=1), lower=1)[1] > 0
    solutions = _solve_smoother(smoother, rhs, solve_smoother)
    for solution, theta, y in zip(solutions, thetas, series, strict=True):
        np.testing.assert_array_equal(solution, smooth(theta, y, 0.1))


def test_stacked_smoothers_equal_solo_solves():
    rng = np.random.Generator(np.random.Philox(key=46))
    thetas, series = rng.normal(scale=0.3, size=(3, 4)), rng.normal(size=(3, 50))
    smoother = assemble_ar_smoother(thetas, 50, np.full((1, 1), 0.2), 0.0, 0)
    rhs = _measurement_rhs(series, 0.2, 0)
    solutions = _solve_smoother(smoother, rhs, solve_smoother)
    for i, (solution, v) in enumerate(zip(solutions, rhs, strict=True)):
        member = Smoother(smoother.stencils[i : i + 1], smoother.Q, 50)
        np.testing.assert_array_equal(solution, solve_smoother(member, v[None])[0])


# Each family's binding of the one solve, as its fits call it.
@pytest.mark.parametrize(
    "smoother, solve",
    [
        (Smoother(np.ones((1, 1, 1, 1)), np.full((1, 1), -2.0), 3), solve_banded_spd),
        (Smoother(np.stack((np.zeros((2, 2)), np.eye(2)))[None], -np.eye(2), 2), solve_block_tridiagonal_spd),
    ],
    ids=["matrix0-solve_banded_spd", "matrix1-solve_block_tridiagonal_spd"],
)
def test_ladder_gives_up_on_indefinite_system(smoother, solve):
    attempts = []

    def counting_solve(candidate, rhs, probe):
        attempts.append(candidate)
        return solve(candidate, rhs, probe)

    with pytest.raises(NotPositiveDefinite):
        _solve_smoother(smoother, np.ones((1, smoother.dim)), counting_solve)
    assert len(attempts) == 1 + len(_RIDGE_BOOSTS)


# ---------------------------------------------------------------------------
# error metrics


def test_error_metrics_zero_for_exact_match():
    theta = ARParams(np.array([0.5, 0.2]))
    y = TimeSeries(np.array([1.0, 2.0, 3.0]))
    metrics = error_metrics(theta, theta, y, y)
    assert metrics.e_norm_theta == 0.0
    np.testing.assert_array_equal(metrics.e_theta_vector, np.zeros(2))
    assert metrics.e_x == 0.0


def test_error_metrics_doubled_coefficients():
    theta_true = ARParams(np.array([0.3, -0.4]))
    theta_hat = ARParams(np.array([0.6, -0.8]))
    y = TimeSeries(np.array([1.0, 2.0]))
    metrics = error_metrics(theta_hat, theta_true, y, y)
    assert metrics.e_norm_theta == pytest.approx(1.0, rel=1e-14)


def test_error_metrics_hand_trajectory_error():
    theta = ARParams(np.array([1.0]))
    y_hat = TimeSeries(np.array([3.0, 1.0]))
    x_true = TimeSeries(np.array([3.0, 4.0]))
    metrics = error_metrics(theta, theta, y_hat, x_true)
    assert metrics.e_x == pytest.approx(3.0 / 5.0, rel=1e-14)


def test_error_metrics_rejects_zero_reference():
    theta_true = ARParams(np.array([0.0]))
    theta_hat = ARParams(np.array([0.5]))
    y = TimeSeries(np.array([1.0, 2.0]))
    with pytest.raises(ZeroNormReference):
        error_metrics(theta_hat, theta_true, y, y)
