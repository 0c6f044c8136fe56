"""Tests for the signature-space estimator: features, refits, smoothing, prediction."""

import numpy as np
import pytest

from arid import linear, numerics
from arid.errors import EmbeddingTooShort, HorizonTooShort, NotPositiveDefinite, SingularSystem
from arid.linear import LossBreakdown, _sumsq
from arid.model import SyntheticSpec, TimeSeries, scalar_values, signature_aligned_ar5
from arid.nar import (
    NARFitConfig,
    NARModel,
    build_sig_matrices,
    fit_nar,
    nar_param_step,
    nar_predict_one_step,
    nar_state_step,
)
from arid.numerics import Smoother, solve_regularized_ls, solve_smoother
from arid.signature import sig_dim

from test_signature import reference_windows

N_S = sig_dim(2, 2)


def geometric_series(ratio: float, scale: float, n_steps: int) -> np.ndarray:
    return scale * ratio ** np.arange(n_steps)


def geometric_exact_model(ratio: float, order_r: int) -> NARModel:
    """Model that reproduces a geometric series exactly in signature space.

    Consecutive windows of a geometric series are scalar multiples of each
    other, so every signature level scales by ratio**level and the
    transition is the diagonal grading map; the readout divides the level-1
    value-increment coefficient y_t - y_{t-r+1} by its known factor.
    """
    A = np.diag([1.0, ratio, ratio, ratio**2, ratio**2, ratio**2, ratio**2])
    C = np.zeros(N_S)
    C[1] = 1.0 / (1.0 - ratio ** (-(order_r - 1)))
    return NARModel(A, C)


def stable_random_model(rng: np.random.Generator, radius: float = 0.6) -> NARModel:
    A = rng.normal(size=(N_S, N_S))
    A *= radius / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-12)
    return NARModel(A, rng.normal(size=N_S))


def quadratic_objective(
    model: NARModel,
    states: np.ndarray,
    yo: np.ndarray,
    order_r: int,
    rho: float,
    lam: float,
) -> float:
    resid = states[1:] - states[:-1] @ model.A_sig.T
    err = yo[order_r - 1 :] - states @ model.C_sig
    return float(
        np.sum(resid * resid) + rho * err @ err + lam * np.sum(states * states)
    )


def stacked_lstsq_states(
    model: NARModel, yo: np.ndarray, order_r: int, rho: float, lam: float
) -> np.ndarray:
    """Minimize the smoothing objective by QR on the stacked residual system."""
    m = yo.size - order_r + 1
    ns = model.n_s
    rows = []
    rhs = []
    for i in range(m - 1):
        block = np.zeros((ns, m * ns))
        block[:, i * ns : (i + 1) * ns] = -model.A_sig
        block[:, (i + 1) * ns : (i + 2) * ns] = np.eye(ns)
        rows.append(block)
        rhs.append(np.zeros(ns))
    sqrt_rho = np.sqrt(rho)
    for i in range(m):
        row = np.zeros((1, m * ns))
        row[0, i * ns : (i + 1) * ns] = sqrt_rho * model.C_sig
        rows.append(row)
        rhs.append(np.array([sqrt_rho * yo[order_r - 1 + i]]))
    if lam > 0:
        rows.append(np.sqrt(lam) * np.eye(m * ns))
        rhs.append(np.zeros(m * ns))
    design = np.vstack(rows)
    targets = np.concatenate(rhs)
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return solution.reshape(m, ns)


# ---------------------------------------------------------------------------
# configuration and model containers


def test_config_requires_second_order_windows():
    with pytest.raises(ValueError):
        NARFitConfig(order_r=1, depth_d=2, rho=0.1, lam=0.001, max_iterations=5)


def test_model_requires_square_dynamics():
    with pytest.raises(ValueError):
        NARModel(np.ones((2, 3)), np.ones(3))


def test_model_requires_matching_readout_length():
    with pytest.raises(ValueError):
        NARModel(np.eye(3), np.ones(2))


# ---------------------------------------------------------------------------
# signature feature stacks


def test_constant_series_gives_identical_rows():
    gamma_minus, gamma_plus, _ = build_sig_matrices(TimeSeries(np.full(9, 2.5)), 4, 2)
    np.testing.assert_array_equal(gamma_minus, np.tile(gamma_minus[0], (gamma_minus.shape[0], 1)))
    np.testing.assert_array_equal(gamma_plus, np.tile(gamma_plus[0], (gamma_plus.shape[0], 1)))


def test_boundary_row_count():
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(TimeSeries(np.arange(4.0)), 2, 2)
    assert gamma_minus.shape == (2, N_S)
    assert gamma_plus.shape == (2, N_S)
    np.testing.assert_array_equal(y_plus, [2.0, 3.0])


def test_rows_match_window_signatures():
    rng = np.random.Generator(np.random.Philox(key=61))
    vals = rng.normal(size=12)
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(TimeSeries(vals), 4, 2)
    reference = reference_windows(vals, 4, 2)
    np.testing.assert_array_equal(gamma_minus, reference[:-1])
    np.testing.assert_array_equal(gamma_plus, reference[1:])
    np.testing.assert_array_equal(y_plus, vals[4:])


def test_feature_stack_needs_long_enough_series():
    with pytest.raises(HorizonTooShort):
        build_sig_matrices(TimeSeries(np.arange(4.0)), 4, 2)
    with pytest.raises(EmbeddingTooShort):
        build_sig_matrices(TimeSeries(np.arange(6.0)), 1, 2)


# ---------------------------------------------------------------------------
# parameter refit


def test_exact_linear_map_recovered():
    rng = np.random.Generator(np.random.Philox(key=62))
    L = 0.3 * rng.normal(size=(N_S, N_S))
    gamma_minus = rng.normal(size=(50, N_S))
    gamma_plus = gamma_minus @ L.T
    y_plus = rng.normal(size=50)
    model = nar_param_step(gamma_minus, gamma_plus, y_plus, 0.0)
    np.testing.assert_allclose(model.A_sig, L, rtol=0, atol=1e-9)


def test_heavy_ridge_shrinks_dynamics_to_zero():
    rng = np.random.Generator(np.random.Philox(key=63))
    gamma_minus = rng.normal(size=(40, N_S))
    gamma_plus = rng.normal(size=(40, N_S))
    y_plus = rng.normal(size=40)
    light = nar_param_step(gamma_minus, gamma_plus, y_plus, 1e-6)
    heavy = nar_param_step(gamma_minus, gamma_plus, y_plus, 1e8)
    assert np.linalg.norm(heavy.A_sig) < 1e-4 * np.linalg.norm(light.A_sig)
    assert np.linalg.norm(heavy.C_sig) < 1e-4 * np.linalg.norm(light.C_sig)


def test_param_step_matches_solver_oracle():
    rng = np.random.Generator(np.random.Philox(key=64))
    vals = rng.normal(size=30)
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(TimeSeries(vals), 4, 2)
    model = nar_param_step(gamma_minus, gamma_plus, y_plus, 0.01)
    np.testing.assert_array_equal(
        model.A_sig, solve_regularized_ls(gamma_minus, gamma_plus, 0.01).T
    )
    np.testing.assert_array_equal(
        model.C_sig, solve_regularized_ls(gamma_plus, y_plus, 0.01)
    )


def test_param_step_satisfies_ridge_stationarity():
    rng = np.random.Generator(np.random.Philox(key=65))
    vals = rng.normal(size=40)
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(TimeSeries(vals), 4, 2)
    lam = 0.05
    model = nar_param_step(gamma_minus, gamma_plus, y_plus, lam)
    w = model.A_sig.T
    gradient_a = gamma_minus.T @ (gamma_minus @ w - gamma_plus) + lam * w
    gradient_c = gamma_plus.T @ (gamma_plus @ model.C_sig - y_plus) + lam * model.C_sig
    scale = max(1.0, float(np.linalg.norm(gamma_minus.T @ gamma_plus)))
    assert np.linalg.norm(gradient_a) <= 1e-9 * scale
    assert np.linalg.norm(gradient_c) <= 1e-9 * scale


def test_degenerate_features_raise_without_ridge():
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(TimeSeries(np.full(9, 2.5)), 4, 2)
    with pytest.raises(SingularSystem):
        nar_param_step(gamma_minus, gamma_plus, y_plus, 0.0)


# ---------------------------------------------------------------------------
# state smoothing


def test_exactly_representable_data_is_reproduced():
    rng = np.random.Generator(np.random.Philox(key=66))
    model = stable_random_model(rng)
    order_r = 4
    m = 17
    states = np.empty((m, N_S))
    states[0] = rng.normal(size=N_S)
    for i in range(m - 1):
        states[i + 1] = model.A_sig @ states[i]
    yo = np.concatenate((rng.normal(size=order_r - 1), states @ model.C_sig))
    y = TimeSeries(yo)
    smoothed_states, y_hat = nar_state_step(model, y, order_r, 0.5, 0.0)
    np.testing.assert_allclose(smoothed_states, states, rtol=0, atol=1e-8)
    np.testing.assert_allclose(
        scalar_values(y_hat)[order_r - 1 :], yo[order_r - 1 :], rtol=0, atol=1e-8
    )


def test_leading_values_carried_from_previous_iterate():
    # The first r - 1 values have no state of their own: every iterate keeps their measurements.
    rng = np.random.Generator(np.random.Philox(key=67))
    model = stable_random_model(rng)
    y = TimeSeries(rng.normal(size=20))
    _, y_hat = nar_state_step(model, y, 4, 0.5, 0.01)
    np.testing.assert_array_equal(scalar_values(y_hat)[:3], scalar_values(y)[:3])


def test_huge_rho_reproduces_measurements():
    rng = np.random.Generator(np.random.Philox(key=68))
    model = stable_random_model(rng)
    yo = rng.normal(size=25)
    y = TimeSeries(yo)
    _, y_hat = nar_state_step(model, y, 4, 1e8, 0.0)
    measured_part = scalar_values(y_hat)[3:]
    relative = np.abs(measured_part - yo[3:]) / np.maximum(np.abs(yo[3:]), 1e-6)
    assert float(relative.max()) < 1e-3


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_state_step_matches_stacked_lstsq_oracle(lam):
    rng = np.random.Generator(np.random.Philox(key=69))
    # A scaled orthogonal transition keeps every direction of the smoothing
    # system uniformly weighted, so the lam = 0 comparison is not hostage to
    # the conditioning of a raw random matrix.
    q, _ = np.linalg.qr(rng.normal(size=(N_S, N_S)))
    model = NARModel(0.6 * q, rng.normal(size=N_S))
    yo = rng.normal(size=20)
    y = TimeSeries(yo)
    states, _ = nar_state_step(model, y, 4, 0.3, lam)
    oracle = stacked_lstsq_states(model, yo, 4, 0.3, lam)
    np.testing.assert_allclose(states, oracle, rtol=0, atol=1e-9)


def test_state_step_gradient_vanishes_at_solution():
    rng = np.random.Generator(np.random.Philox(key=70))
    model = stable_random_model(rng)
    yo = rng.normal(size=15)
    y = TimeSeries(yo)
    states, _ = nar_state_step(model, y, 4, 0.5, 0.01)
    reference = quadratic_objective(model, states, yo, 4, 0.5, 0.01)
    step = 1e-6
    flat = states.ravel().copy()
    worst = 0.0
    for index in rng.choice(flat.size, size=25, replace=False):
        bumped = flat.copy()
        bumped[index] += step
        up = quadratic_objective(model, bumped.reshape(states.shape), yo, 4, 0.5, 0.01)
        bumped[index] -= 2 * step
        down = quadratic_objective(model, bumped.reshape(states.shape), yo, 4, 0.5, 0.01)
        worst = max(worst, abs((up - down) / (2 * step)))
    assert worst <= 1e-4 * max(1.0, reference)


def test_smoothing_never_increases_objective_at_fixed_model():
    rng = np.random.Generator(np.random.Philox(key=71))
    vals = rng.normal(size=30)
    y = TimeSeries(vals)
    gamma_minus, gamma_plus, y_plus = build_sig_matrices(y, 4, 2)
    model = nar_param_step(gamma_minus, gamma_plus, y_plus, 0.001)
    raw_states = np.vstack((gamma_minus, gamma_plus[-1]))
    smoothed_states, _ = nar_state_step(model, y, 4, 0.1, 0.001)
    before = quadratic_objective(model, raw_states, vals, 4, 0.1, 0.001)
    after = quadratic_objective(model, smoothed_states, vals, 4, 0.1, 0.001)
    assert after <= before * (1 + 1e-12)


def test_singular_signature_smoother_goes_down_the_shift_ladder():
    # With no dynamics and a readout along one axis, the first state block is
    # rho * e0 e0^T, singular at lam == 0.
    readout = np.zeros(N_S)
    readout[0] = 1.0
    model = NARModel(np.zeros((N_S, N_S)), readout)
    y = TimeSeries(np.sin(np.arange(40.0)))
    # The smoother and rhs of the state step, from their formulas: 37 blocks, t = 4..40.
    smoother = Smoother(np.stack((-model.A_sig, np.eye(N_S)))[None], 0.1 * np.outer(readout, readout), 37)
    rhs = (0.1 * scalar_values(y)[3:, None] * readout).reshape(1, -1)
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, rhs)
    states, refreshed = nar_state_step(model, y, 4, 0.1, 0.0)
    assert np.all(np.isfinite(states))
    assert np.all(np.isfinite(scalar_values(refreshed)))


# ---------------------------------------------------------------------------
# full alternating fit


def test_fit_deterministic():
    rng = np.random.Generator(np.random.Philox(key=72))
    y = TimeSeries(rng.normal(size=60))
    config = NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=0.001, max_iterations=5)
    first = fit_nar(y, config)
    second = fit_nar(y, config)
    np.testing.assert_array_equal(first.theta_hat.A_sig, second.theta_hat.A_sig)
    np.testing.assert_array_equal(first.theta_hat.C_sig, second.theta_hat.C_sig)
    np.testing.assert_array_equal(first.y_hat.values, second.y_hat.values)


def test_fit_runs_full_budget_on_noisy_data():
    rng = np.random.Generator(np.random.Philox(key=73))
    y = TimeSeries(rng.normal(size=60))
    result = fit_nar(y, NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=0.001, max_iterations=3))
    assert result.iterations_run == 3
    assert len(result.loss_history) == 3
    assert len(result.estimate_history) == 3
    assert not result.converged and result.stop_reason == "iteration_cap"


def test_exactly_linear_series_is_a_fixed_point():
    vals = geometric_series(0.95, 2.0, 60)
    result = fit_nar(
        TimeSeries(vals), NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=1e-10, max_iterations=5)
    )
    assert result.converged and result.stop_reason == "tolerance"
    drift = float(np.max(np.abs(scalar_values(result.y_hat) - vals)))
    assert drift < 1e-6


def sumsq(array: np.ndarray) -> float:
    return float(_sumsq(array[None])[0])


def reference_fit_nar(y: TimeSeries, config: NARFitConfig):
    """One step at a time: re-lift, refit, smooth, one loss evaluation, trajectory-change stop rule.

    Every sum of squares is the fits' own, ``linear._sumsq``.
    """
    yo = scalar_values(y)
    r, rho = config.order_r, config.rho
    y_hat, history, models, converged = y, [], [], False
    for _ in range(config.max_iterations):
        model = nar_param_step(*build_sig_matrices(y_hat, r, config.depth_d), config.lam)
        states, y_new = nar_state_step(model, y, r, rho, config.lam)
        dynamics = sumsq(states[1:] - states[:-1] @ model.A_sig.T)
        measurement = sumsq(yo[r - 1 :] - states @ model.C_sig)
        total = dynamics + rho * measurement
        history.append(LossBreakdown(dynamics, measurement, total, total / yo.size))
        models.append(model)
        prev = scalar_values(y_hat)
        delta = np.sqrt(sumsq(scalar_values(y_new) - prev))
        y_hat = y_new
        if delta <= config.state_change_tol * max(np.sqrt(sumsq(prev)), 1e-300):
            converged = True
            break
    return y_hat, tuple(history), tuple(models), converged


@pytest.mark.parametrize(
    "values, settings, stops_early",
    [
        # Noise hits the iteration cap; the geometric series stops on the state-change rule.
        (np.random.Generator(np.random.Philox(key=75)).normal(size=60), dict(lam=0.001, max_iterations=6), False),
        (geometric_series(0.95, 2.0, 60), dict(lam=1e-10, max_iterations=5), True),
    ],
)
def test_fit_matches_step_by_step_reference(values, settings, stops_early):
    y = TimeSeries(values)
    config = NARFitConfig(order_r=4, depth_d=2, rho=0.1, **settings)
    result = fit_nar(y, config)
    y_hat, history, models, converged = reference_fit_nar(y, config)
    np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
    assert result.loss_history == history
    for got, want in zip(result.estimate_history, models, strict=True):
        np.testing.assert_array_equal(got.A_sig, want.A_sig)
        np.testing.assert_array_equal(got.C_sig, want.C_sig)
    assert (result.iterations_run, result.converged) == (len(history), converged)
    assert converged == stops_early
    assert (len(history) < config.max_iterations) == stops_early


def test_long_fit_stops_trying_the_steady_lead_once_it_fails(monkeypatch):
    # The artefact preset's shape (397 blocks of 7): the lead factor does not
    # settle, so only the first state step tries it, and the fit still
    # equals the reference, whose every step tries it.
    _, y = SyntheticSpec(signature_aligned_ar5(), 400, 0.05, 0.02, 3).trajectory(0)
    config = NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=1e-3, max_iterations=4)
    steady, tries = numerics._steady_factor, []

    def counting(*args):
        tries.append(steady(*args))
        return tries[-1]

    monkeypatch.setattr(numerics, "_steady_factor", counting)
    result = fit_nar(y, config)
    assert tries == [None]
    y_hat, history, models, _ = reference_fit_nar(y, config)
    assert len(tries) == 1 + config.max_iterations
    np.testing.assert_array_equal(result.y_hat.values, y_hat.values)
    assert result.loss_history == history
    for got, want in zip(result.estimate_history, models, strict=True):
        np.testing.assert_array_equal(got.A_sig, want.A_sig)


def test_each_fit_iteration_runs_the_linear_state_step_once(monkeypatch):
    # NAR smooths its signature states through linear's state step, its
    # assembler and the block binding the benchmark's tracer wraps.
    calls = {}

    def count(name):
        original = getattr(linear, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(linear, name, counted)

    steps = ("state_step", "assemble_ar_smoother", "solve_block_tridiagonal_spd")
    for name in steps:
        count(name)
    _, y = SyntheticSpec(signature_aligned_ar5(), 120, 0.05, 0.02, 3).trajectory(0)
    result = fit_nar(y, NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=1e-3, max_iterations=5))
    assert [calls[name] for name in steps] == [result.iterations_run] * len(steps)


# ---------------------------------------------------------------------------
# one-step prediction


def test_identity_dynamics_readout_picks_window_increment():
    model = NARModel(np.eye(N_S), np.eye(N_S)[1])
    rng = np.random.Generator(np.random.Philox(key=74))
    vals = rng.normal(size=12)
    preds = nar_predict_one_step(model, TimeSeries(vals), 4, 2)
    expected = vals[3:] - vals[:-3]
    np.testing.assert_allclose(preds, expected, rtol=0, atol=1e-12)


def test_zero_readout_predicts_zero():
    model = NARModel(np.eye(N_S), np.zeros(N_S))
    preds = nar_predict_one_step(model, TimeSeries(np.arange(10.0)), 4, 2)
    np.testing.assert_array_equal(preds, np.zeros(7))


def test_exact_geometric_model_predicts_perfectly():
    vals = geometric_series(0.95, 2.0, 50)
    model = geometric_exact_model(0.95, 4)
    preds = nar_predict_one_step(model, TimeSeries(vals), 4, 2)
    mse = float(np.mean((preds[:-1] - vals[4:]) ** 2))
    assert mse < 1e-10


def test_prediction_context_must_cover_one_window():
    model = NARModel(np.eye(N_S), np.zeros(N_S))
    with pytest.raises(HorizonTooShort):
        nar_predict_one_step(model, TimeSeries(np.arange(3.0)), 4, 2)


def test_prediction_depth_must_match_model():
    model = NARModel(np.eye(N_S), np.zeros(N_S))
    with pytest.raises(ValueError):
        nar_predict_one_step(model, TimeSeries(np.arange(10.0)), 4, 3)
