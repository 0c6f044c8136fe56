"""Tests for series containers, companion models, simulation, and embedding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arid.errors import HorizonTooShort, NonFinite, NotConjugateClosed
from arid.model import (
    ARParams,
    LinearSSModel,
    NoiseSpec,
    SyntheticSpec,
    TimeSeries,
    build_companion,
    coefficients_from_roots,
    delay_windows,
    oscillatory_ar5,
    predict_one_step,
    scalar_values,
    signature_aligned_ar5,
    simulate,
)
from arid.numerics import companion_eigenvalues

# ---------------------------------------------------------------------------
# containers


def test_flat_series_becomes_single_channel():
    y = TimeSeries(np.array([1.0, 2.0, 3.0]))
    assert y.values.shape == (3, 1)
    assert y.n_steps == 3
    assert y.n_channels == 1


def test_series_values_are_read_only():
    y = TimeSeries(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        y.values[0, 0] = 5.0


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((0, 1)))


def test_non_finite_series_rejected():
    with pytest.raises(NonFinite):
        TimeSeries(np.array([1.0, np.nan]))


def test_channel_name_count_validated():
    with pytest.raises(ValueError):
        TimeSeries(np.ones((4, 2)), channel_names=("only_one",))


def test_scalar_values_flattens_single_channel():
    y = TimeSeries(np.array([[1.0], [2.0]]))
    np.testing.assert_array_equal(scalar_values(y), [1.0, 2.0])


def test_scalar_values_rejects_multichannel():
    with pytest.raises(ValueError):
        scalar_values(TimeSeries(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# companion construction


def test_first_order_companion_is_scalar():
    model = build_companion(ARParams(np.array([0.5])))
    np.testing.assert_array_equal(model.A, [[0.5]])
    np.testing.assert_array_equal(model.C, [[1.0]])
    assert model.structure == "companion"


def test_companion_layout_third_order():
    model = build_companion(ARParams(np.array([0.3, -0.2, 0.1])))
    expected = np.array(
        [
            [0.3, 1.0, 0.0],
            [-0.2, 0.0, 1.0],
            [0.1, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(model.A, expected)
    np.testing.assert_array_equal(model.C, [[1.0, 0.0, 0.0]])


def test_companion_structure_validated():
    with pytest.raises(ValueError):
        LinearSSModel(np.ones((2, 2)), np.array([1.0, 0.0]), structure="companion")


def test_general_model_accepts_full_matrix():
    model = LinearSSModel(np.ones((2, 2)), np.eye(2))
    assert model.state_dim == 2
    assert model.output_dim == 2


# ---------------------------------------------------------------------------
# roots and coefficients


def test_single_unit_root_gives_unit_coefficient():
    params = coefficients_from_roots(np.array([1.0]))
    np.testing.assert_allclose(params.theta, [1.0], rtol=0, atol=1e-14)


def test_conjugate_pair_gives_pure_oscillator():
    params = coefficients_from_roots(np.array([1.0j, -1.0j]))
    np.testing.assert_allclose(params.theta, [0.0, -1.0], rtol=0, atol=1e-14)


def test_lone_complex_root_rejected():
    with pytest.raises(NotConjugateClosed):
        coefficients_from_roots(np.array([0.5 + 0.5j, 0.3]))


def test_oscillatory_preset_sits_on_requested_radius():
    for radius in (1.0, 0.9):
        params = oscillatory_ar5(radius)
        assert params.order == 5
        magnitudes = np.abs(companion_eigenvalues(params.theta))
        np.testing.assert_allclose(magnitudes, radius, rtol=0, atol=1e-8)


def test_signature_aligned_preset_is_stable_fifth_order():
    params = signature_aligned_ar5()
    assert params.order == 5
    magnitudes = np.abs(companion_eigenvalues(params.theta))
    assert float(magnitudes.max()) < 1.0


def test_roots_roundtrip_through_coefficients_and_back():
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(10):
        order = int(rng.integers(1, 7))
        theta = rng.normal(scale=0.4, size=order)
        recovered = coefficients_from_roots(companion_eigenvalues(theta))
        np.testing.assert_allclose(recovered.theta, theta, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# simulation


def quiet(seed: int = 0) -> NoiseSpec:
    return NoiseSpec(0.0, 0.0, seed)


def test_identity_dynamics_hold_state_constant():
    model = LinearSSModel(np.eye(2), np.array([[1.0, 0.0]]))
    states, measured = simulate(model, np.array([3.0, -1.0]), 5, quiet())
    np.testing.assert_array_equal(states, np.tile([3.0, -1.0], (5, 1)))
    np.testing.assert_array_equal(scalar_values(measured), np.full(5, 3.0))


def test_first_order_decay_is_geometric():
    model = build_companion(ARParams(np.array([0.5])))
    states, measured = simulate(model, np.array([1.0]), 4, quiet())
    np.testing.assert_allclose(scalar_values(measured), [1.0, 0.5, 0.25, 0.125], rtol=0, atol=0)
    np.testing.assert_allclose(states[:, 0], [1.0, 0.5, 0.25, 0.125], rtol=0, atol=0)


def test_noise_free_ar_recursion_exact():
    theta = np.array([0.4, -0.3, 0.2])
    model = build_companion(ARParams(theta))
    x1 = np.array([1.0, 0.5, -0.5])
    _, measured = simulate(model, x1, 30, quiet())
    vals = scalar_values(measured)
    for t in range(3, 30):
        window = vals[t - 3 : t][::-1]
        np.testing.assert_allclose(vals[t], float(theta @ window), rtol=0, atol=1e-12)


def test_simulation_deterministic_under_seed():
    model = build_companion(oscillatory_ar5())
    x1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    noise = NoiseSpec(0.01, 1.0, 42)
    states_a, measured_a = simulate(model, x1, 50, noise)
    states_b, measured_b = simulate(model, x1, 50, noise)
    np.testing.assert_array_equal(states_a, states_b)
    np.testing.assert_array_equal(measured_a.values, measured_b.values)


def test_different_seeds_give_different_measurements():
    model = build_companion(ARParams(np.array([0.5])))
    _, measured_a = simulate(model, np.array([1.0]), 20, NoiseSpec(0.0, 1.0, 0))
    _, measured_b = simulate(model, np.array([1.0]), 20, NoiseSpec(0.0, 1.0, 1))
    assert not np.array_equal(measured_a.values, measured_b.values)


def test_measurement_noise_leaves_states_untouched():
    model = build_companion(ARParams(np.array([0.5])))
    noisy_states, _ = simulate(model, np.array([1.0]), 10, NoiseSpec(0.0, 2.0, 3))
    clean_states, _ = simulate(model, np.array([1.0]), 10, quiet())
    np.testing.assert_array_equal(noisy_states, clean_states)


def test_negative_noise_levels_rejected():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, 1.0, 0)


@pytest.mark.parametrize(
    "levels, name", [((np.nan, 1.0), "transition_std"), ((0.1, np.inf), "measurement_std"), ((0.1, np.nan), "measurement_std")]
)
def test_non_finite_noise_levels_rejected_by_name(levels, name):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
        NoiseSpec(*levels, 0)


def test_zero_horizon_rejected():
    model = build_companion(ARParams(np.array([0.5])))
    with pytest.raises(HorizonTooShort):
        simulate(model, np.array([1.0]), 0, quiet())


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
def test_noise_free_simulation_satisfies_recursion(seed, order):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.normal(scale=0.3 / order, size=order)
    model = build_companion(ARParams(theta))
    x1 = rng.normal(size=order)
    _, measured = simulate(model, x1, order + 15, quiet())
    vals = scalar_values(measured)
    for t in range(order, order + 14):
        window = vals[t - order : t][::-1]
        np.testing.assert_allclose(vals[t], float(theta @ window), rtol=0, atol=1e-9)


def per_step_simulate(model, x1, n_steps, noise):
    """The step-by-step simulation: per step, the transition noise, then the measurement noise, each drawn alone."""
    rng = noise.generator()
    scalar_nu = model.structure == "companion"
    states = np.empty((n_steps, model.state_dim))
    measured = np.empty((n_steps, model.output_dim))
    x = np.array(x1, dtype=float)
    for t in range(n_steps):
        states[t] = x
        if t < n_steps - 1:
            nu = noise.transition_std * (rng.standard_normal() if scalar_nu else rng.standard_normal(x.size))
        measured[t] = model.C @ x + noise.measurement_std * rng.standard_normal(model.output_dim)
        if t < n_steps - 1:
            x = model.A @ x
            if scalar_nu:
                x[0] += nu
            else:
                x += nu
    return states, measured


@pytest.mark.parametrize("n_steps", [1, 2, 3, 200])
@pytest.mark.parametrize("structure", ["companion", "general"])
def test_simulation_equals_the_per_step_draws_bit_for_bit(structure, n_steps):
    # simulate draws the whole noise stream in one call; every state and
    # measurement must still be the one the per-step draws give, with a
    # dense readout in the general case.
    rng = np.random.Generator(np.random.Philox(key=70))
    for seed in range(5):
        if structure == "companion":
            model = build_companion(ARParams(rng.normal(scale=0.3, size=4)))
        else:
            model = LinearSSModel(rng.normal(scale=0.3, size=(4, 4)), rng.normal(size=(3, 4)))
        x1 = rng.normal(size=4)
        noise = NoiseSpec(0.1, 0.5, seed)
        states, measured = simulate(model, x1, n_steps, noise)
        expected_states, expected_measured = per_step_simulate(model, x1, n_steps, noise)
        np.testing.assert_array_equal(states, expected_states)
        np.testing.assert_array_equal(measured.values, expected_measured)


# ---------------------------------------------------------------------------
# delay embedding and prediction


def test_delay_embedding_windows_are_newest_first():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    gamma, y_plus = delay_windows(values, 2)
    np.testing.assert_array_equal(gamma, [[2.0, 1.0], [3.0, 2.0]])
    np.testing.assert_array_equal(y_plus, [3.0, 4.0])
    # The targets are a view of the values; the windows a C-contiguous copy.
    assert np.shares_memory(y_plus, values) and not np.shares_memory(gamma, values)
    assert gamma.flags.c_contiguous


def test_delay_embedding_shapes():
    values = np.arange(20.0).reshape(2, 10)
    gamma, y_plus = delay_windows(values, 3)
    assert gamma.shape == (2, 7, 3)
    assert y_plus.shape == (2, 7)
    for row, windows, targets in zip(values, gamma, y_plus, strict=True):
        alone = delay_windows(row, 3)
        np.testing.assert_array_equal(windows, alone[0])
        np.testing.assert_array_equal(targets, alone[1])


def test_predict_identity_coefficient_echoes_input():
    assert predict_one_step(ARParams(np.array([1.0])), np.array([7.0])) == 7.0


def test_predict_averaging_coefficients():
    value = predict_one_step(ARParams(np.array([0.5, 0.5])), np.array([2.0, 4.0]))
    assert value == 3.0


def test_predict_validates_window_length():
    with pytest.raises(ValueError):
        predict_one_step(ARParams(np.array([0.5, 0.5])), np.array([1.0]))


# ---------------------------------------------------------------------------
# synthetic trial recipes


def test_trial_horizon_must_exceed_order():
    with pytest.raises(HorizonTooShort):
        SyntheticSpec(oscillatory_ar5(), 5, 0.01, 1.0, 0)


def test_trajectory_deterministic_per_trial():
    spec = SyntheticSpec(oscillatory_ar5(), 50, 0.01, 1.0, 7)
    clean_a, measured_a = spec.trajectory(2)
    clean_b, measured_b = spec.trajectory(2)
    np.testing.assert_array_equal(clean_a, clean_b)
    np.testing.assert_array_equal(measured_a.values, measured_b.values)


def test_trial_index_shifts_base_seed():
    spec = SyntheticSpec(oscillatory_ar5(), 50, 0.01, 1.0, 7)
    shifted = SyntheticSpec(oscillatory_ar5(), 50, 0.01, 1.0, 10)
    _, measured_a = spec.trajectory(3)
    _, measured_b = shifted.trajectory(0)
    np.testing.assert_array_equal(measured_a.values, measured_b.values)


def test_default_start_is_first_basis_vector():
    spec = SyntheticSpec(oscillatory_ar5(), 50, 0.0, 0.0, 0)
    clean, measured = spec.trajectory()
    assert clean[0] == 1.0
    assert scalar_values(measured)[0] == 1.0
