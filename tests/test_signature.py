"""Tests for truncated path signatures: the batched lift and its algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from arid.nar import _window_signatures, build_sig_matrices
from arid.signature import _signatures_flat, sig_dim


def brute_force_signature(points: np.ndarray, depth: int) -> dict:
    """Iterated integrals of a piecewise-linear path by polynomial calculus.

    Each coordinate is linear in the segment parameter, so every iterated
    integral is a per-segment polynomial that can be integrated exactly with
    no tensor algebra involved. Returns word -> coefficient.
    """
    n_segments = points.shape[0] - 1
    k = points.shape[1]
    increments = np.diff(points, axis=0)
    per_segment = {(): [Polynomial([1.0]) for _ in range(n_segments)]}
    values = {(): 1.0}
    for length in range(1, depth + 1):
        for parent in [w for w in per_segment if len(w) == length - 1]:
            for letter in range(k):
                polys = []
                running = 0.0
                for j in range(n_segments):
                    integral = per_segment[parent][j].integ()
                    seg = increments[j, letter] * (integral - integral(0.0)) + running
                    polys.append(seg)
                    running = float(seg(1.0))
                per_segment[parent + (letter,)] = polys
                values[parent + (letter,)] = running
    return values


def flatten_words(values: dict, alphabet: int, depth: int) -> np.ndarray:
    flat = np.zeros(sig_dim(alphabet, depth))
    for word, value in values.items():
        m = len(word)
        offset = sig_dim(alphabet, m - 1) if m > 0 else 0
        index = 0
        for letter in word:
            index = index * alphabet + letter
        flat[offset + index] = value
    return flat


def tensor_power(delta: np.ndarray, m: int) -> np.ndarray:
    out = np.array([1.0])
    for _ in range(m):
        out = np.kron(out, delta)
    return out


def lift(points: np.ndarray, depth: int) -> np.ndarray:
    """Flat signature of the path through ``points`` (one row per point), by the lift NAR runs on its windows."""
    return _signatures_flat(np.diff(points, axis=0)[:, :, None], depth)[0]


def level(sig: np.ndarray, alphabet: int, m: int) -> np.ndarray:
    """Coefficients of all words of length m of a flat signature, in lexicographic order."""
    start = sig_dim(alphabet, m - 1) if m > 0 else 0
    return sig[start:start + alphabet**m]


def window_path(values: np.ndarray) -> np.ndarray:
    """The path NAR lifts for a window: its values and their running sum, one row per value."""
    return np.column_stack((values, np.cumsum(values)))


# ---------------------------------------------------------------------------
# dimensions and the window path


def test_dimension_formula():
    for alphabet in (2, 3):
        for depth in (1, 2, 3, 4):
            expected = (alphabet ** (depth + 1) - 1) // (alphabet - 1)
            assert sig_dim(alphabet, depth) == expected


def test_running_sum_displacement_at_level_one():
    values = np.array([0.5, -1.5, 2.0, 1.0])
    sig = _window_signatures(values, 4, 2)[0]
    np.testing.assert_allclose(level(sig, 2, 1), [values[-1] - values[0], values.sum() - values[0]],
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# analytic and brute-force oracles


def test_single_segment_signature_is_tensor_exponential():
    delta = np.array([1.5, -0.5, 2.0])
    sig = lift(np.vstack((np.zeros(3), delta)), 3)
    for m in range(4):
        expected = tensor_power(delta, m) / math.factorial(m)
        np.testing.assert_allclose(level(sig, 3, m), expected, rtol=0, atol=1e-12)


def test_level_one_is_total_displacement():
    rng = np.random.Generator(np.random.Philox(key=51))
    points = rng.normal(size=(6, 2))
    np.testing.assert_allclose(
        level(lift(points, 2), 2, 1), points[-1] - points[0], rtol=0, atol=1e-14
    )


def test_collinear_midpoint_does_not_change_signature():
    a = np.array([0.0, 0.0])
    b = np.array([2.0, 4.0])
    direct = lift(np.vstack((a, b)), 3)
    split = lift(np.vstack((a, (a + b) / 2, b)), 3)
    np.testing.assert_allclose(split, direct, rtol=0, atol=1e-12)


def test_two_segment_path_matches_brute_force_integrals():
    rng = np.random.Generator(np.random.Philox(key=52))
    points = rng.normal(size=(3, 2))
    oracle = flatten_words(brute_force_signature(points, 3), 2, 3)
    np.testing.assert_allclose(lift(points, 3), oracle, rtol=0, atol=1e-12)


def test_longer_path_matches_brute_force_integrals():
    rng = np.random.Generator(np.random.Philox(key=53))
    points = rng.normal(size=(7, 3))
    oracle = flatten_words(brute_force_signature(points, 3), 3, 3)
    scale = max(1.0, float(np.abs(oracle).max()))
    np.testing.assert_allclose(lift(points, 3), oracle, rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# algebraic identities


def chen_product(first: np.ndarray, second: np.ndarray, alphabet: int, depth: int) -> np.ndarray:
    """Truncated tensor product of two flat signatures, term by term with ``np.kron``."""
    levels = []
    for m in range(depth + 1):
        acc = np.zeros(alphabet**m)
        for i in range(m + 1):
            acc += np.kron(level(first, alphabet, i), level(second, alphabet, m - i))
        levels.append(acc)
    return np.concatenate(levels)


def test_concatenation_multiplies_signatures():
    rng = np.random.Generator(np.random.Philox(key=54))
    points = rng.normal(size=(6, 2))
    whole = lift(points, 3)
    product = chen_product(lift(points[:4], 3), lift(points[3:], 3), 2, 3)
    np.testing.assert_allclose(whole, product, rtol=0, atol=1e-12)


def test_level_two_symmetric_part_is_half_outer_square():
    rng = np.random.Generator(np.random.Philox(key=55))
    for sig in _window_signatures(rng.normal(size=12), 5, 2):
        level_two = level(sig, 2, 2).reshape(2, 2)
        symmetric = (level_two + level_two.T) / 2.0
        expected = np.outer(level(sig, 2, 1), level(sig, 2, 1)) / 2.0
        np.testing.assert_allclose(symmetric, expected, rtol=0, atol=1e-12)


def test_scaling_path_scales_levels_by_degree():
    rng = np.random.Generator(np.random.Philox(key=56))
    points = rng.normal(size=(5, 2))
    factor = 0.5
    base = lift(points, 3)
    scaled = lift(factor * points, 3)
    for m in range(4):
        np.testing.assert_allclose(
            level(scaled, 2, m), factor**m * level(base, 2, m), rtol=0, atol=1e-12
        )


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_chen_identity_holds_for_random_paths(seed, split):
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = rng.uniform(-2.0, 2.0, size=(7, 2))
    whole = lift(points, 3)
    product = chen_product(lift(points[: split + 1], 3), lift(points[split:], 3), 2, 3)
    scale = max(1.0, float(np.abs(whole).max()))
    np.testing.assert_allclose(whole, product, rtol=0, atol=1e-12 * scale)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_time_reversal_inverts_the_signature(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = rng.uniform(-1.0, 1.0, size=(4, 2))
    product = chen_product(lift(points, 3), lift(points[::-1], 3), 2, 3)
    identity = np.zeros_like(product)
    identity[0] = 1.0
    np.testing.assert_allclose(product, identity, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# bit-for-bit oracle of the batched lift


def reference_lift(points: np.ndarray, depth: int) -> np.ndarray:
    """Signatures of a (B, m, k) batch of paths, segment by segment on (B, k^m) rows.

    Level 0 is a column of ones, and Chen's product adds every term
    a_i (x) b_(m-i), the products with level 0 included, to zeros in the
    order i = 0..m. The shipped lift must give the same bits.
    """
    batch, _, k = points.shape
    increments = np.diff(points, axis=1)

    def tensor_exp(delta):
        levels = [np.ones(batch), delta]
        for m in range(2, depth + 1):
            levels.append((levels[-1][:, :, None] * delta[:, None, :]).reshape(batch, -1) / m)
        return levels

    levels = tensor_exp(increments[:, 0])
    for s in range(1, increments.shape[1]):
        right = tensor_exp(increments[:, s])
        product = [levels[0] * right[0]]
        for m in range(1, depth + 1):
            acc = np.zeros((batch, k**m))
            for i in range(m + 1):
                acc += (levels[i].reshape(batch, -1, 1) * right[m - i].reshape(batch, 1, -1)).reshape(batch, -1)
            product.append(acc)
        levels = product
    return np.concatenate([level.reshape(batch, -1) for level in levels], axis=1)


def reference_windows(values: np.ndarray, order_r: int, depth: int) -> np.ndarray:
    """The window paths (values, running sum along the window) lifted by :func:`reference_lift`."""
    windows = np.lib.stride_tricks.sliding_window_view(values, order_r)
    return reference_lift(np.stack((windows, np.cumsum(windows, axis=1)), axis=2), depth)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("order_r", [2, 3, 4, 5, 6])
def test_window_lift_equals_the_segment_loop_bit_for_bit(order_r, depth):
    rng = np.random.Generator(np.random.Philox(key=57))
    series = 3.0 * rng.normal(size=(60, 2))
    contiguous, strided = series[:, 0].copy(), series[:, 1]
    assert not strided.flags.c_contiguous
    # The last series has a single window.
    for values in (contiguous, strided, contiguous[:order_r]):
        np.testing.assert_array_equal(_window_signatures(values, order_r, depth),
                                      reference_windows(values, order_r, depth))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("alphabet", [2, 3])
def test_signature_equals_the_segment_loop_bit_for_bit(alphabet, depth):
    rng = np.random.Generator(np.random.Philox(key=58))
    for n_points in range(2, 7):
        points = 3.0 * rng.normal(size=(n_points, alphabet))
        np.testing.assert_array_equal(lift(points, depth), reference_lift(points[None], depth)[0])


def test_feature_stacks_are_c_contiguous():
    values = np.random.Generator(np.random.Philox(key=59)).normal(size=(30, 2))[:, 1]
    gamma_minus, gamma_plus, _ = build_sig_matrices(values, 4, 3)
    assert gamma_minus.flags.c_contiguous and gamma_plus.flags.c_contiguous
