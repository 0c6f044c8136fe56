"""Tests for the regularized solver, structured SPD solvers, and root finder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arid.errors import NonFinite, NotPositiveDefinite, SingularSystem
from arid.model import ARParams, build_companion, coefficients_from_roots
from arid.numerics import (
    BandedSPDMatrix,
    BlockTridiagonalSPDMatrix,
    companion_eigenvalues,
    solve_banded_spd,
    solve_block_tridiagonal_spd,
    solve_regularized_ls,
)


def pack_lower_bands(dense: np.ndarray, bandwidth: int) -> BandedSPDMatrix:
    dim = dense.shape[0]
    bands = np.zeros((bandwidth + 1, dim))
    for k in range(bandwidth + 1):
        bands[k, : dim - k] = np.diagonal(dense, -k)
    return BandedSPDMatrix(dim, bandwidth, bands)


def random_banded_spd_dense(rng: np.random.Generator, dim: int, bandwidth: int) -> np.ndarray:
    square = rng.normal(size=(dim, dim))
    factor = np.tril(np.triu(square, -bandwidth))
    return factor @ factor.T + 0.5 * np.eye(dim)


def dense_from_blocks(matrix: BlockTridiagonalSPDMatrix) -> np.ndarray:
    m, b = matrix.num_blocks, matrix.block_dim
    dense = np.zeros((m * b, m * b))
    for i in range(m):
        dense[i * b : (i + 1) * b, i * b : (i + 1) * b] = matrix.diagonal_blocks[i]
    for i in range(m - 1):
        block = matrix.off_diagonal_blocks[i]
        dense[(i + 1) * b : (i + 2) * b, i * b : (i + 1) * b] = block
        dense[i * b : (i + 1) * b, (i + 1) * b : (i + 2) * b] = block.T
    return dense


def random_block_tridiagonal_spd(
    rng: np.random.Generator, num_blocks: int, block_dim: int
) -> BlockTridiagonalSPDMatrix:
    diag = rng.normal(size=(num_blocks, block_dim, block_dim))
    diag = (diag + np.transpose(diag, (0, 2, 1))) / 2.0
    off = rng.normal(size=(num_blocks - 1, block_dim, block_dim))
    raw = BlockTridiagonalSPDMatrix(diag, off)
    shift = abs(float(np.linalg.eigvalsh(dense_from_blocks(raw)).min())) + 1.0
    return BlockTridiagonalSPDMatrix(diag + shift * np.eye(block_dim), off)


def factored_block_tridiagonal_spd(
    rng: np.random.Generator, num_blocks: int, block_dim: int
) -> BlockTridiagonalSPDMatrix:
    """``L @ L.T + I`` for a random block lower-bidiagonal ``L``: SPD with no dense eigensolve."""
    lower = rng.normal(size=(num_blocks, block_dim, block_dim))
    sub = rng.normal(size=(num_blocks - 1, block_dim, block_dim))
    diag = lower @ np.transpose(lower, (0, 2, 1)) + np.eye(block_dim)
    diag[1:] += sub @ np.transpose(sub, (0, 2, 1))
    return BlockTridiagonalSPDMatrix(diag, sub @ np.transpose(lower[:-1], (0, 2, 1)))


# ---------------------------------------------------------------------------
# solve_regularized_ls


def test_identity_design_returns_targets():
    theta = solve_regularized_ls(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
    np.testing.assert_allclose(theta, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_repeated_measurement_averages_targets():
    design = np.array([[1.0], [1.0]])
    theta = solve_regularized_ls(design, np.array([1.0, 3.0]), 0.0)
    np.testing.assert_allclose(theta, [2.0], rtol=0, atol=1e-14)


def test_matches_closed_form_normal_equations():
    rng = np.random.Generator(np.random.Philox(key=7))
    design = rng.normal(size=(20, 5))
    targets = rng.normal(size=20)
    lam = 0.1
    theta = solve_regularized_ls(design, targets, lam)
    oracle = np.linalg.solve(
        design.T @ design + lam * np.eye(5), design.T @ targets
    )
    np.testing.assert_allclose(theta, oracle, rtol=1e-10)


def test_matrix_targets_solved_columnwise():
    rng = np.random.Generator(np.random.Philox(key=8))
    design = rng.normal(size=(15, 4))
    targets = rng.normal(size=(15, 3))
    joint = solve_regularized_ls(design, targets, 0.05)
    for j in range(3):
        single = solve_regularized_ls(design, targets[:, j], 0.05)
        np.testing.assert_allclose(joint[:, j], single, rtol=1e-13, atol=1e-15)


def test_ridge_shrinks_solution_norm_monotonically():
    rng = np.random.Generator(np.random.Philox(key=9))
    design = rng.normal(size=(30, 6))
    targets = rng.normal(size=30)
    norms = [
        float(np.linalg.norm(solve_regularized_ls(design, targets, lam)))
        for lam in (0.0, 0.01, 0.1, 1.0, 10.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_rank_deficient_design_raises_without_ridge():
    design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(SingularSystem):
        solve_regularized_ls(design, np.array([1.0, 2.0, 3.0]), 0.0)


def test_rank_deficient_design_solvable_with_ridge():
    design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    theta = solve_regularized_ls(design, np.array([1.0, 2.0, 3.0]), 1e-6)
    assert np.all(np.isfinite(theta))


def test_non_finite_design_rejected():
    design = np.array([[1.0], [np.nan]])
    with pytest.raises(NonFinite):
        solve_regularized_ls(design, np.array([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_stacked_problems_equal_separate_solves(lam):
    rng = np.random.Generator(np.random.Philox(key=10))
    design = rng.normal(size=(4, 25, 3))
    for targets in (rng.normal(size=(4, 25)), rng.normal(size=(4, 25, 2))):
        stacked = solve_regularized_ls(design, targets, lam)
        assert stacked.shape == (4, 3) + targets.shape[2:]
        for k in range(4):
            np.testing.assert_array_equal(stacked[k], solve_regularized_ls(design[k], targets[k], lam))


def test_rank_deficiency_in_one_stacked_problem_raises():
    rng = np.random.Generator(np.random.Philox(key=11))
    design = rng.normal(size=(3, 10, 2))
    design[1, :, 1] = design[1, :, 0]
    with pytest.raises(SingularSystem):
        solve_regularized_ls(design, rng.normal(size=(3, 10)), 0.0)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.0, 0.1, 3.0]))
def test_solution_satisfies_stationarity_condition(seed, lam):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_cols = int(rng.integers(1, 7))
    n_rows = n_cols + int(rng.integers(2, 40))
    design = rng.normal(size=(n_rows, n_cols))
    targets = rng.normal(size=n_rows)
    theta = solve_regularized_ls(design, targets, lam)
    gradient = design.T @ (design @ theta - targets) + lam * theta
    scale = max(1.0, float(np.linalg.norm(design.T @ targets)))
    assert np.linalg.norm(gradient) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# solve_banded_spd


def test_diagonal_system_scales_rhs():
    matrix = BandedSPDMatrix(3, 0, np.array([[2.0, 2.0, 2.0]]))
    solution = solve_banded_spd(matrix, np.array([2.0, 4.0, 6.0]))
    np.testing.assert_allclose(solution, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_tridiagonal_matches_dense_solve():
    dense = np.array(
        [
            [4.0, 1.0, 0.0, 0.0],
            [1.0, 5.0, 2.0, 0.0],
            [0.0, 2.0, 6.0, 1.0],
            [0.0, 0.0, 1.0, 3.0],
        ]
    )
    rhs = np.array([1.0, -2.0, 0.5, 4.0])
    solution = solve_banded_spd(pack_lower_bands(dense, 1), rhs)
    np.testing.assert_allclose(solution, np.linalg.solve(dense, rhs), rtol=1e-12)


def test_wide_band_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=11))
    dense = random_banded_spd_dense(rng, 200, 5)
    rhs = rng.normal(size=200)
    solution = solve_banded_spd(pack_lower_bands(dense, 5), rhs)
    oracle = np.linalg.solve(dense, rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-10, atol=1e-10)


def test_indefinite_band_raises():
    matrix = BandedSPDMatrix(2, 0, np.array([[1.0, -1.0]]))
    with pytest.raises(NotPositiveDefinite):
        solve_banded_spd(matrix, np.array([1.0, 1.0]))


def test_band_shape_validated():
    with pytest.raises(ValueError):
        BandedSPDMatrix(3, 1, np.zeros((3, 3)))


def test_band_rhs_length_validated():
    matrix = BandedSPDMatrix(3, 0, np.array([[1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        solve_banded_spd(matrix, np.array([1.0, 2.0]))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=6),
)
def test_banded_solve_agrees_with_dense_oracle(seed, dim, bandwidth):
    bandwidth = min(bandwidth, dim - 1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    dense = random_banded_spd_dense(rng, dim, bandwidth)
    rhs = rng.normal(size=dim)
    solution = solve_banded_spd(pack_lower_bands(dense, bandwidth), rhs)
    oracle = np.linalg.solve(dense, rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# solve_block_tridiagonal_spd


def test_identity_blocks_reproduce_rhs():
    matrix = BlockTridiagonalSPDMatrix(
        np.stack([np.eye(2)] * 3), np.zeros((2, 2, 2))
    )
    rhs = np.zeros(6)
    rhs[0] = 1.0
    np.testing.assert_allclose(
        solve_block_tridiagonal_spd(matrix, rhs), rhs, rtol=0, atol=1e-14
    )


def test_scalar_blocks_match_banded_solver():
    rng = np.random.Generator(np.random.Philox(key=13))
    dense = random_banded_spd_dense(rng, 30, 1)
    rhs = rng.normal(size=30)
    diag = np.diagonal(dense).reshape(30, 1, 1)
    off = np.diagonal(dense, -1).reshape(29, 1, 1)
    block_solution = solve_block_tridiagonal_spd(
        BlockTridiagonalSPDMatrix(diag, off), rhs
    )
    banded_solution = solve_banded_spd(pack_lower_bands(dense, 1), rhs)
    np.testing.assert_allclose(block_solution, banded_solution, rtol=1e-12)


def test_long_chain_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=14))
    matrix = random_block_tridiagonal_spd(rng, 50, 4)
    rhs = rng.normal(size=200)
    solution = solve_block_tridiagonal_spd(matrix, rhs)
    oracle = np.linalg.solve(dense_from_blocks(matrix), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-10, atol=1e-10)


# Single-block systems, and the block shapes of the nar (b=7, M=397) and
# var_wide (b=32) benchmark workloads.
@pytest.mark.parametrize("num_blocks, block_dim", [(1, 1), (1, 5), (397, 7), (40, 32)])
def test_block_solve_matches_dense_oracle_at_fixed_shapes(num_blocks, block_dim):
    rng = np.random.Generator(np.random.Philox(key=num_blocks * 100 + block_dim))
    matrix = factored_block_tridiagonal_spd(rng, num_blocks, block_dim)
    rhs = rng.normal(size=matrix.dim)
    solution = solve_block_tridiagonal_spd(matrix, rhs)
    oracle = np.linalg.solve(dense_from_blocks(matrix), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("num_blocks, block_dim", [(1, 1), (1, 4), (2, 1), (2, 3), (5, 2), (6, 4)])
def test_lower_bands_round_trip_through_dense(num_blocks, block_dim):
    rng = np.random.Generator(np.random.Philox(key=16))
    matrix = factored_block_tridiagonal_spd(rng, num_blocks, block_dim)
    bandwidth = min(2 * block_dim - 1, matrix.dim - 1)
    expected = pack_lower_bands(dense_from_blocks(matrix), bandwidth).bands
    np.testing.assert_array_equal(matrix.lower_bands(), expected)


def test_asymmetric_diagonal_block_rejected():
    diag = np.stack([np.array([[1.0, 2.0], [0.0, 1.0]])] * 2)
    with pytest.raises(ValueError):
        BlockTridiagonalSPDMatrix(diag, np.zeros((1, 2, 2)))


def test_indefinite_chain_raises():
    matrix = BlockTridiagonalSPDMatrix(
        np.stack([-np.eye(2)] * 2), np.zeros((1, 2, 2))
    )
    with pytest.raises(NotPositiveDefinite):
        solve_block_tridiagonal_spd(matrix, np.ones(4))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
)
def test_block_solve_agrees_with_dense_oracle(seed, num_blocks, block_dim):
    rng = np.random.Generator(np.random.Philox(key=seed))
    matrix = random_block_tridiagonal_spd(rng, num_blocks, block_dim)
    rhs = rng.normal(size=num_blocks * block_dim)
    solution = solve_block_tridiagonal_spd(matrix, rhs)
    oracle = np.linalg.solve(dense_from_blocks(matrix), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-8, atol=1e-8)


# ---------------------------------------------------------------------------
# companion_eigenvalues


def sort_complex(values: np.ndarray) -> np.ndarray:
    return np.asarray(sorted(values, key=lambda z: (round(z.real, 9), z.imag)))


def test_single_coefficient_is_its_own_root():
    roots = companion_eigenvalues(np.array([0.7]))
    np.testing.assert_allclose(roots, [0.7], rtol=0, atol=1e-14)


def test_pure_oscillator_has_imaginary_roots():
    roots = sort_complex(companion_eigenvalues(np.array([0.0, -1.0])))
    np.testing.assert_allclose(roots, [-1.0j, 1.0j], rtol=0, atol=1e-12)


def test_matches_dense_companion_eigenvalues():
    for key, theta in enumerate(
        [
            np.array([0.9]),
            np.array([0.5, 0.3]),
            np.array([0.2, -0.4, 0.1, 0.05]),
            np.array([1.5, -0.9, 0.3, -0.2, 0.05, -0.01]),
        ]
    ):
        direct = sort_complex(companion_eigenvalues(theta))
        dense = sort_complex(np.linalg.eigvals(build_companion(ARParams(theta)).A))
        np.testing.assert_allclose(direct, dense, rtol=0, atol=1e-9, err_msg=f"case {key}")


def test_unit_circle_roots_roundtrip():
    angles = 3.0 * np.pi / 5.0 + np.pi / 5.0 * np.arange(5)
    roots = np.exp(1j * angles)
    theta = coefficients_from_roots(roots)
    recovered = sort_complex(companion_eigenvalues(theta.theta))
    np.testing.assert_allclose(recovered, sort_complex(roots), rtol=0, atol=1e-8)


def test_mixed_radius_roots_roundtrip():
    roots = np.array(
        [
            0.9 * np.exp(1j * np.pi / 3),
            0.9 * np.exp(-1j * np.pi / 3),
            0.8 * np.exp(1j * 2 * np.pi / 5),
            0.8 * np.exp(-1j * 2 * np.pi / 5),
            0.5,
        ]
    )
    theta = coefficients_from_roots(roots)
    recovered = sort_complex(companion_eigenvalues(theta.theta))
    np.testing.assert_allclose(recovered, sort_complex(roots), rtol=0, atol=1e-8)


def test_root_sum_and_product_match_coefficients():
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(20):
        order = int(rng.integers(1, 7))
        theta = rng.normal(scale=0.5, size=order)
        theta[-1] += np.sign(theta[-1] or 1.0) * 0.1
        roots = companion_eigenvalues(theta)
        assert roots.shape == (order,)
        np.testing.assert_allclose(np.sum(roots), theta[0], rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            np.prod(roots), (-1.0) ** (order + 1) * theta[-1], rtol=1e-8, atol=1e-10
        )


def test_trailing_zero_coefficients_give_zero_roots():
    roots = sort_complex(companion_eigenvalues(np.array([0.5, 0.0])))
    np.testing.assert_allclose(roots, [0.0, 0.5], rtol=0, atol=1e-14)


def test_all_zero_coefficients_give_all_zero_roots():
    roots = companion_eigenvalues(np.array([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(roots, np.zeros(3), rtol=0, atol=0)


def test_stacked_roots_equal_roots_of_each_vector():
    rng = np.random.Generator(np.random.Philox(key=18))
    stack = rng.uniform(-1.0, 1.0, size=(6, 4))
    stack[1, 3] = 0.0
    stack[2, 2:] = 0.0
    stack[4] = 0.0
    roots = companion_eigenvalues(stack)
    assert roots.shape == (6, 4)
    for row, theta in zip(roots, stack):
        np.testing.assert_array_equal(row, companion_eigenvalues(theta))
    np.testing.assert_array_equal(roots[4], np.zeros(4))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_every_root_satisfies_characteristic_polynomial(seed, order):
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.uniform(-2.0, 2.0, size=order)
    roots = companion_eigenvalues(theta)
    assert roots.shape == (order,)
    coeffs = np.concatenate(([1.0], -theta))
    scale = max(1.0, float(np.max(np.abs(roots))) ** order) * max(
        1.0, float(np.max(np.abs(coeffs)))
    )
    residuals = np.abs(np.polyval(coeffs, roots))
    assert np.all(residuals <= 1e-7 * scale)
