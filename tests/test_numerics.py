"""Tests for the regularized solver, the smoother solve, and root finder."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf, dpbtrs

from arid import numerics
from arid.errors import NonFinite, NotPositiveDefinite, SingularSystem
from arid.linear import _RIDGE_BOOSTS, _solve_smoother, assemble_ar_smoother
from arid.model import ARParams, build_companion, coefficients_from_roots
from arid.numerics import (
    Smoother,
    companion_eigenvalues,
    smoother_bands,
    solve_regularized_ls,
    solve_smoother,
)


def pack_lower_bands(dense, bandwidth: int) -> np.ndarray:
    """The lower bands of a dense array or a SciPy sparse matrix, row k holding subdiagonal k."""
    dim = dense.shape[0]
    bands = np.zeros((bandwidth + 1, dim))
    for k in range(bandwidth + 1):
        bands[k, : dim - k] = dense.diagonal(-k)
    return bands


def var_smoother(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> Smoother:
    """The smoother of the stencil [-A, I], the VAR and NAR state step."""
    return Smoother(np.stack((-A, np.eye(len(A))))[None], Q, num_blocks)


def dense_smoother(smoother: Smoother) -> np.ndarray:
    """The normal matrices of a stack of smoothers, block diagonal, each built from its residual operator."""
    width, p = smoother.stencils.shape[1:3]
    n, r = smoother.num_blocks, width - 1
    systems = []
    for stencils in smoother.stencils:
        residuals = np.zeros(((n - r) * p, n * p))
        for t in range(n - r):
            residuals[t * p : (t + 1) * p, t * p : (t + width) * p] = np.concatenate(stencils, axis=1)
        measured = np.kron(np.diag((np.arange(n) >= smoother.start).astype(float)), smoother.Q)
        systems.append(residuals.T @ residuals + measured + smoother.lam * np.eye(n * p))
    return sla.block_diag(*systems)


def random_stencil_smoother(rng: np.random.Generator, count: int, order: int, num_blocks: int, block_dim: int,
                            start: int = 0, lam: float = 0.0) -> Smoother:
    """A stack of smoothers with random stencils and a random SPD Q, whose least eigenvalue is at least 0.5.

    The oldest stencil block -A_r is a scaled orthogonal matrix, so the blocks
    before ``start``, which only the dynamics pin, stay well conditioned
    while there are at least ``start`` windows: ``num_blocks`` >= order + start.
    """
    stencils = np.empty((count, order + 1, block_dim, block_dim))
    stencils[:, 1:order] = rng.normal(scale=0.5 / np.sqrt(block_dim), size=stencils[:, 1:order].shape)
    stencils[:, order] = np.eye(block_dim)
    if order:
        orthogonal = np.linalg.qr(rng.normal(size=(count, block_dim, block_dim)))[0]
        stencils[:, 0] = rng.uniform(0.3, 0.9, size=(count, 1, 1)) * orthogonal
    lower = rng.normal(size=(block_dim, block_dim))
    return Smoother(stencils, lower @ lower.T / block_dim + 0.5 * np.eye(block_dim), num_blocks, start, lam)


def kronecker_smoother(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> sp.csr_matrix:
    """The block smoother built entry by entry from Kronecker products, as a sparse matrix.

    Its diagonal blocks add A^T A, then I, then Q, the order in which the
    band builder sums them.
    """
    b, m = Q.shape[0], num_blocks
    t = np.arange(m)
    return (
        sp.kron(sp.diags((t < m - 1).astype(float)), A.T @ A)
        + sp.kron(sp.diags((t > 0).astype(float)), np.eye(b))
        + sp.kron(sp.eye(m), Q)
        - sp.kron(sp.eye(m, k=-1), A)
        - sp.kron(sp.eye(m, k=1), A.T)
    ).tocsr()


def block_bands(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> np.ndarray:
    """The bands of ``var_smoother(A, Q, num_blocks)``, as its solve builds them."""
    return smoother_bands(np.stack((-A, np.eye(len(A))))[None], Q, num_blocks)[0]


def oracle_solve(A: np.ndarray, Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Kronecker-built block smoother solved by LU.

    Dense ``np.linalg.solve`` up to dim 2048; above that a sparse LU keeps
    the oracle within memory.
    """
    matrix = kronecker_smoother(A, Q, rhs.size // Q.shape[0])
    if rhs.size <= 2048:
        return np.linalg.solve(matrix.toarray(), rhs)
    return spla.spsolve(matrix.tocsc(), rhs)


def smoother_bandwidth(block_dim: int, num_blocks: int) -> int:
    return min(2 * block_dim - 1, num_blocks * block_dim - 1)


def lapack_band_solve(A: np.ndarray, Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LAPACK ``dpbtrf`` + ``dpbtrs`` on the lower bands packed from the Kronecker-built smoother."""
    b = Q.shape[0]
    m = rhs.size // b
    bands = pack_lower_bands(kronecker_smoother(A, Q, m), smoother_bandwidth(b, m))
    factor, info = dpbtrf(bands, lower=1)
    assert info == 0
    solution, info = dpbtrs(factor, rhs, lower=1)
    assert info == 0
    return solution


def random_smoother(rng: np.random.Generator, block_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A random transition A and a random SPD Q, whose least eigenvalue is at least 0.5."""
    A = rng.normal(size=(block_dim, block_dim))
    lower = rng.normal(size=(block_dim, block_dim))
    return A, lower @ lower.T + 0.5 * np.eye(block_dim)


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


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_targets_whose_unread_square_overflows_solve_without_a_warning(columns, lam):
    # Y^T Y of the Gram of [X | Y] overflows; the blocks the solve reads do not.
    rng = np.random.Generator(np.random.Philox(key=12))
    for width in (1, 2):
        design = rng.normal(size=(2, 30, width))
        targets = 1e200 * rng.normal(size=(2, 30) + ((columns,) if columns else ()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solution = solve_regularized_ls(design, targets, lam)
        np.testing.assert_allclose(solution, 1e200 * solve_regularized_ls(design, targets / 1e200, lam), rtol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("columns", [None, 1, 3])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_gram_or_moment_raises(columns, lam):
    rng = np.random.Generator(np.random.Philox(key=13))
    extra = (columns,) if columns else ()
    for width in (1, 2):
        design = rng.normal(size=(2, 30, width))
        targets = rng.normal(size=(2, 30) + extra)
        # One member's Gram overflows, the other's does not.
        huge = design.copy()
        huge[1] *= 1e200
        with pytest.raises(NonFinite):
            solve_regularized_ls(huge, targets, lam)
        # A finite Gram and overflowing moments.
        huge = 1e308 * np.sign(design[..., 0])
        with pytest.raises(NonFinite):
            solve_regularized_ls(design, np.repeat(huge[..., None], columns, axis=2) if columns else huge, lam)


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
# solve_smoother on AR(r) smoothers, 1 x 1 blocks


def ar_smoother(thetas: np.ndarray, num_blocks: int, rho: float, start: int = 0, lam: float = 0.0) -> Smoother:
    """The smoothers of a (B, r) stack of AR coefficients: stencils [-theta_r ... -theta_1, 1]."""
    stencils = np.concatenate((-thetas[:, ::-1], np.ones((len(thetas), 1))), axis=1)
    return Smoother(stencils[:, :, None, None], np.full((1, 1), rho), num_blocks, start, lam)


def test_diagonal_system_scales_rhs():
    # The one-value stencil [1] with Q = 1 puts 2 on every diagonal entry.
    smoother = Smoother(np.ones((1, 1, 1, 1)), np.ones((1, 1)), 3)
    assert smoother.bandwidth == 0
    solution = solve_smoother(smoother, np.array([[2.0, 4.0, 6.0]]))
    np.testing.assert_allclose(solution, [[1.0, 2.0, 3.0]], rtol=0, atol=1e-14)


def test_tridiagonal_matches_dense_solve():
    smoother = ar_smoother(np.array([[0.5]]), 4, 2.0)
    assert smoother.bandwidth == 1
    rhs = np.array([[1.0, -2.0, 0.5, 4.0]])
    solution = solve_smoother(smoother, rhs)
    np.testing.assert_allclose(solution[0], np.linalg.solve(dense_smoother(smoother), rhs[0]), rtol=1e-12)


def test_wide_band_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=11))
    smoother = random_stencil_smoother(rng, 1, 5, 200, 1)
    assert smoother.bandwidth == 5
    rhs = rng.normal(size=(1, 200))
    solution = solve_smoother(smoother, rhs)
    oracle = np.linalg.solve(dense_smoother(smoother), rhs[0])
    np.testing.assert_allclose(solution[0], oracle, rtol=1e-10, atol=1e-10)


def test_indefinite_band_raises():
    # A negative measurement block outweighs the stencil's terms: LAPACK's
    # dpbtrf at bandwidth 0 and 3, its dptsv at bandwidth 1.
    for order in (0, 1, 3):
        smoother = Smoother(np.ones((1, order + 1, 1, 1)) / (order + 1), np.full((1, 1), -2.0), 6)
        with pytest.raises(NotPositiveDefinite):
            solve_smoother(smoother, np.ones((1, 6)))


def test_band_shape_validated():
    with pytest.raises(ValueError):
        Smoother(np.ones((1, 2, 1, 1)), np.ones((2, 2)), 3)
    with pytest.raises(ValueError):
        Smoother(np.ones((0, 2, 1, 1)), np.ones((1, 1)), 3)
    with pytest.raises(ValueError):
        Smoother(np.ones((1, 4, 1, 1)), np.ones((1, 1)), 2)
    with pytest.raises(ValueError):
        Smoother(np.ones((1, 3, 1, 1)), np.ones((1, 1)), 5, start=3)
    with pytest.raises(ValueError):
        Smoother(np.ones((1, 3, 1, 1)), np.ones((1, 1)), 5, lam=-1.0)


def test_band_rhs_length_validated():
    smoother = Smoother(np.ones((2, 1, 1, 1)), np.ones((1, 1)), 3)
    with pytest.raises(ValueError):
        solve_smoother(smoother, np.ones((2, 2)))
    with pytest.raises(ValueError):
        solve_smoother(smoother, np.ones(6))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=6),
)
def test_banded_solve_agrees_with_dense_oracle(seed, dim, bandwidth):
    rng = np.random.Generator(np.random.Philox(key=seed))
    order = min(bandwidth, dim - 1)
    start, lam = int(rng.integers(0, min(order, dim - order) + 1)), float(rng.choice([0.0, 0.01]))
    smoother = random_stencil_smoother(rng, int(rng.integers(1, 4)), order, dim, 1, start, lam)
    rhs = rng.normal(size=(len(smoother.stencils), dim))
    solution = solve_smoother(smoother, rhs)
    oracle = np.linalg.solve(dense_smoother(smoother), rhs.ravel())
    np.testing.assert_allclose(solution.ravel(), oracle, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("bandwidth", range(1, 11))
def test_banded_solve_equals_scipy_solveh_banded_bit_for_bit(bandwidth):
    # The solve calls LAPACK itself: dptsv at bandwidth 1, and above it
    # dpbtrf plus BLAS dtbsv forward and backward, which is what dpbsv runs;
    # scipy.linalg.solveh_banded picks dptsv and dpbsv for these bands.
    rng = np.random.Generator(np.random.Philox(key=60 + bandwidth))
    smoother = ar_smoother(rng.normal(scale=0.3, size=(3, bandwidth)), 40, 0.5)
    bands = smoother_bands(smoother.stencils, smoother.Q, 40)
    rhs = rng.normal(size=(3, 40))
    for i, v in enumerate(rhs):
        member = Smoother(smoother.stencils[i : i + 1], smoother.Q, 40)
        np.testing.assert_array_equal(solve_smoother(member, v[None])[0], sla.solveh_banded(bands[i], v, lower=True))
    # The stack, placed end to end.
    stacked = np.concatenate(list(bands), axis=1)
    solution = solve_smoother(smoother, rhs)
    np.testing.assert_array_equal(solution.ravel(), sla.solveh_banded(stacked, rhs.ravel(), lower=True))


def test_stacked_bands_reach_lapack_without_a_copy(monkeypatch):
    # The band builder's systems are column-major, so placed end to end they
    # are the band array LAPACK factors in place, a view.
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
    rng = np.random.Generator(np.random.Philox(key=62))
    solve_smoother(ar_smoother(rng.normal(scale=0.3, size=(4, 3)), 30, 0.5), rng.normal(size=(4, 30)))
    assert len(built) == len(factored) == 1
    assert factored[0].shape == (4, 120) and factored[0].flags.f_contiguous
    assert np.shares_memory(factored[0], built[0])


# ---------------------------------------------------------------------------
# solve_smoother on the VAR and NAR smoothers, the stencil [-A, I]


def test_identity_blocks_reproduce_rhs():
    # One block is Q alone, whatever A; with no dynamics the blocks decouple
    # into Q for the first and Q + I for the rest.
    rng = np.random.Generator(np.random.Philox(key=12))
    rhs = rng.normal(size=(1, 6))
    one_block = var_smoother(rng.normal(size=(6, 6)), np.eye(6), 1)
    np.testing.assert_allclose(solve_smoother(one_block, rhs), rhs, rtol=0, atol=1e-14)
    decoupled = var_smoother(np.zeros((2, 2)), np.eye(2), 3)
    np.testing.assert_allclose(solve_smoother(decoupled, rhs), rhs / [1, 1, 2, 2, 2, 2], rtol=0, atol=1e-14)


def test_scalar_blocks_match_banded_solver():
    # With one channel the smoother is tridiagonal, and the solve is LAPACK's dptsv.
    rng = np.random.Generator(np.random.Philox(key=13))
    A, Q = random_smoother(rng, 1)
    rhs = rng.normal(size=30)
    block_solution = solve_smoother(var_smoother(A, Q, 30), rhs[None])[0]
    banded_solution = sla.solveh_banded(pack_lower_bands(kronecker_smoother(A, Q, 30), 1), rhs, lower=True)
    np.testing.assert_allclose(block_solution, banded_solution, rtol=1e-12)


def test_long_chain_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=14))
    A, Q = random_smoother(rng, 4)
    rhs = rng.normal(size=200)
    solution = solve_smoother(var_smoother(A, Q, 50), rhs[None])[0]
    oracle = np.linalg.solve(kronecker_smoother(A, Q, 50).toarray(), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-10, atol=1e-10)


# Single-block systems, and the block shapes of the nar (b=7, M=397) and
# var_wide (b=32) benchmark workloads.
@pytest.mark.parametrize("num_blocks, block_dim", [(1, 1), (1, 5), (397, 7), (40, 32)])
def test_block_solve_matches_dense_oracle_at_fixed_shapes(num_blocks, block_dim):
    rng = np.random.Generator(np.random.Philox(key=num_blocks * 100 + block_dim))
    A, Q = random_smoother(rng, block_dim)
    smoother = var_smoother(A, Q, num_blocks)
    rhs = rng.normal(size=smoother.dim)
    solution = solve_smoother(smoother, rhs[None])[0]
    oracle = np.linalg.solve(kronecker_smoother(A, Q, num_blocks).toarray(), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("num_blocks, block_dim", [(1, 1), (1, 4), (2, 1), (2, 3), (5, 2), (6, 4)])
def test_lower_bands_round_trip_through_dense(num_blocks, block_dim):
    # The short systems, where the bands are cut to fewer than 2b rows.
    rng = np.random.Generator(np.random.Philox(key=16))
    A, Q = random_smoother(rng, block_dim)
    expected = pack_lower_bands(kronecker_smoother(A, Q, num_blocks), smoother_bandwidth(block_dim, num_blocks))
    np.testing.assert_array_equal(block_bands(A, Q, num_blocks), expected)


def test_indefinite_chain_raises():
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(var_smoother(np.zeros((2, 2)), -np.eye(2), 2), np.ones((1, 4)))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
)
def test_block_solve_agrees_with_dense_oracle(seed, num_blocks, block_dim):
    rng = np.random.Generator(np.random.Philox(key=seed))
    A, Q = random_smoother(rng, block_dim)
    rhs = rng.normal(size=num_blocks * block_dim)
    solution = solve_smoother(var_smoother(A, Q, num_blocks), rhs[None])[0]
    oracle = np.linalg.solve(kronecker_smoother(A, Q, num_blocks).toarray(), rhs)
    np.testing.assert_allclose(solution, oracle, rtol=1e-8, atol=1e-8)


NAR_ORDER = 4


def transition_with_radius(rng: np.random.Generator, block_dim: int, radius: float) -> np.ndarray:
    A = rng.normal(size=(block_dim, block_dim))
    return A * (radius / float(np.max(np.abs(np.linalg.eigvals(A)))))


def smoother_case(family: str, block_dim: int, num_blocks: int, rho: float, radius: float = 0.6):
    """(A, Q, rhs, assembled system) of a VAR or NAR state step with ``num_blocks`` blocks.

    The rhs is built here from each family's formula, and the smoother by
    ``linear.assemble_ar_smoother`` from A^T, as the state steps call it; the
    system is None for a one-block NAR system, which no series can produce.
    """
    rng = np.random.default_rng([block_dim, num_blocks, int(1000 * rho)])
    A = transition_with_radius(rng, block_dim, radius)
    if family == "var":
        Q, rhs = rho * np.eye(block_dim), rho * rng.normal(size=(num_blocks, block_dim))
        return A, Q, rhs.ravel(), (assemble_ar_smoother(A.T[None], num_blocks, Q, 0.0, 0), rhs.reshape(1, -1))
    # A unit readout and a ridge of 0.1 keep the condition number of the NAR
    # system below about 100, so 1e-13 bounds the solver, not the problem.
    lam = 0.1
    readout = rng.normal(size=block_dim)
    readout /= np.linalg.norm(readout)
    Q = rho * np.outer(readout, readout) + lam * np.eye(block_dim)
    if num_blocks == 1:
        return A, Q, rng.normal(size=block_dim), None
    y = rng.normal(size=num_blocks + NAR_ORDER - 1)
    rhs = (rho * y[NAR_ORDER - 1:, None] * readout[None, :]).reshape(1, -1)
    return A, Q, rhs[0], (assemble_ar_smoother(A.T[None], num_blocks, Q, 0.0, 0), rhs)


def assert_close_relative(actual: np.ndarray, expected: np.ndarray, rtol: float) -> None:
    error = float(np.max(np.abs(actual - expected)))
    assert error <= rtol * float(np.max(np.abs(expected))), f"relative error {error / np.max(np.abs(expected)):.2e}"


def smoother_solve(A: np.ndarray, Q: np.ndarray, rhs: np.ndarray, probe=None) -> np.ndarray:
    return solve_smoother(var_smoother(A, Q, rhs.size // Q.shape[0]), rhs[None], probe)[0]


@pytest.mark.parametrize("rho", [3.0, 0.1, 0.01])
@pytest.mark.parametrize("num_blocks", [1, 2, 3, 127, 128, 500])
@pytest.mark.parametrize("block_dim", [1, 4, 7, 32])
@pytest.mark.parametrize("family", ["var", "nar"])
def test_block_smoother_matches_oracle_and_reference(family, block_dim, num_blocks, rho):
    A, Q, rhs, system = smoother_case(family, block_dim, num_blocks, rho)
    solution = smoother_solve(A, Q, rhs)
    assert_close_relative(solution, oracle_solve(A, Q, rhs), 1e-13)
    if system is not None:
        # The assembler builds the same A and Q.
        np.testing.assert_array_equal(solve_smoother(*system)[0], solution)


@pytest.mark.parametrize("family", ["var", "nar"])
def test_steady_factor_settles_on_long_well_damped_systems(family):
    # At rho = 3 the factor of the leading blocks settles well inside them.
    A, Q, rhs, _ = smoother_case(family, 7, 500, 3.0)
    assert numerics._steady_factor(var_smoother(A, Q, 500)) is not None


@pytest.mark.parametrize("family", ["var", "nar"])
def test_near_unit_root_takes_full_factor(family):
    # A spectral radius near 1 and a weak measurement term slow the Riccati
    # recursion down so much that no lead up to a quarter of the blocks
    # settles. The NAR case's ridge settles it at block 34: at 200 blocks its
    # leads of 16 and 32 blocks do not reach that, and 64 is more than a
    # quarter of them.
    num_blocks = 500 if family == "var" else 200
    A, Q, rhs, _ = smoother_case(family, 4, num_blocks, 0.01, radius=0.999)
    assert numerics._steady_factor(var_smoother(A, Q, num_blocks)) is None
    solution = smoother_solve(A, Q, rhs)
    assert_close_relative(solution, oracle_solve(A, Q, rhs), 1e-13)
    np.testing.assert_array_equal(solution, lapack_band_solve(A, Q, rhs))


def fail(*args):
    raise AssertionError("steady path taken")


def test_short_system_takes_full_factor(monkeypatch):
    # Below 4 * _LEAD_BLOCKS blocks the leading factor is never tried.
    A, Q, rhs, _ = smoother_case("var", 4, 4 * numerics._LEAD_BLOCKS - 1, 3.0)
    monkeypatch.setattr(numerics, "_steady_factor", fail)
    solution = smoother_solve(A, Q, rhs)
    np.testing.assert_array_equal(solution, lapack_band_solve(A, Q, rhs))


@pytest.mark.parametrize(
    "stencils, count", [("ar1", 1), ("ar2", 1), ("var", 2)], ids=["one-channel", "three-stencils", "stack"]
)
def test_steady_path_needs_one_system_of_two_stencils_with_p_of_two_or_more(monkeypatch, stencils, count):
    # A long AR(1) or one-channel VAR system is tridiagonal, and dptsv solves
    # it whole; three stencils, or a stack, are factored whole by dpbtrf.
    num_blocks = 4 * numerics._LEAD_BLOCKS
    rng = np.random.Generator(np.random.Philox(key=63))
    p, order = (1, 1) if stencils == "ar1" else (1, 2) if stencils == "ar2" else (2, 1)
    smoother = random_stencil_smoother(rng, count, order, num_blocks, p)
    monkeypatch.setattr(numerics, "_steady_factor", fail)
    rhs = rng.normal(size=(count, num_blocks * p))
    solution = solve_smoother(smoother, rhs)
    assert_close_relative(solution.ravel(), np.linalg.solve(dense_smoother(smoother), rhs.ravel()), 1e-13)


def test_probe_stops_trying_the_lead_once_it_fails_to_settle(monkeypatch):
    # The near-unit-root system above never settles: the first solve tries
    # its leads and switches the probe off, the second goes straight to the
    # whole factor, and both give the answer of a solve without a probe.
    A, Q, rhs, _ = smoother_case("var", 4, 500, 0.01, radius=0.999)
    expected = smoother_solve(A, Q, rhs)
    steady, tries = numerics._steady_factor, []

    def counting(*args):
        tries.append(args)
        return steady(*args)

    monkeypatch.setattr(numerics, "_steady_factor", counting)
    probe = numerics.SteadyProbe()
    for _ in range(2):
        np.testing.assert_array_equal(smoother_solve(A, Q, rhs, probe), expected)
    assert len(tries) == 1 and probe.lead is None


def test_probe_stays_on_while_the_lead_settles():
    A, Q, rhs, _ = smoother_case("var", 7, 500, 3.0)
    probe = numerics.SteadyProbe()
    np.testing.assert_array_equal(smoother_solve(A, Q, rhs, probe), smoother_solve(A, Q, rhs))
    assert probe.lead == numerics._LEAD_BLOCKS


def recorded_segments(monkeypatch) -> list:
    """The (band width, lower, trans) of each ``dtbsv`` call of the solve, in call order."""
    dtbsv, calls = numerics.dtbsv, []

    def recording(k, a, x, **options):
        calls.append((a.shape[1], options["lower"], options["trans"]))
        return dtbsv(k, a, x, **options)

    monkeypatch.setattr(numerics, "dtbsv", recording)
    return calls


def forward_sweep(calls: list) -> list:
    """The (band width, lower) of the segments the forward sweep runs over, in order.

    The forward sweep is the first half of the calls; the backward sweep runs
    the same segments in reverse order, each transposed the other way.
    """
    half = len(calls) // 2
    forward, backward = calls[:half], calls[half:]
    assert all(trans == 1 - lower for _, lower, trans in forward)
    assert backward == [(width, lower, lower) for width, lower, _ in forward[::-1]]
    return [(width, lower) for width, lower, _ in forward]


K = numerics._LEAD_BLOCKS


# (block_dim, full tiles, blocks after them) of the steady block columns:
# m = 4K, where one shortened tile covers them all; one full tile; a one-block
# remainder tile; and two tiles at b = 32. At b = 1 the system is
# tridiagonal: dptsv solves it whole and sweeps no segment. The lead and the
# last block sweep in lower band storage, the tiles in upper.
@pytest.mark.parametrize(
    "block_dim, tiles, rest", [(4, 0, 3 * K - 1), (4, 1, 0), (4, 1, 1), (1, 1, 0), (1, 1, 1), (32, 2, 0), (32, 2, 1)]
)
def test_tiled_solve_matches_oracle_across_every_seam(monkeypatch, block_dim, tiles, rest):
    tile_blocks = numerics._TILE_ROWS // block_dim
    num_blocks = K + 1 + tiles * tile_blocks + rest
    assert num_blocks >= 4 * K
    A, Q, rhs, _ = smoother_case("var", block_dim, num_blocks, 3.0)
    calls = recorded_segments(monkeypatch)
    solution = smoother_solve(A, Q, rhs)
    tile_widths = [(tile_blocks * block_dim, 0)] * tiles + [(rest * block_dim, 0)] * (rest > 0)
    assert forward_sweep(calls) == ([] if block_dim == 1 else [(K * block_dim, 1), *tile_widths, (block_dim, 1)])
    assert_close_relative(solution, oracle_solve(A, Q, rhs), 1e-13)


def test_indefinite_last_pivot_block_reaches_the_ladder():
    # Every pivot of the scalar chain with A = 3, Q = -2 is positive up to the
    # last, Q + 1 - W^2 < 0; two such chains side by side take the steady
    # path. The leading K + 1 blocks factor and settle, and the matrix is
    # still indefinite, which the lead's last block shows.
    A, Q, num_blocks = 3.0 * np.eye(2), -2.0 * np.eye(2), 4 * K
    dense = kronecker_smoother(A, Q, num_blocks).toarray()
    lead = 2 * (K + 1)
    assert np.linalg.eigvalsh(dense[:lead, :lead])[0] > 0 > np.linalg.eigvalsh(dense)[0]
    with pytest.raises(NotPositiveDefinite):
        numerics._steady_factor(var_smoother(A, Q, num_blocks))
    attempts = []

    def counting_solve(smoother, rhs, probe):
        attempts.append(smoother)
        return solve_smoother(smoother, rhs, probe)

    with pytest.raises(NotPositiveDefinite, match="after diagonal shifts"):
        _solve_smoother(var_smoother(A, Q, num_blocks), np.ones((1, 2 * num_blocks)), counting_solve)
    assert len(attempts) == 4


def largest_diagonal(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> float:
    """The largest diagonal entry of the Kronecker-built smoother, at least 1."""
    return max(1.0, float(kronecker_smoother(A, Q, num_blocks).diagonal().max()))


def singular_ladder_segments(monkeypatch, num_blocks: int) -> list:
    """The forward segments of the ladder's solve of a singular two-channel system, checked against the oracle.

    Channel 2 has no measurement term (Q = 0), so its free trajectory
    x_t = 0.5^t x_0 spans the null space: its steady pivot is 0.25 exactly,
    W = -1 and the last pivot 1 - W^2 is 0. With no load on channel 2, the
    shifted system is well conditioned in what the load reaches. Under a
    shift of 1e-10 its lead settles at 4K blocks.
    """
    A, Q = 0.5 * np.eye(2), np.diag([1.0, 0.0])
    rhs = np.zeros(2 * num_blocks)
    rhs[::2] = np.random.default_rng(3).normal(size=num_blocks)
    smoother = var_smoother(A, Q, num_blocks)
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, rhs[None])
    calls = recorded_segments(monkeypatch)
    solution = _solve_smoother(smoother, rhs[None], solve_smoother)[0]
    shifted = Q + 1e-10 * largest_diagonal(A, Q, num_blocks) * np.eye(2)
    assert_close_relative(solution, oracle_solve(A, shifted, rhs), 1e-13)
    return forward_sweep(calls)


def test_singular_tiled_system_reaches_the_ladder(monkeypatch):
    # At m = 4K no lead past K is tried, so the ladder factors it whole.
    assert singular_ladder_segments(monkeypatch, 4 * K) == [(2 * 4 * K, 1)]


def test_ladder_retry_of_a_long_singular_system_runs_on_tiles(monkeypatch):
    # At m = 1024 the shifted retry runs its 4K-block lead, the tiles and the last block.
    num_blocks = 1024
    lead, *tiles, last = singular_ladder_segments(monkeypatch, num_blocks)
    assert lead == (2 * 4 * K, 1) and last == (2, 1)
    assert {lower for _, lower in tiles} == {0} and sum(width for width, _ in tiles) == 2 * (num_blocks - 4 * K - 1)


def tiled_solve_peak(rho: float, lead: int) -> None:
    """Solve one VAR system of 2e4 blocks of 32 under tracemalloc; check the lead that settled and the peak.

    The whole factor is 2e4 * 32 * 64 doubles, 328 MB; the tiled solve holds
    the solution, the leads it tries and one tile.
    """
    A, Q, rhs, _ = smoother_case("var", 32, 20_000, rho)
    smoother, probe = var_smoother(A, Q, 20_000), numerics.SteadyProbe()
    tracemalloc.start()
    try:
        solve_smoother(smoother, rhs[None], probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probe.lead == lead
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_tiled_solve_holds_no_whole_factor():
    # At rho = 3 the first lead settles.
    tiled_solve_peak(3.0, K)


def test_doubled_lead_holds_no_whole_factor():
    # At rho = 0.1, the CLI's default, the lead settles only once it has doubled.
    tiled_solve_peak(0.1, 2 * K)


# Systems of 512 blocks of 4 whose lead first settles at 32, 64 and 128
# block columns; 128 is the longest lead that 512 blocks try.
@pytest.mark.parametrize("rho, lead", [(0.3, 2 * K), (0.1, 4 * K), (0.01, 8 * K)])
def test_lead_doubles_until_it_settles(monkeypatch, rho, lead):
    num_blocks = 512
    A, Q, rhs, _ = smoother_case("var", 4, num_blocks, rho, radius=0.9)
    calls = recorded_segments(monkeypatch)
    probe = numerics.SteadyProbe()
    solution = smoother_solve(A, Q, rhs, probe)
    assert probe.lead == lead
    assert forward_sweep(calls)[0] == (4 * lead, 1)
    assert_close_relative(solution, oracle_solve(A, Q, rhs), 1e-13)
    # A probe that starts at the settled lead takes it straight away.
    calls.clear()
    np.testing.assert_array_equal(smoother_solve(A, Q, rhs, probe), solution)
    assert probe.lead == lead and forward_sweep(calls)[0] == (4 * lead, 1)


# A NAR system has at least two blocks.
@pytest.mark.parametrize(
    "family, num_blocks", [("var", m) for m in (1, 2, 3, 7, 500)] + [("nar", m) for m in (2, 3, 7, 500)]
)
def test_direct_bands_match_assembled_bands(family, num_blocks):
    A, Q, _, _ = smoother_case(family, 5, num_blocks, 0.1)
    expected = pack_lower_bands(kronecker_smoother(A, Q, num_blocks), smoother_bandwidth(5, num_blocks))
    np.testing.assert_array_equal(block_bands(A, Q, num_blocks), expected)


@pytest.mark.parametrize("num_blocks", [1, 2, 3, 200])
def test_ladder_shifts_block_smoother_like_assembled_system(num_blocks):
    # With a large A, the largest diagonal-block entry depends on which
    # blocks exist: m = 1 has only Q, and m = 2 has no middle block. Each
    # retry of the ladder raises lam by its boost times that entry.
    b = 3
    A, Q, _, _ = smoother_case("var", b, num_blocks, 0.1, radius=3.0)
    dense = kronecker_smoother(A, Q, num_blocks).toarray()
    attempts = []

    def failing_solve(smoother, rhs, probe):
        attempts.append(smoother)
        raise NotPositiveDefinite("recorded")

    with pytest.raises(NotPositiveDefinite, match="after diagonal shifts"):
        _solve_smoother(var_smoother(A, Q, num_blocks), np.ones((1, num_blocks * b)), failing_solve)
    assert attempts[0].lam == 0.0 and len(attempts) == 1 + len(_RIDGE_BOOSTS)
    for boost, shifted in zip(_RIDGE_BOOSTS, attempts[1:], strict=True):
        expected = dense + boost * largest_diagonal(A, Q, num_blocks) * np.eye(dense.shape[0])
        np.testing.assert_array_equal(shifted.stencils, attempts[0].stencils)
        assert shifted.num_blocks == num_blocks
        np.testing.assert_allclose(
            smoother_bands(shifted.stencils, shifted.Q, num_blocks, shifted.start, shifted.lam)[0],
            pack_lower_bands(expected, smoother_bandwidth(b, num_blocks)),
            rtol=1e-15,
            atol=0.0,
        )


@pytest.mark.parametrize("num_blocks", [3, 500])
def test_indefinite_block_smoother_raises(num_blocks):
    # Both the whole factor and the leading factor of the steady path fail.
    b = 2
    smoother = var_smoother(np.zeros((b, b)), -np.eye(b), num_blocks)
    with pytest.raises(NotPositiveDefinite):
        solve_smoother(smoother, np.ones((1, num_blocks * b)))
    with pytest.raises(NotPositiveDefinite):
        _solve_smoother(smoother, np.ones((1, num_blocks * b)), solve_smoother)


def test_block_smoother_validates_shapes():
    with pytest.raises(ValueError):
        var_smoother(np.eye(2), np.eye(3), 2)
    with pytest.raises(ValueError):
        var_smoother(np.eye(2), np.eye(2), 0)
    with pytest.raises(ValueError):
        solve_smoother(var_smoother(np.eye(2), np.eye(2), 3), np.ones((1, 5)))
    with pytest.raises(NonFinite):
        solve_smoother(var_smoother(np.eye(2), np.eye(2), 1), np.array([[1.0, np.nan]]))
    with pytest.raises(NonFinite):
        var_smoother(np.full((2, 2), np.inf), np.eye(2), 1)
    smoother = var_smoother(np.eye(2), np.eye(2), 5)
    assert (smoother.dim, smoother.bandwidth, smoother.num_blocks, smoother.block_dim) == (10, 3, 5, 2)


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
