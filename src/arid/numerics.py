"""Structured linear algebra kernels used by the estimators.

Regularized least squares, SPD smoother solves by banded Cholesky, and
companion-matrix spectra by LAPACK's nonsymmetric eigensolver. The VAR and
NAR state steps share one block smoother whose bands are built straight
from its dynamics and measurement blocks; on long systems its Cholesky
factor is computed for the leading blocks only and its settled block column
repeated. All routines are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbsv, dpbtrf, dpbtrs, dptsv
from scipy.linalg.lapack import dpotrs as _potrs

from .errors import NoConvergence, NonFinite, NotPositiveDefinite, SingularSystem


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} contains NaN or Inf")


def solve_regularized_ls(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Solve ``min_W ||design @ W - targets||_F^2 + lam * ||W||_F^2``.

    Goes through the normal equations with a Cholesky factorization. At
    ``lam == 0`` the Gram matrix has to be numerically positive definite;
    rank deficiency raises :class:`SingularSystem` instead of silently
    falling back to a pseudoinverse.

    A (B, M, n) stack of designs with (B, M) or (B, M, k) targets solves the
    B problems in one batched factorization; each solution equals the one
    its problem gets alone, and rank deficiency in any of them raises.
    Matrix targets take their moments from one Gram of the design and the
    targets side by side, so the solution does not depend on the number of
    BLAS threads.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    single = design.ndim == 2
    if single:
        design, targets = design[None], targets[None]
    if design.ndim != 3 or design.shape[1] < 1 or design.shape[2] < 1:
        raise ValueError("design must be a nonempty 2-D matrix or a stack of them")
    if targets.ndim not in (2, 3) or targets.shape[:2] != design.shape[:2]:
        raise ValueError("targets must have one row per design row")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    _require_finite("design", design)
    _require_finite("targets", targets)

    n = design.shape[2]
    vector = targets.ndim == 2
    if vector:
        design_t = np.swapaxes(design, 1, 2)
        gram, moments = design_t @ design, design_t @ targets[..., None]
    else:
        # One Gram of [X | Y], whose blocks are X^T X and X^T Y. NumPy sends a
        # matrix times its own transpose down BLAS's symmetric product, whose
        # result does not depend on the thread count; a general X^T Y product
        # does at some shapes (p >= 48 with OpenBLAS 0.3.31).
        augmented = np.concatenate((design, targets), axis=2)
        full = np.swapaxes(augmented, 1, 2) @ augmented
        gram, moments = full[:, :n, :n], full[:, :n, n:]
    if lam > 0.0:
        gram = gram + lam * np.eye(n)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal matrix is not positive definite") from exc
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    if lam == 0.0 and np.any(pivots.min(axis=1) <= np.sqrt(n * np.finfo(float).eps) * pivots.max(axis=1)):
        # Factorization survived but below the float numerical rank: treat as singular.
        raise SingularSystem("normal matrix is numerically rank-deficient at lam == 0")
    # LAPACK's triangular solves take one factor at a time.
    solution = np.stack([_potrs(c, rhs, lower=True)[0] for c, rhs in zip(chol, moments)])
    if vector:
        solution = solution[..., 0]
    return solution[0] if single else solution


@dataclass(frozen=True, eq=False)
class BandedSPDMatrix:
    """Symmetric band matrix in packed lower storage.

    ``bands[k, j]`` holds entry (j + k, j); row 0 is the main diagonal. Only
    the lower triangle is stored, symmetry is implied. Positive definiteness
    is asserted by the solver, not by the container. The bands are kept in
    the layout they come in, without a copy; column-major bands are the
    layout LAPACK reads.
    """

    dim: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 <= self.bandwidth < self.dim:
            raise ValueError("bandwidth must lie in [0, dim)")
        bands = np.asarray(self.bands, dtype=float)
        if bands.shape != (self.bandwidth + 1, self.dim):
            raise ValueError(f"bands must have shape {(self.bandwidth + 1, self.dim)}")
        _require_finite("bands", bands)
        object.__setattr__(self, "bands", bands)


def solve_banded_spd(matrix: BandedSPDMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by banded Cholesky without pivoting.

    Calls LAPACK ``dpbsv``, or ``dptsv`` at bandwidth 1: the routines
    ``scipy.linalg.solveh_banded`` picks for these bands, so the solution is
    the same bit for bit. Neither the bands nor ``rhs`` is overwritten.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (matrix.dim,):
        raise ValueError("rhs length must equal matrix dim")
    _require_finite("rhs", rhs)
    bands = matrix.bands
    if matrix.bandwidth == 1:
        _, _, solution, info = dptsv(bands[0], bands[1, :-1], rhs)
    else:
        _, solution, info = dpbsv(bands, rhs, lower=1)
    if info > 0:
        raise NotPositiveDefinite("banded Cholesky hit a nonpositive pivot")
    return solution


@dataclass(frozen=True, eq=False)
class BlockTridiagonalSPDMatrix:
    """The block-tridiagonal SPD state step shared by the VAR and NAR smoothers.

    Over ``num_blocks`` = m blocks of size b, diagonal block t is
    ``Q + [t > 0] I + [t < m - 1] A^T A`` and the coupling block below it
    is -A (its transpose above). Only A, Q and m are stored; the shapes
    and finiteness of A and Q are checked here, once.
    """

    A: np.ndarray
    Q: np.ndarray
    num_blocks: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        b = Q.shape[0] if Q.ndim == 2 else 0
        if b < 1 or Q.shape != (b, b) or A.shape != (b, b):
            raise ValueError("A and Q must be square blocks of one positive size")
        if self.num_blocks < 1:
            raise ValueError("need at least one block")
        _require_finite("A", A)
        _require_finite("Q", Q)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)

    @property
    def block_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def dim(self) -> int:
        return self.num_blocks * self.block_dim


# Block columns of the smoother factored before the factor is tested for a
# steady state; shorter systems than 4 * _LEAD_BLOCKS blocks are factored
# whole. See solve_block_tridiagonal_spd.
_LEAD_BLOCKS = 32
# Largest difference, in units of rounding of the block column's largest
# entry, at which two consecutive block columns of the factor count as equal.
_STEADY_ULPS = 4


class SteadyProbe:
    """Whether :func:`solve_block_tridiagonal_spd` still tries the steady path on a run of related systems.

    One fit hands the same probe to each of its state steps. Once a leading
    factor has failed to settle, the probe is off, and the later systems are
    factored whole straight away, which is what they would have been anyway.
    """

    def __init__(self):
        self.on = True


def block_smoother_diagonals(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> np.ndarray:
    """The distinct diagonal blocks of the block smoother over ``num_blocks`` blocks.

    Block t is ``Q + [t > 0] I + [t < m - 1] A^T A``. These are the first
    min(m, 3) of them; every block between the first and the last equals
    the middle one.
    """
    diag = np.empty((min(num_blocks, 3),) + Q.shape)
    diag[:] = Q
    diag[1:] += np.eye(Q.shape[0])
    diag[:-1] += A.T @ A
    return diag


def _band_columns(diag: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Lower band storage of block columns: (n, b, 2b) from n diagonal and n coupling blocks.

    Row c of slab i is matrix column c of block column i from its diagonal
    entry down: diagonal block i, then coupling block i, then zeros.
    """
    count, b = diag.shape[:2]
    stacked = np.zeros((count, 3 * b, b))
    stacked[:, :b] = diag
    stacked[:, b : 2 * b] = coupling
    c = np.arange(b)[:, None]
    return stacked[:, c + np.arange(2 * b), c]


def block_smoother_bands(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> np.ndarray:
    """The block smoother ``BlockTridiagonalSPDMatrix(A, Q, num_blocks)`` in lower band storage.

    Row k is subdiagonal k, for k up to ``min(2b - 1, dim - 1)``, as
    :class:`BandedSPDMatrix` holds it. The band columns are built for the
    first, a middle and the last block, and the middle block column repeated.
    Only the lower triangle is built, so the bands are symmetric by
    construction. The array is column-major, the layout LAPACK factors in
    place.
    """
    diag = block_smoother_diagonals(A, Q, num_blocks)
    coupling = np.empty_like(diag)
    coupling[:] = -A
    coupling[-1] = 0.0
    index = np.minimum(np.arange(num_blocks), 1)
    index[-1] = len(diag) - 1
    b = Q.shape[0]
    return _band_columns(diag, coupling)[index].reshape(-1, 2 * b)[:, : min(2 * b, num_blocks * b)].T


def _banded_cholesky(bands: np.ndarray) -> np.ndarray:
    """LAPACK lower band Cholesky factor of ``bands``, computed in place."""
    factor, info = dpbtrf(bands, lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite("banded Cholesky of the block smoother hit a nonpositive pivot")
    return factor


def _steady_factor(A: np.ndarray, Q: np.ndarray, num_blocks: int) -> np.ndarray | None:
    """Lower band Cholesky factor of the whole smoother, from a factor of its leading blocks.

    Away from the ends every block of the smoother is the same, so its
    Cholesky pivots follow a Riccati recursion to the steady-state smoother
    gain. Once block column K - 1 of the leading factor equals column K - 2
    to rounding, it is the factor's block column all the way to the last
    block, whose diagonal block is then the Cholesky factor of
    ``Q + I - W W^T`` for the steady coupling block W. Returns None when the
    leading blocks have not settled.
    """
    lead_blocks, b = _LEAD_BLOCKS, Q.shape[0]
    # The leading K + 1 block columns are the same in every longer system.
    lead = _banded_cholesky(block_smoother_bands(A, Q, lead_blocks + 2)[:, : (lead_blocks + 1) * b])
    lead = lead.T.reshape(lead_blocks + 1, b, 2 * b)
    steady = lead[lead_blocks - 1]
    if np.abs(steady - lead[lead_blocks - 2]).max() > _STEADY_ULPS * np.finfo(float).eps * np.abs(steady).max():
        return None
    c = np.arange(b)
    coupling = steady[c, b - c + c[:, None]]
    try:
        last = np.linalg.cholesky(Q + np.eye(b) - coupling @ coupling.T)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("last pivot block of the block smoother is not positive definite") from exc
    factor = np.empty((num_blocks, b, 2 * b))
    factor[:lead_blocks] = lead[:lead_blocks]
    factor[lead_blocks:-1] = steady
    factor[-1] = _band_columns(last[None], np.zeros_like(last[None]))[0]
    return factor.reshape(-1, 2 * b).T


def solve_block_tridiagonal_spd(
    matrix: BlockTridiagonalSPDMatrix, rhs: np.ndarray, probe: SteadyProbe | None = None
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by banded Cholesky without pivoting.

    The bands (half-bandwidth 2b - 1) are built for at most three blocks
    and the middle block column repeated. From 4 * ``_LEAD_BLOCKS`` blocks
    on, only the leading blocks are factored; when their factor has reached
    its steady state (see :func:`_steady_factor`) it is tiled over the rest.
    Otherwise, and on shorter systems, the whole band matrix is factored.
    Either way LAPACK ``dpbtrs`` solves with the factor; a nonpositive pivot
    raises :class:`NotPositiveDefinite`. With a ``probe`` that is off, the
    leading blocks are not tried; a lead that fails to settle switches it off.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (matrix.dim,):
        raise ValueError("rhs length must equal num_blocks * block_dim")
    _require_finite("rhs", rhs)
    A, Q, num_blocks = matrix.A, matrix.Q, matrix.num_blocks
    steady = num_blocks >= 4 * _LEAD_BLOCKS and (probe is None or probe.on)
    factor = _steady_factor(A, Q, num_blocks) if steady else None
    if factor is None:
        if steady and probe is not None:
            probe.on = False
        factor = _banded_cholesky(block_smoother_bands(A, Q, num_blocks))
    solution, _ = dpbtrs(factor, rhs, lower=1)
    return solution


def companion_eigenvalues(theta: np.ndarray) -> np.ndarray:
    """All r roots of ``z^r - theta_1 z^(r-1) - ... - theta_r``.

    This is the spectrum of the companion matrix built from ``theta``, from
    LAPACK's nonsymmetric eigensolver. Exact zero roots (trailing zero
    coefficients) are deflated up front. A (B, r) stack of coefficient
    vectors gives the (B, r) roots in one batched call, each row equal to
    the roots of its vector alone.
    """
    theta = np.asarray(theta, dtype=float)
    stack = np.atleast_2d(theta)
    if theta.ndim > 2 or stack.shape[1] < 1:
        raise ValueError("theta must be a nonempty vector or a stack of them")
    _require_finite("theta", stack)
    count, r = stack.shape
    trailing = np.cumprod(stack[:, ::-1] == 0.0, axis=1).sum(axis=1)
    roots = np.zeros((count, r), dtype=complex)
    for deg in np.unique(r - trailing[trailing < r]):
        rows = r - trailing == deg
        companion = np.zeros((int(rows.sum()), deg, deg))
        companion[:, :, 0] = stack[rows, :deg]
        companion[:, np.arange(deg - 1), np.arange(1, deg)] = 1.0
        try:
            roots[rows, :deg] = np.linalg.eigvals(companion)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("eigenvalue iteration did not converge") from exc
    return roots[0] if theta.ndim < 2 else roots
