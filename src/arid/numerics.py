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
import scipy.linalg as sla
from scipy.linalg.lapack import dpbtrf, dpbtrs
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
    design_t = np.swapaxes(design, 1, 2)
    gram = design_t @ design
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
    vector = targets.ndim == 2
    moments = design_t @ (targets[..., None] if vector else targets)
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
    is asserted by the solver, not by the container.
    """

    dim: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 <= self.bandwidth < self.dim:
            raise ValueError("bandwidth must lie in [0, dim)")
        bands = np.ascontiguousarray(np.asarray(self.bands, dtype=float))
        if bands.shape != (self.bandwidth + 1, self.dim):
            raise ValueError(f"bands must have shape {(self.bandwidth + 1, self.dim)}")
        _require_finite("bands", bands)
        object.__setattr__(self, "bands", bands)


def solve_banded_spd(matrix: BandedSPDMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by banded Cholesky without pivoting."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (matrix.dim,):
        raise ValueError("rhs length must equal matrix dim")
    _require_finite("rhs", rhs)
    try:
        return sla.solveh_banded(matrix.bands, rhs, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("banded Cholesky hit a nonpositive pivot") from exc


@dataclass(frozen=True, eq=False)
class BlockTridiagonalSPDMatrix:
    """Block tridiagonal matrix with symmetric diagonal blocks.

    ``off_diagonal_blocks[i]`` couples block i+1 to block i (it sits at the
    (i+1, i) position of the block partition); its transpose is implied at
    (i, i+1). The fits no longer build it: they call
    :func:`solve_block_smoother`, and this explicit form with
    :func:`solve_block_tridiagonal_spd` is the reference it is tested against.
    """

    diagonal_blocks: np.ndarray
    off_diagonal_blocks: np.ndarray

    def __post_init__(self):
        diag = np.ascontiguousarray(np.asarray(self.diagonal_blocks, dtype=float))
        off = np.ascontiguousarray(np.asarray(self.off_diagonal_blocks, dtype=float))
        if diag.ndim != 3 or diag.shape[1] != diag.shape[2]:
            raise ValueError("diagonal_blocks must be a (M, b, b) stack")
        m, b = diag.shape[0], diag.shape[1]
        if m < 1 or b < 1:
            raise ValueError("need at least one block of positive dimension")
        if off.shape != (m - 1, b, b):
            raise ValueError(f"off_diagonal_blocks must have shape {(m - 1, b, b)}")
        _require_finite("diagonal_blocks", diag)
        _require_finite("off_diagonal_blocks", off)
        diag_t = np.transpose(diag, (0, 2, 1))
        if not np.allclose(diag, diag_t, rtol=1e-10, atol=0.0):
            raise ValueError("diagonal blocks must be symmetric")
        object.__setattr__(self, "diagonal_blocks", (diag + diag_t) / 2.0)
        object.__setattr__(self, "off_diagonal_blocks", off)

    @property
    def num_blocks(self) -> int:
        return self.diagonal_blocks.shape[0]

    @property
    def block_dim(self) -> int:
        return self.diagonal_blocks.shape[1]

    @property
    def dim(self) -> int:
        return self.num_blocks * self.block_dim

    def lower_bands(self) -> np.ndarray:
        """The matrix in lower band storage, as :class:`BandedSPDMatrix` holds it.

        Row k is subdiagonal k, for k up to ``min(2b - 1, dim - 1)``. Within
        block column i it takes entries from diagonal block i while k + c < b
        (c the column inside the block), then from coupling block i.
        """
        m, b = self.num_blocks, self.block_dim
        width = min(2 * b, self.dim)
        bands = np.zeros((width, m, b))
        for k in range(width):
            if k < b:
                bands[k, :, : b - k] = np.diagonal(self.diagonal_blocks, -k, axis1=1, axis2=2)
            bands[k, :-1, max(b - k, 0) : min(b, 2 * b - k)] = np.diagonal(
                self.off_diagonal_blocks, b - k, axis1=1, axis2=2
            )
        return bands.reshape(width, self.dim)


def solve_block_tridiagonal_spd(matrix: BlockTridiagonalSPDMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by banded Cholesky without pivoting.

    With b x b blocks the matrix is a band matrix of half-bandwidth 2b - 1;
    it is packed by :meth:`BlockTridiagonalSPDMatrix.lower_bands` and solved
    by the same LAPACK routine as :func:`solve_banded_spd`. The reference
    for :func:`solve_block_smoother`, which the VAR and NAR fits call.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (matrix.dim,):
        raise ValueError("rhs length must equal num_blocks * block_dim")
    _require_finite("rhs", rhs)
    try:
        # The packed bands belong to this call, so LAPACK may factor them in place.
        return sla.solveh_banded(matrix.lower_bands(), rhs, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("banded Cholesky of the block system hit a nonpositive pivot") from exc


# Block columns of the smoother factored before the factor is tested for a
# steady state; shorter systems than 4 * _LEAD_BLOCKS blocks are factored
# whole. See solve_block_smoother.
_LEAD_BLOCKS = 32
# Largest difference, in units of rounding of the block column's largest
# entry, at which two consecutive block columns of the factor count as equal.
_STEADY_ULPS = 4


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
    """The block smoother of :func:`solve_block_smoother` in lower band storage.

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


def solve_block_smoother(A: np.ndarray, Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal SPD state step shared by the VAR and NAR smoothers.

    The system has m = ``len(rhs) / b`` diagonal blocks
    ``Q + [t > 0] I + [t < m - 1] A^T A`` and coupling blocks -A, A and Q
    being b x b. Its bands (half-bandwidth 2b - 1) are built for at most
    three blocks and the middle block column repeated. From 4 *
    ``_LEAD_BLOCKS`` blocks on, only the leading blocks are factored; when
    their factor has reached its steady state (see :func:`_steady_factor`)
    it is tiled over the rest. Otherwise, and on shorter systems, the whole
    band matrix is factored. Either way LAPACK ``dpbtrs`` solves with the
    factor; a nonpositive pivot raises :class:`NotPositiveDefinite`.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    b = Q.shape[0] if Q.ndim == 2 else 0
    if b < 1 or Q.shape != (b, b) or A.shape != (b, b):
        raise ValueError("A and Q must be square blocks of one positive size")
    if rhs.ndim != 1 or rhs.size < b or rhs.size % b:
        raise ValueError("rhs length must be a positive multiple of the block size")
    _require_finite("A", A)
    _require_finite("Q", Q)
    _require_finite("rhs", rhs)
    num_blocks = rhs.size // b
    factor = _steady_factor(A, Q, num_blocks) if num_blocks >= 4 * _LEAD_BLOCKS else None
    if factor is None:
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
