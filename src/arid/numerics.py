"""Structured linear algebra kernels used by the estimators.

Regularized least squares, SPD smoother solves by banded Cholesky (a
block-tridiagonal system is packed into band storage and takes the same
LAPACK path as a banded one), and companion-matrix spectra by LAPACK's
nonsymmetric eigensolver. All routines are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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
    (i, i+1).
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
    by the same LAPACK routine as :func:`solve_banded_spd`.
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
