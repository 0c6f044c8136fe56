"""Structured linear algebra kernels used by the estimators.

Regularized least squares, SPD smoother solves by banded Cholesky, and
companion-matrix spectra by LAPACK's nonsymmetric eigensolver. One band
builder lays out the smoother of every family from its stencil
[-A_r ... -A_1, I] and measurement block Q: AR(r) with 1 x 1 blocks, VAR
and NAR with [-A, I]. On long block systems the Cholesky factor is computed
for the leading blocks only and its settled block column repeated. All
routines are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    # Every (n + 1)-th entry of each factor: a strided view of its diagonal.
    pivots = chol.reshape(len(chol), -1)[:, :: n + 1]
    if lam == 0.0 and (pivots.min(axis=1) <= np.sqrt(n * np.finfo(float).eps) * pivots.max(axis=1)).any():
        # Factorization survived but below the float numerical rank: treat as singular.
        raise SingularSystem("normal matrix is numerically rank-deficient at lam == 0")
    # LAPACK's triangular solves take one factor at a time.
    solution = np.empty(moments.shape)
    for i, c in enumerate(chol):
        solution[i] = _potrs(c, moments[i], lower=True)[0]
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


@lru_cache(maxsize=64)
def _band_layout(r: int, p: int, n: int):
    """Read-only index arrays of :func:`smoother_bands` for r + 1 stencil blocks of size p over n blocks.

    Slab s of the terms is window offset a = s + r + 1 - short, short =
    min(n, 2r + 1); each short block column sums ``held`` = short - r slabs.
    ``gather[s, c, k]`` is the flat index, in the stencil Gram, of the entry
    a adds to band row k of column c of a block; ``exists`` is false where a
    or that entry does not exist. ``lower[c, k]`` is the flat index of entry
    (c + k, c) of a p x p block where ``in_lower``; short block column c
    stands for ``repeats[c]`` block columns, the middle one, r, for n - 2r.
    """
    width, short = r + 1, min(n, 2 * r + 1)
    offset, c = np.arange(width - short, short)[:, None, None], np.arange(p)[:, None]
    row = offset * p + c + np.arange(min(width, n) * p)
    exists = (0 <= offset) & (offset <= r) & (row < width * p)
    gather = np.where(exists, row * width * p + offset * p + c, 0)
    diagonal = c + np.arange(p)
    repeats = np.ones(short, dtype=np.intp)
    repeats[min(r, short - 1)] += n - short
    arrays = gather, exists[..., None], np.minimum(diagonal, p - 1) * p + c, diagonal < p, repeats
    for array in arrays:
        array.flags.writeable = False
    return (*arrays, short - r)


def smoother_bands(stencils: np.ndarray, Q: np.ndarray, num_blocks: int, start: int = 0, lam: float = 0.0):
    """Lower bands (B, rows, num_blocks * p) of a stack of smoothers, rows = min(r + 1, num_blocks) * p.

    ``stencils`` is a (B, r + 1, p, p) stack [S_0 ... S_r] = [-A_r ... -A_1, I].
    System i is the normal matrix of the sum of ||S_0 x_t + ... + S_r x_(t+r)||^2
    over its windows, plus x_t^T Q x_t for every block t >= ``start`` and
    ``lam`` ||x||^2: block (j + k, j) sums S_(a+k)^T S_a over increasing a,
    from 0.0, over the windows that hold block j; then Q goes onto the
    diagonal blocks, then ``lam`` onto the diagonal. ``num_blocks`` >= r; the
    bands are built for at most 2r + 1 blocks and the middle column repeated.
    Row k is subdiagonal k, as :class:`BandedSPDMatrix` holds it; only the
    lower triangle is built. Each system is column-major, with zeros past its
    last row, so the systems end to end are the column-major bands LAPACK reads.
    """
    count, width, p = stencils.shape[:3]
    gather, exists, lower, in_lower, repeats, held = _band_layout(width - 1, p, num_blocks)
    # Block (u, v) of the Gram of the stencil row [S_0 ... S_r] is S_u^T S_v.
    row = stencils.transpose(0, 2, 1, 3).reshape(count, p, width * p)
    gram = np.matmul(row.transpose(0, 2, 1), row)
    terms = np.where(exists, gram.reshape(count, -1).T[gather], 0.0)
    # windows[i, j] is slab j + i, a view; reducing over the outermost axis
    # from 0.0 adds the terms of each block column in increasing a.
    shape = (held, len(terms) - held + 1) + terms.shape[1:]
    windows = np.ndarray(shape, float, terms, 0, (terms.strides[0],) + terms.strides)
    bands = np.add.reduce(windows, axis=0, initial=0.0)
    bands[start:, :, :p] += np.where(in_lower, Q.reshape(-1)[lower], 0.0)[..., None]
    # The diagonal sums squares from 0.0, so it is never -0.0, and adding a zero ridge would change nothing.
    if lam:
        bands[:, :, 0] += lam
    # One output of the head block columns, the middle one repeated, and the tail.
    return np.repeat(bands.transpose(3, 0, 1, 2), repeats, axis=1).reshape(count, num_blocks * p, -1).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class BlockTridiagonalSPDMatrix:
    """The block-tridiagonal SPD state step shared by the VAR and NAR smoothers.

    Over ``num_blocks`` = m blocks of size b, diagonal block t is
    ``[t < m - 1] A^T A + [t > 0] I + Q`` and the coupling block below it
    is -A (its transpose above): the smoother of the stencil [-A, I], the
    residual x_(t+1) - A x_t, in :func:`smoother_bands`. Only A, Q and m are
    stored; the shapes and finiteness of A and Q are checked here, once.
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
    bands = smoother_bands(np.stack((-A, np.eye(b)))[None], Q, lead_blocks + 2)[0]
    lead = _banded_cholesky(bands[:, : (lead_blocks + 1) * b]).T.reshape(lead_blocks + 1, b, 2 * b)
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
    # The last block column holds only its diagonal block, laid out as smoother_bands lays out Q.
    _, _, lower, in_lower, _, _ = _band_layout(1, b, lead_blocks + 2)
    factor[-1, :, :b] = np.where(in_lower, last.reshape(-1)[lower], 0.0)
    factor[-1, :, b:] = 0.0
    return factor.reshape(-1, 2 * b).T


def solve_block_tridiagonal_spd(
    matrix: BlockTridiagonalSPDMatrix, rhs: np.ndarray, probe: SteadyProbe | None = None
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by banded Cholesky without pivoting.

    The bands (half-bandwidth 2b - 1) come from :func:`smoother_bands`. From
    4 * ``_LEAD_BLOCKS`` blocks on, only the leading blocks are factored;
    when their factor has reached its steady state (see
    :func:`_steady_factor`) it is tiled over the rest. Otherwise, and on
    shorter systems, the whole band matrix is factored. Either way LAPACK
    ``dpbtrs`` solves with the factor; a nonpositive pivot raises
    :class:`NotPositiveDefinite`. With a ``probe`` that is off, the leading
    blocks are not tried; a lead that fails to settle switches it off.
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
        factor = _banded_cholesky(smoother_bands(np.stack((-A, np.eye(len(A))))[None], Q, num_blocks)[0])
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
