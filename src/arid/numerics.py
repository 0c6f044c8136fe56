"""Structured linear algebra kernels used by the estimators.

Regularized least squares, the trajectory smoother solve, and
companion-matrix spectra by LAPACK's nonsymmetric eigensolver. The smoother
of every family is one value, :class:`Smoother`: a stack of stencils
[-A_r ... -A_1, I] with a measurement block Q, AR(r) with 1 x 1 blocks, VAR
and NAR with [-A, I]. One band builder lays it out, and one solve picks its
path from the shape: LAPACK's tridiagonal ``dptsv``; on one long block
system, a Cholesky factor of the leading blocks only, a lead that doubles
until its block columns settle, and one tile of the settled column, in upper
band storage, reused to the end; otherwise the whole band factor, in lower
band storage. All routines are pure functions of their inputs, apart from
the :class:`SteadyProbe` through which a fit's solves pass on their lead.

The five LAPACK and BLAS routines (``dpbtrf``, ``dptsv``, ``dpotrs``,
``dtbsv``, ``dgemv``) come from SciPy's compiled f2py modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, loaded from their
files. Importing ``scipy.linalg.lapack`` or ``scipy.linalg.blas`` would run
``scipy.linalg``'s package init, which clones the NumPy namespace and with it
imports ``numpy.f2py``, ``numpy.testing`` and more: over half of every
command's start-up, for nothing ``arid`` calls. The wrappers are the very
objects those public modules re-export; where the files are missing, they
come from the public modules instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
import scipy

from .errors import NoConvergence, NonFinite, NotPositiveDefinite, SingularSystem


def _compiled_module(name: str, public: str):
    """SciPy's compiled module ``scipy.linalg.<name>``, loaded from its file.

    Loading the extension alone skips ``scipy.linalg``'s package init.
    CPython keeps one copy of a single-phase extension, so its wrappers are
    the objects that ``scipy.linalg`` later re-exports, whichever is imported
    first. If no file matches, the public module ``public`` is imported.
    """
    directory = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.linalg.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(public)


_lapack = _compiled_module("_flapack", "scipy.linalg.lapack")
_blas = _compiled_module("_fblas", "scipy.linalg.blas")
dpbtrf, dptsv, _potrs = _lapack.dpbtrf, _lapack.dptsv, _lapack.dpotrs
dgemv, dtbsv = _blas.dgemv, _blas.dtbsv


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
    Targets of one column, vector or matrix, on two or more regressors take
    X^T X and X^T y as two products. Wider targets, and one regressor, whose
    two products would be BLAS dot products that OpenBLAS splits over its
    threads past 10 000 rows, take their moments from one Gram of the design
    and the targets side by side, so the solution does not depend on the
    number of BLAS threads.
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
        targets = targets[..., None]
    if targets.shape[2] == 1 and n > 1:
        design_t = np.swapaxes(design, 1, 2)
        gram, moments = design_t @ design, design_t @ targets
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
    Row k is subdiagonal k, LAPACK's lower band storage; only the lower
    triangle is built. Each system is column-major, with zeros past its
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
class Smoother:
    """A stack of B trajectory smoothers, the normal matrices that :func:`smoother_bands` lays out.

    ``stencils`` is the (B, r + 1, p, p) stack [-A_r ... -A_1, I] of the
    systems, ``Q`` the p x p measurement block they share on every block from
    ``start`` (at most r) on, and ``lam`` the ridge on their diagonal; each
    system has ``num_blocks`` blocks, at least r. Shapes and finiteness are
    checked here, once. ``dim``, ``bandwidth``, ``num_blocks`` and
    ``block_dim`` describe the B systems placed end to end.
    """

    stencils: np.ndarray
    Q: np.ndarray
    num_blocks: int
    start: int = 0
    lam: float = 0.0

    def __post_init__(self):
        stencils = np.asarray(self.stencils, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        p = Q.shape[0] if Q.ndim == 2 else 0
        if p < 1 or Q.shape != (p, p) or stencils.ndim != 4 or stencils.shape[2:] != (p, p) or 0 in stencils.shape:
            raise ValueError("stencils must be a nonempty (B, r + 1, p, p) stack and Q one p x p block")
        r = stencils.shape[1] - 1
        if self.num_blocks < max(r, 1) or not 0 <= self.start <= r:
            raise ValueError(f"need at least max(r, 1) blocks and 0 <= start <= r, r = {r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        _require_finite("stencils", stencils)
        _require_finite("Q", Q)
        object.__setattr__(self, "stencils", stencils)
        object.__setattr__(self, "Q", Q)

    @property
    def block_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def dim(self) -> int:
        return len(self.stencils) * self.num_blocks * self.block_dim

    @property
    def bandwidth(self) -> int:
        return min(self.stencils.shape[1], self.num_blocks) * self.block_dim - 1


# Block columns of the first lead that the steady path factors; shorter systems
# than 4 * _LEAD_BLOCKS blocks are factored whole. See solve_smoother.
_LEAD_BLOCKS = 16
# Rows of the steady block column that one tile of a settled factor holds.
_TILE_ROWS = 2048
# Largest difference, in units of rounding of the block column's largest
# entry, at which two consecutive block columns of the factor count as equal.
_STEADY_ULPS = 4


class SteadyProbe:
    """The lead that :func:`solve_smoother` tries first on a run of related systems.

    One fit hands the same probe to each of its state steps. ``lead`` starts
    at ``_LEAD_BLOCKS`` block columns and becomes the length at which the last
    lead settled, so the fit's later steps start there. Once a solve has
    doubled its lead up to a quarter of the system without settling,
    ``lead`` is None: the probe is off, and the later systems are factored
    whole straight away, which is what they would have been anyway.
    """

    def __init__(self):
        self.lead = _LEAD_BLOCKS


def _banded_cholesky(bands: np.ndarray) -> np.ndarray:
    """LAPACK lower band Cholesky factor of ``bands``, computed in place."""
    factor, info = dpbtrf(bands, lower=1, overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite("banded Cholesky of the smoother hit a nonpositive pivot")
    return factor


def _steady_factor(smoother: Smoother, lead_blocks: int = _LEAD_BLOCKS) -> tuple | None:
    """Band segments of the Cholesky factor of a one-system smoother [-A, I], from a factor of its leading blocks.

    Away from the ends every block of the smoother is the same, so its
    Cholesky pivots follow a Riccati recursion to the steady-state smoother
    gain. Once block column K - 1 of the factor of the leading K + 2 blocks
    equals column K - 2 to rounding, it is the factor's block column up to
    the last block, whose column is the lead's last. K starts at
    ``lead_blocks`` and doubles while the lead has not settled and 4K is at
    most the number of blocks. Returns the segments, each with its LAPACK
    ``lower`` flag (the first K block columns and the last block in lower
    band storage; between them a tile of ``_TILE_ROWS`` rows of the steady
    column, reused and cut short, in upper band storage, as the transposed
    factor), the steady coupling block W below each seam, and K; or None
    when no lead has settled.
    """
    b, num_blocks = smoother.block_dim, smoother.num_blocks
    while True:
        # The leading K + 1 block columns are the same in every longer system.
        lead = _banded_cholesky(
            smoother_bands(smoother.stencils, smoother.Q, lead_blocks + 2, smoother.start, smoother.lam)[0])
        columns = lead.T.reshape(lead_blocks + 2, b, 2 * b)
        steady = columns[lead_blocks - 1]
        if np.abs(steady - columns[lead_blocks - 2]).max() <= _STEADY_ULPS * np.finfo(float).eps * np.abs(steady).max():
            break
        if 8 * lead_blocks > num_blocks:
            return None
        lead_blocks *= 2
    c, m = np.arange(b), np.arange(2 * b)
    coupling = np.asfortranarray(steady[c, b - c + c[:, None]])
    # Upper band row 2b - 1 - m of column c is subdiagonal m of the factor's
    # column c - m, which a tile that starts on a block holds at (c - m) mod b.
    period = steady[(c[:, None] - m) % b, m][:, ::-1]
    rows = (num_blocks - 1 - lead_blocks) * b
    tile = np.broadcast_to(period, (min(rows, max(b, _TILE_ROWS)) // b, b, 2 * b)).reshape(-1, 2 * b).T
    full, rest = divmod(rows, tile.shape[1])
    tiles = [(tile, 0)] * full + [(tile[:, :rest], 0)] * (rest > 0)
    return [(lead[:, : lead_blocks * b], 1), *tiles, (lead[:, -b:], 1)], coupling, lead_blocks


def solve_smoother(smoother: Smoother, rhs: np.ndarray, probe: SteadyProbe | None = None) -> np.ndarray:
    """Solve the B systems of ``smoother`` for the (B, num_blocks * p) ``rhs``, one row each, by banded Cholesky.

    The bands come from :func:`smoother_bands`, the B systems placed end to
    end, and the path from the shape alone. At half-bandwidth 1 LAPACK
    ``dptsv`` solves them. One system of two stencils with p >= 2 and at
    least four times the probe's lead in blocks (``_LEAD_BLOCKS`` without a
    probe) factors only its leading blocks, a lead that doubles from there
    until it settles; then it stands for the whole factor in the segments of
    :func:`_steady_factor`. Otherwise
    LAPACK ``dpbtrf`` factors the bands whole, one segment in lower band
    storage. BLAS ``dtbsv`` sweeps each segment in place, forward then
    backward, in the segment's own storage (a tile in upper storage sweeps
    forward transposed), with a ``dgemv`` across each seam; on one segment
    this is LAPACK ``dpbtrs``, and with the factor, ``dpbsv``. A nonpositive
    pivot raises :class:`NotPositiveDefinite`. With a ``probe`` that is off,
    no lead is tried; a settled lead sets its length, and a solve whose leads
    never settle switches it off.
    """
    rhs = np.asarray(rhs, dtype=float)
    count, width, b = smoother.stencils.shape[:3]
    if rhs.shape != (count, smoother.num_blocks * b):
        raise ValueError("rhs must hold one row of num_blocks * block_dim values per system")
    _require_finite("rhs", rhs)
    lead = _LEAD_BLOCKS if probe is None else probe.lead
    steady = count == 1 and width == 2 and b >= 2 and lead is not None and smoother.num_blocks >= 4 * lead
    factor = _steady_factor(smoother, lead) if steady else None
    if steady and probe is not None:
        probe.lead = factor[2] if factor else None
    if factor is None:
        bands = smoother_bands(smoother.stencils, smoother.Q, smoother.num_blocks, smoother.start, smoother.lam)
        # Each system is column-major, so end to end they are one column-major band array, a view.
        bands = bands.transpose(1, 0, 2).reshape(bands.shape[1], -1)
        if len(bands) == 2:
            _, _, x, info = dptsv(bands[0], bands[1, :-1], rhs.reshape(-1))
            if info > 0:
                raise NotPositiveDefinite("tridiagonal Cholesky of the smoother hit a nonpositive pivot")
            return x.reshape(rhs.shape)
        factor = [(_banded_cholesky(bands), 1)], None, None
    (segments, coupling, _), x = factor, rhs.reshape(-1).copy()
    starts = [0, *accumulate(segment.shape[1] for segment, _ in segments[:-1])]
    for (segment, lower), start in zip(segments, starts):
        if start:
            dgemv(-1.0, coupling, x[start - b : start], 1.0, x, offy=start, overwrite_y=1)
        dtbsv(len(segment) - 1, segment, x, offx=start, lower=lower, trans=1 - lower, overwrite_x=1)
    for (segment, lower), start in zip(segments[::-1], starts[::-1]):
        dtbsv(len(segment) - 1, segment, x, offx=start, lower=lower, trans=lower, overwrite_x=1)
        if start:
            dgemv(-1.0, coupling, x[start : start + b], 1.0, x, offy=start - b, trans=1, overwrite_y=1)
    return x.reshape(rhs.shape)


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
