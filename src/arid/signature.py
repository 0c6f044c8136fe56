"""Truncated path signatures of piecewise-linear paths.

A signature is stored as one flat graded vector: the empty-word coefficient
first, then all words of length 1, 2, ..., up to the truncation depth. Each
level is laid out in lexicographic word order over letters 1..k, which is
the row-major flattening of the level tensor. Keeping the constant empty
word makes the vector directly usable as a regression feature with a
built-in intercept.

The lift holds level m of a batch of B paths as a (k^m, B) array, the paths
on the contiguous axis, so each tensor operation covers the whole batch.
Level 0 is exactly 1: Chen's product adds b_m to 0.0 first and a_m last as
they stand, which rounds as their products with level 0 would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingTooShort, PathTooShort
from .numerics import _require_finite


def sig_dim(alphabet: int, depth: int) -> int:
    """Number of words of length <= depth over ``alphabet`` letters, empty word included."""
    if alphabet < 1 or depth < 0:
        raise ValueError("alphabet must be >= 1 and depth >= 0")
    return int(sum(alphabet ** m for m in range(depth + 1)))


@dataclass(frozen=True, eq=False)
class GeometricPath:
    """Sample points of a piecewise-linear path in R^k, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError("points must be a (m, k) array")
        if points.shape[0] < 2:
            raise PathTooShort("a path needs at least two points")
        _require_finite("points", points)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class SignatureVector:
    """Flat graded signature coefficients up to ``depth`` over ``alphabet`` letters."""

    depth: int
    alphabet: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=float)
        expected = sig_dim(self.alphabet, self.depth)
        if coeff.shape != (expected,):
            raise ValueError(f"coefficients must have length {expected}")
        _require_finite("coefficients", coeff)
        if coeff[0] != 1.0:
            raise ValueError("the empty-word coefficient must be 1")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    def level(self, m: int) -> np.ndarray:
        """Coefficients of all words of length m, in lexicographic order."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level must lie in [0, {self.depth}]")
        start = sig_dim(self.alphabet, m - 1) if m > 0 else 0
        return self.coefficients[start:start + self.alphabet ** m]


def _tensor_exp(delta: np.ndarray, depth: int) -> list[np.ndarray]:
    """Truncated tensor exponential of a batch of increments, level by level.

    ``delta`` is (k, B), one column per path; level m of the result is
    delta^(x m) / m! with shape (k^m, B), level 0 being a row of exact ones.
    """
    levels = [np.ones((1, delta.shape[1])), delta]
    for m in range(2, depth + 1):
        levels.append((levels[-1][:, None] * delta).reshape(-1, delta.shape[1]) / m)
    return levels


def _chen(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Truncated tensor product of two batched signatures given as (k^m, B) level lists.

    Level m adds a_i (x) b_(m-i) to 0.0 for i = 0..m in that order; its
    level-0 terms, b_m and a_m, need no product.
    """
    out = [a[0]]
    for m in range(1, len(a)):
        acc = b[m] + 0.0
        for i in range(1, m):
            acc += (a[i][:, None] * b[m - i]).reshape(acc.shape)
        acc += a[m]
        out.append(acc)
    return out


def _signatures_flat(increments: np.ndarray, depth: int) -> np.ndarray:
    """Signatures of a batch of paths from their (S, k, B) segment increments, as a C-contiguous (B, sig_dim) stack."""
    levels = _tensor_exp(increments[0], depth)
    for delta in increments[1:]:
        levels = _chen(levels, _tensor_exp(delta, depth))
    return np.ascontiguousarray(np.concatenate(levels).T)


def signature(path: GeometricPath, depth: int) -> SignatureVector:
    """Truncated signature of the piecewise-linear path through ``path.points``.

    Each segment contributes the tensor exponential of its increment; the
    segments are combined left to right with the truncated tensor product.
    This is exact for piecewise-linear paths (no quadrature) and therefore
    invariant to splitting a segment at a collinear intermediate point.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    flat = _signatures_flat(np.diff(path.points, axis=0)[:, :, None], depth)[0]
    return SignatureVector(depth, path.dim, flat)


def embed_to_path(values: np.ndarray) -> GeometricPath:
    """Two-column path for a window of trajectory values, oldest value first.

    Column 1 carries the values themselves, column 2 their running sum. The
    running sum breaks the translation invariance of the signature, so
    windows that differ by a constant offset stay distinguishable.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a flat vector")
    if values.size < 2:
        raise EmbeddingTooShort("need at least two values to build a path")
    _require_finite("values", values)
    return GeometricPath(np.column_stack((values, np.cumsum(values))))
