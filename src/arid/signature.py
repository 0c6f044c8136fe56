"""Truncated path signatures of piecewise-linear paths, lifted in batches.

The one lift is :func:`_signatures_flat`, which NAR runs on its windows
(``nar._window_signatures`` builds their two-column paths). Each segment
contributes the tensor exponential of its increment, and the segments are
combined left to right with Chen's truncated tensor product. This is exact
for piecewise-linear paths (no quadrature), so splitting a segment at a
collinear point leaves the signature unchanged.

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

import numpy as np


def sig_dim(alphabet: int, depth: int) -> int:
    """Number of words of length <= depth over ``alphabet`` letters, empty word included."""
    if alphabet < 1 or depth < 0:
        raise ValueError("alphabet must be >= 1 and depth >= 0")
    return int(sum(alphabet ** m for m in range(depth + 1)))


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
