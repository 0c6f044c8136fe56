"""Nonlinear AR estimation through signature features.

Windows of the trajectory are lifted to truncated signatures of a
two-column path (values and their running sum); dynamics and readout are
then linear in signature space, and the same alternating parameter/state
scheme as in the linear case applies, with the VAR fit's block smoother
(``numerics.solve_block_smoother``) as the smoothing step over
unconstrained signature states. Smoothed states are not projected
back onto the manifold of true signatures; only their readout re-enters the
next iteration through the refreshed trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingTooShort, HorizonTooShort
from .linear import FitResult, LossBreakdown, SmootherSystem, _solve_block_smoother
from .model import TimeSeries, scalar_values
from .numerics import (
    BlockTridiagonalSPDMatrix,
    solve_block_tridiagonal_spd,  # noqa: F401  (perfbench/tracing.py wraps this binding by name)
    solve_regularized_ls,
)
from .signature import _signatures_flat, sig_dim

_ALPHABET = 2  # fixed by the two-column path construction


@dataclass(frozen=True)
class NARFitConfig:
    """Knobs of the signature-space alternating fit.

    ``lam`` should be strictly positive in practice: the constant empty-word
    feature correlates the signature columns, and the ridge keeps the
    parameter regressions well posed.
    """

    order_r: int
    depth_d: int = 2
    rho: float = 0.1
    lam: float = 1e-3
    max_iterations: int = 20
    state_change_tol: float = 1e-8

    def __post_init__(self):
        if self.order_r < 2:
            raise ValueError("order_r must be >= 2 (a window needs two values)")
        if self.depth_d < 1:
            raise ValueError("depth_d must be >= 1")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.state_change_tol > 0:
            raise ValueError("state_change_tol must be positive")


@dataclass(frozen=True, eq=False)
class NARModel:
    """Linear dynamics and readout in signature space."""

    A_sig: np.ndarray
    C_sig: np.ndarray

    def __post_init__(self):
        A = np.array(self.A_sig, dtype=float)
        C = np.array(self.C_sig, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A_sig must be square")
        if C.shape != (A.shape[0],):
            raise ValueError("C_sig must have one entry per signature coefficient")
        A.setflags(write=False)
        C.setflags(write=False)
        object.__setattr__(self, "A_sig", A)
        object.__setattr__(self, "C_sig", C)

    @property
    def n_s(self) -> int:
        return self.A_sig.shape[0]


def _window_signatures(values: np.ndarray, order_r: int, depth_d: int) -> np.ndarray:
    """Signatures of all full windows, one row per window end t = r..N."""
    windows = np.lib.stride_tricks.sliding_window_view(values, order_r)
    paths = np.stack((windows, np.cumsum(windows, axis=1)), axis=2)
    return _signatures_flat(paths, depth_d)


def build_sig_matrices(y_hat: TimeSeries, order_r: int, depth_d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked signature features of consecutive windows of a scalar series.

    Returns ``(gamma_minus, gamma_plus, y_plus)``: row j of ``gamma_minus``
    is the signature of the window ending at t = r + j (one-based), and
    ``gamma_plus`` is the same stack shifted one step forward, so matching
    rows are consecutive states. ``y_plus`` holds the values aligned with
    the rows of ``gamma_plus``.
    """
    if order_r < 2:
        raise EmbeddingTooShort("order_r must be >= 2")
    if depth_d < 1:
        raise ValueError("depth_d must be >= 1")
    yh = scalar_values(y_hat)
    if yh.size <= order_r:
        raise HorizonTooShort(f"need more than order_r = {order_r} steps, got {yh.size}")
    sigs = _window_signatures(yh, order_r, depth_d)
    return sigs[:-1], sigs[1:], yh[order_r:].copy()


def nar_param_step(gamma_minus: np.ndarray, gamma_plus: np.ndarray, y_plus: np.ndarray, lam: float) -> NARModel:
    """Ridge refits of the signature dynamics and the measurement readout."""
    w = solve_regularized_ls(gamma_minus, gamma_plus, lam)
    c = solve_regularized_ls(gamma_plus, y_plus, lam)
    return NARModel(w.T, c)


def _smoother_terms(model: NARModel, y: TimeSeries, order_r: int, rho: float, lam: float):
    """Per-block measurement term Q and right-hand side of the state step, one block per t = r..N."""
    yo = scalar_values(y)
    if yo.size <= order_r:
        raise HorizonTooShort(f"need more than order_r = {order_r} steps, got {yo.size}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Q = rho * np.outer(model.C_sig, model.C_sig) + lam * np.eye(model.n_s)
    rhs = (rho * yo[order_r - 1:, None] * model.C_sig[None, :]).reshape(-1)
    return Q, rhs


def assemble_nar_smoother(model: NARModel, y: TimeSeries, order_r: int, rho: float, lam: float = 0.0) -> SmootherSystem:
    """Block-tridiagonal normal equations over the free signature states.

    One block per time step t = r..N. The readout is rank one, so the
    measurement contributes ``rho * outer(C, C)`` per diagonal block; the
    coupling blocks are -A. :func:`nar_state_step` solves the same system
    without assembling it, by ``numerics.solve_block_smoother``; this
    explicit form is the reference that solver is tested against.
    """
    Q, rhs = _smoother_terms(model, y, order_r, rho, lam)
    m_blocks, ns = rhs.size // model.n_s, model.n_s
    eye = np.eye(ns)
    diag = np.empty((m_blocks, ns, ns))
    diag[:] = Q
    diag[1:] += eye
    diag[:-1] += model.A_sig.T @ model.A_sig
    off = np.tile(-model.A_sig, (m_blocks - 1, 1, 1))
    matrix = BlockTridiagonalSPDMatrix(diag, off)
    return SmootherSystem(matrix, rhs)


def nar_state_step(
    model: NARModel,
    y: TimeSeries,
    order_r: int,
    rho: float,
    lam: float,
    y_prev: TimeSeries,
) -> tuple[np.ndarray, TimeSeries]:
    """Smooth the signature states against the measurements at a fixed model.

    Returns the stacked smoothed states (one row per t = r..N) and the
    refreshed trajectory estimate. Values before t = r have no state of
    their own and are carried over from ``y_prev``.
    """
    prev = scalar_values(y_prev)
    yo = scalar_values(y)
    if prev.size != yo.size:
        raise ValueError("y_prev must have the same length as y")
    Q, rhs = _smoother_terms(model, y, order_r, rho, lam)
    states = _solve_block_smoother(model.A_sig, Q, rhs).reshape(-1, model.n_s)
    refreshed = np.concatenate((prev[: order_r - 1], states @ model.C_sig))
    return states, TimeSeries(refreshed, y.sample_rate_hz, y.channel_names)


def _nar_loss(model: NARModel, states: np.ndarray, yo: np.ndarray, order_r: int, rho: float) -> LossBreakdown:
    resid = states[1:] - states[:-1] @ model.A_sig.T
    dynamics = float(np.sum(resid * resid))
    err = yo[order_r - 1:] - states @ model.C_sig
    measurement = float(err @ err)
    total = dynamics + rho * measurement
    return LossBreakdown(dynamics, measurement, total, total / yo.size)


def fit_nar(y: TimeSeries, config: NARFitConfig) -> FitResult:
    """Alternating signature-space estimation on a scalar series.

    The signature features are recomputed from the current denoised
    trajectory at the top of every iteration, so the loop is a fixed-point
    iteration rather than a joint descent: the recorded losses are
    diagnostics, not a certified monotone sequence. Runs the full iteration
    budget unless the trajectory stalls (relative change below
    ``state_change_tol``).
    """
    yo = scalar_values(y)
    y_hat = y
    history: list[LossBreakdown] = []
    models: list[NARModel] = []
    converged = False
    for _ in range(config.max_iterations):
        gamma_minus, gamma_plus, y_plus = build_sig_matrices(y_hat, config.order_r, config.depth_d)
        model = nar_param_step(gamma_minus, gamma_plus, y_plus, config.lam)
        states, y_new = nar_state_step(model, y, config.order_r, config.rho, config.lam, y_hat)
        history.append(_nar_loss(model, states, yo, config.order_r, config.rho))
        models.append(model)
        prev_vals = scalar_values(y_hat)
        delta = float(np.linalg.norm(scalar_values(y_new) - prev_vals))
        y_hat = y_new
        if delta <= config.state_change_tol * max(float(np.linalg.norm(prev_vals)), 1e-300):
            converged = True
            break

    model = models[-1]
    min_eig = float(np.min(np.abs(np.linalg.eigvals(model.A_sig))))
    return FitResult(model, y_hat, tuple(history), len(history), converged, min_eig, tuple(models))


def nar_predict_one_step(model: NARModel, y_context: TimeSeries, order_r: int, depth_d: int) -> np.ndarray:
    """One-step predictions from raw context windows.

    Entry j forecasts the value following the window ending at index
    order_r + j (one-based); the final entry extends one step past the end
    of the context. The context is used as recorded, without smoothing.
    """
    if order_r < 2:
        raise EmbeddingTooShort("order_r must be >= 2")
    yc = scalar_values(y_context)
    if yc.size < order_r:
        raise HorizonTooShort(f"need at least order_r = {order_r} steps, got {yc.size}")
    expected = sig_dim(_ALPHABET, depth_d)
    if model.n_s != expected:
        raise ValueError(f"model expects signature dimension {model.n_s}, depth_d {depth_d} gives {expected}")
    sigs = _window_signatures(yc, order_r, depth_d)
    return sigs @ (model.A_sig.T @ model.C_sig)
