"""Alternating parameter/state estimation for noisy AR and VAR(1) series.

The estimators minimize a joint objective over the model coefficients and a
denoised trajectory: squared one-step dynamics residuals plus ``rho`` times
the squared deviation of the trajectory from the recorded measurements.
Both updates are exact minimizers of that objective in their own variables,
so with ``lam == 0`` the recorded loss sequence can never increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, NotPositiveDefinite, ZeroNormReference
from .model import ARParams, TimeSeries, delay_embed, scalar_values
from .numerics import (
    BandedSPDMatrix,
    BlockTridiagonalSPDMatrix,
    companion_eigenvalues,
    solve_banded_spd,
    solve_block_tridiagonal_spd,
    solve_regularized_ls,
)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the alternating fit.

    ``rho`` weighs measurement fidelity against dynamics fidelity; ``lam``
    adds a ridge to both the parameter and the state update. Iteration stops
    at ``max_iterations`` or once the monitored objective changes by less
    than ``convergence_tol`` in relative terms.
    """

    order_r: int
    rho: float
    lam: float = 0.0
    max_iterations: int = 100
    convergence_tol: float = 1e-10
    # The objective as written carries measurement terms only for t >= r,
    # leaving the first r-1 trajectory values pinned by dynamics alone. A
    # fitted decay mode can then park a huge artificial transient there and
    # the coefficient refit latches onto it. anchor_all_values=True extends
    # the measurement term over every sample, which is what makes long
    # alternation runs drift toward the true spectrum on oscillatory data.
    anchor_all_values: bool = False

    def __post_init__(self):
        if self.order_r < 1:
            raise ValueError("order_r must be >= 1")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the joint objective."""

    dynamics_term: float
    measurement_term: float
    total: float
    normalized: float


@dataclass(frozen=True, eq=False)
class SmootherSystem:
    """Assembled normal equations of one state update."""

    normal_matrix: BandedSPDMatrix | BlockTridiagonalSPDMatrix
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an alternating fit. Immutable; safe to share across threads.

    ``estimate_history`` holds the parameter estimate of every iteration
    (entry 0 is the classical regularized least-squares baseline), and
    ``loss_history`` the matching post-update losses.
    """

    theta_hat: object
    y_hat: TimeSeries
    loss_history: tuple[LossBreakdown, ...]
    iterations_run: int
    converged: bool
    min_eig_magnitude: float
    estimate_history: tuple


@dataclass(frozen=True, eq=False)
class ErrorMetrics:
    """Relative errors against known ground truth."""

    e_norm_theta: float
    e_theta_vector: np.ndarray
    e_x: float


def evaluate_loss(
    theta: ARParams,
    y_hat: TimeSeries,
    y: TimeSeries,
    rho: float,
    anchor_all: bool = False,
) -> LossBreakdown:
    """Joint dynamics/measurement loss of a candidate trajectory.

    Dynamics residuals run over every transition with a full delay window
    (t = r..N-1, one-based); measurement residuals cover t = r..N, or every
    sample with ``anchor_all``. The normalized figure divides the total by N.
    """
    yh = scalar_values(y_hat)
    yo = scalar_values(y)
    if yh.size != yo.size:
        raise ValueError("y_hat and y must have the same length")
    if not rho > 0:
        raise ValueError("rho must be positive")
    r = theta.order
    gamma, y_plus = delay_embed(y_hat, r)
    resid = y_plus - gamma @ theta.theta
    dynamics = float(resid @ resid)
    start = 0 if anchor_all else r - 1
    err = yo[start:] - yh[start:]
    measurement = float(err @ err)
    total = dynamics + rho * measurement
    return LossBreakdown(dynamics, measurement, total, total / yh.size)


def param_step(y_hat: TimeSeries, order_r: int, lam: float) -> ARParams:
    """Exact coefficient update at fixed states: a regularized LS regression."""
    gamma, y_plus = delay_embed(y_hat, order_r)
    return ARParams(solve_regularized_ls(gamma, y_plus, lam))


def assemble_ar_smoother(
    theta: ARParams,
    y: TimeSeries,
    rho: float,
    lam: float = 0.0,
    anchor_all: bool = False,
) -> SmootherSystem:
    """Normal equations of the loss in the N free trajectory values.

    Every dynamics residual touches r+1 consecutive values, so the system is
    banded with bandwidth r. Measurement terms add rho to the diagonal for
    t >= r, or everywhere with ``anchor_all``; without it the first r-1
    values are pinned only through the dynamics terms (and lam), exactly as
    the loss is written.
    """
    yo = scalar_values(y)
    r = theta.order
    n = yo.size
    if n <= r:
        raise HorizonTooShort(f"need more than order {r} steps, got {n}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    stencil = np.concatenate((-theta.theta[::-1], [1.0]))
    width = r + 1
    span = n - r
    bands = np.zeros((width, n))
    for a in range(width):
        for b in range(a, width):
            bands[b - a, a:a + span] += stencil[a] * stencil[b]
    start = 0 if anchor_all else r - 1
    bands[0, start:] += rho
    if lam > 0:
        bands[0, :] += lam
    rhs = np.zeros(n)
    rhs[start:] = rho * yo[start:]
    matrix = BandedSPDMatrix(n, r, bands)
    return SmootherSystem(matrix, rhs)


# Diagonal shifts, relative to the largest diagonal entry, tried in order when
# the smoother system is numerically singular. See _solve_smoother.
_RIDGE_BOOSTS = (1e-10, 1e-8, 1e-6)


def _shift_diagonal(matrix: BandedSPDMatrix | BlockTridiagonalSPDMatrix, boost: float):
    if isinstance(matrix, BandedSPDMatrix):
        bands = matrix.bands.copy()
        bands[0] += boost * max(1.0, float(bands[0].max()))
        return BandedSPDMatrix(matrix.dim, matrix.bandwidth, bands)
    diag = matrix.diagonal_blocks
    shift = boost * max(1.0, float(diag.max())) * np.eye(matrix.block_dim)
    return BlockTridiagonalSPDMatrix(diag + shift, matrix.off_diagonal_blocks)


def _solve_smoother(matrix: BandedSPDMatrix | BlockTridiagonalSPDMatrix, rhs: np.ndarray, solve) -> np.ndarray:
    """Solve with ``solve``, the caller's solver for the matrix type; every retry goes through it too."""
    try:
        return solve(matrix, rhs)
    except NotPositiveDefinite:
        pass
    # A trailing AR coefficient near zero leaves the leading trajectory values
    # nearly unconstrained, and the NAR measurement term pins only the
    # rank-one readout direction of each state block; either way the normal
    # matrix can be singular at working precision. A rounding-scale diagonal
    # shift selects the bounded minimizer instead of aborting the fit; the
    # induced loss perturbation sits orders of magnitude below the
    # convergence tolerances in use.
    for boost in _RIDGE_BOOSTS:
        try:
            return solve(_shift_diagonal(matrix, boost), rhs)
        except NotPositiveDefinite:
            continue
    raise NotPositiveDefinite("state smoother stayed indefinite after diagonal shifts")


def state_step(
    theta: ARParams,
    y: TimeSeries,
    rho: float,
    lam: float = 0.0,
    anchor_all: bool = False,
) -> TimeSeries:
    """Exact trajectory update at fixed coefficients via the banded smoother."""
    system = assemble_ar_smoother(theta, y, rho, lam, anchor_all)
    smoothed = _solve_smoother(system.normal_matrix, system.rhs, solve_banded_spd)
    return TimeSeries(smoothed, y.sample_rate_hz, y.channel_names)


def _zero_floor(values: np.ndarray) -> float:
    # Exactly recoverable data drives the loss to rounding level, where the
    # relative-change test is meaningless; declare convergence outright.
    return 1e-24 * max(1.0, float(np.sum(values * values)))


def _state_objective(loss: LossBreakdown, values: np.ndarray, lam: float) -> float:
    # What the state update actually minimizes: the loss plus its share of
    # the ridge (the coefficient ridge is constant within the step).
    if lam == 0.0:
        return loss.total
    flat = values.ravel()
    return loss.total + lam * float(flat @ flat)


def fit_ar(y: TimeSeries, config: FitConfig) -> FitResult:
    """Alternating estimation of AR(r) coefficients and a denoised trajectory.

    Starts from y_hat = y, so the first coefficient estimate coincides bit
    for bit with the classical regularized least-squares fit on the raw
    measurements. Each iteration refits the coefficients on the current
    trajectory, then re-smooths the trajectory against the raw measurements.
    """
    yo = scalar_values(y)
    floor = _zero_floor(yo)
    y_hat = y
    history: list[LossBreakdown] = []
    estimates: list[ARParams] = []
    monitor_prev = None
    converged = False
    anchor = config.anchor_all_values
    for _ in range(config.max_iterations):
        theta = param_step(y_hat, config.order_r, config.lam)
        candidate = state_step(theta, y, config.rho, config.lam, anchor)
        loss = evaluate_loss(theta, candidate, y, config.rho, anchor)
        held = evaluate_loss(theta, y_hat, y, config.rho, anchor)
        if _state_objective(loss, scalar_values(candidate), config.lam) > _state_objective(
            held, scalar_values(y_hat), config.lam
        ):
            # The exact state update cannot raise its own objective, but a
            # smoother system that is singular at working precision (marginal
            # roots, loose anchoring, tiny rho) can come back with a solution
            # inaccurate enough to do so. Holding the previous trajectory
            # keeps every accepted step a descent step.
            candidate, loss = y_hat, held
        y_hat = candidate
        history.append(loss)
        estimates.append(theta)
        monitor = loss.total
        if config.lam > 0:
            yh = scalar_values(y_hat)
            monitor += config.lam * float(theta.theta @ theta.theta + yh @ yh)
        if monitor <= floor:
            converged = True
            break
        if monitor_prev is not None and abs(monitor_prev - monitor) <= config.convergence_tol * monitor_prev:
            converged = True
            break
        monitor_prev = monitor

    theta = estimates[-1]
    min_eig = float(np.min(np.abs(companion_eigenvalues(theta.theta))))
    return FitResult(theta, y_hat, tuple(history), len(history), converged, min_eig, tuple(estimates))


def _var_loss(A: np.ndarray, x_hat: np.ndarray, x: np.ndarray, rho: float) -> LossBreakdown:
    resid = x_hat[1:] - x_hat[:-1] @ A.T
    dynamics = float(np.sum(resid * resid))
    err = x - x_hat
    measurement = float(np.sum(err * err))
    total = dynamics + rho * measurement
    return LossBreakdown(dynamics, measurement, total, total / x.shape[0])


def assemble_var_smoother(A: np.ndarray, x: np.ndarray, rho: float, lam: float = 0.0) -> SmootherSystem:
    """Block-tridiagonal normal equations of the VAR(1) state update.

    With the identity readout every state is measured, so each diagonal
    block picks up rho directly; the coupling blocks are -A.
    """
    n, p = x.shape
    eye = np.eye(p)
    ata = A.T @ A
    diag = np.empty((n, p, p))
    diag[:] = (rho + lam) * eye
    diag[1:] += eye
    diag[:-1] += ata
    off = np.tile(-A, (n - 1, 1, 1))
    matrix = BlockTridiagonalSPDMatrix(diag, off)
    rhs = (rho * x).reshape(-1)
    return SmootherSystem(matrix, rhs)


def fit_var1(y: TimeSeries, config: FitConfig) -> FitResult:
    """First-order VAR variant of the alternating fit with a full transition matrix.

    The readout is the identity, so the smoothing step couples the p
    channels through a block-tridiagonal system; with p == 1 the whole
    procedure reduces to ``fit_ar`` at order 1.
    """
    if config.order_r != 1:
        raise ValueError("the VAR fit is first-order; set order_r = 1")
    x = y.values
    if x.shape[0] < 2:
        raise HorizonTooShort("need at least two steps")
    floor = _zero_floor(x)
    x_hat = x
    history: list[LossBreakdown] = []
    estimates: list[np.ndarray] = []
    monitor_prev = None
    converged = False
    for _ in range(config.max_iterations):
        A = solve_regularized_ls(x_hat[:-1], x_hat[1:], config.lam).T
        system = assemble_var_smoother(A, x, config.rho, config.lam)
        candidate = solve_block_tridiagonal_spd(system.normal_matrix, system.rhs).reshape(x.shape)
        loss = _var_loss(A, candidate, x, config.rho)
        held = _var_loss(A, x_hat, x, config.rho)
        # Same descent guard as the scalar fit; see fit_ar.
        if _state_objective(loss, candidate, config.lam) > _state_objective(held, x_hat, config.lam):
            candidate, loss = x_hat, held
        x_hat = candidate
        history.append(loss)
        estimates.append(A)
        monitor = loss.total
        if config.lam > 0:
            monitor += config.lam * float(np.sum(A * A) + np.sum(x_hat * x_hat))
        if monitor <= floor:
            converged = True
            break
        if monitor_prev is not None and abs(monitor_prev - monitor) <= config.convergence_tol * monitor_prev:
            converged = True
            break
        monitor_prev = monitor

    A = estimates[-1]
    min_eig = float(np.min(np.abs(np.linalg.eigvals(A))))
    y_hat = TimeSeries(x_hat, y.sample_rate_hz, y.channel_names)
    return FitResult(A, y_hat, tuple(history), len(history), converged, min_eig, tuple(estimates))


def _as_vector(params) -> np.ndarray:
    if isinstance(params, ARParams):
        return params.theta
    return np.asarray(params, dtype=float).ravel()


def _as_trajectory(y) -> np.ndarray:
    if isinstance(y, TimeSeries):
        return y.values.ravel()
    return np.asarray(y, dtype=float).ravel()


def error_metrics(theta_hat, theta_true, y_hat, x_true) -> ErrorMetrics:
    """Relative coefficient and trajectory errors against ground truth.

    ``e_norm_theta`` and ``e_theta_vector`` are normalized by the true
    coefficient norm, ``e_x`` by the norm of the true noiseless trajectory.
    """
    th = _as_vector(theta_hat)
    tt = _as_vector(theta_true)
    if th.shape != tt.shape:
        raise ValueError("coefficient vectors must have matching shapes")
    t_norm = float(np.linalg.norm(tt))
    if t_norm == 0.0:
        raise ZeroNormReference("true coefficient vector has zero norm")
    yh = _as_trajectory(y_hat)
    xt = _as_trajectory(x_true)
    if yh.shape != xt.shape:
        raise ValueError("trajectories must have matching shapes")
    x_norm = float(np.linalg.norm(xt))
    if x_norm == 0.0:
        raise ZeroNormReference("true trajectory has zero norm")
    return ErrorMetrics(
        float(np.linalg.norm(th - tt)) / t_norm,
        (th - tt) / t_norm,
        float(np.linalg.norm(yh - xt)) / x_norm,
    )
