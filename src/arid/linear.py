"""Alternating parameter/state estimation for noisy AR and VAR(1) series.

The estimators minimize a joint objective over the model coefficients and a
denoised trajectory: squared one-step dynamics residuals plus ``rho`` times
the squared deviation of the trajectory from the recorded measurements.
Both updates are exact minimizers of that objective in their own variables,
so with ``lam == 0`` the recorded loss sequence can never increase. The AR
state update is a banded Cholesky solve; the VAR one is the block smoother
of ``numerics.solve_block_smoother``, which the NAR fit shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, NotPositiveDefinite, ZeroNormReference
from .model import ARParams, TimeSeries, delay_embed, delay_windows, scalar_values
from .numerics import (
    BandedSPDMatrix,
    BlockTridiagonalSPDMatrix,
    _require_finite,
    block_smoother_diagonals,
    companion_eigenvalues,
    solve_banded_spd,
    solve_block_smoother,
    solve_block_tridiagonal_spd,  # noqa: F401  (perfbench/tracing.py wraps this binding by name)
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
    """Outcome of an alternating fit. Immutable.

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


def _dynamics_term(thetas: np.ndarray, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Summed squared one-step residuals of each member of a stack of delay embeddings."""
    resid = targets - (windows @ thetas[:, :, None])[:, :, 0]
    return np.vecdot(resid, resid)


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
    dynamics = float(_dynamics_term(theta.theta[None], gamma[None], y_plus[None])[0])
    start = 0 if anchor_all else r - 1
    err = yo[start:] - yh[start:]
    measurement = float(np.vecdot(err, err))
    total = dynamics + rho * measurement
    return LossBreakdown(dynamics, measurement, total, total / yh.size)


def param_step(y_hat: TimeSeries, order_r: int, lam: float) -> ARParams:
    """Exact coefficient update at fixed states: a regularized LS regression."""
    gamma, y_plus = delay_embed(y_hat, order_r)
    return ARParams(solve_regularized_ls(gamma, y_plus, lam))


def _assemble_bands(thetas: np.ndarray, yo: np.ndarray, rho: float, lam: float, start: int):
    """Lower bands (B, r + 1, N) and right-hand sides (B, N) of a stack of AR smoothers."""
    (count, r), n = thetas.shape, yo.shape[1]
    stencils = np.concatenate((-thetas[:, ::-1], np.ones((count, 1))), axis=1)
    width = r + 1
    # Entry (k, j) sums stencil[a] * stencil[a + k] over increasing a, for
    # the a whose residual window holds j. Away from both ends every window
    # does, so the bands are built for a series of at most 2r + 1 values and
    # their middle column repeated. Entry (k, j) stays zero once j + k passes
    # N - 1, so systems placed end to end do not couple.
    short = min(n, 2 * r + 1)
    bands = np.zeros((count, width, short))
    for a in range(width):
        bands[:, : width - a, a : a + short - r] += (stencils[:, a, None] * stencils[:, a:])[:, :, None]
    bands[:, 0, start:] += rho
    bands[:, 0, :] += lam
    if short < n:
        columns = np.arange(n)
        bands = bands[:, :, np.where(columns < r, columns, np.maximum(r, columns - (n - short)))]
    rhs = np.zeros((count, n))
    rhs[:, start:] = rho * yo[:, start:]
    return bands, rhs


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
    start = 0 if anchor_all else r - 1
    bands, rhs = _assemble_bands(theta.theta[None], yo[None], rho, lam, start)
    return SmootherSystem(BandedSPDMatrix(n, r, bands[0]), rhs[0])


# Diagonal shifts, relative to the largest diagonal entry, tried in order when
# the smoother system is numerically singular. See _solve_smoother.
_RIDGE_BOOSTS = (1e-10, 1e-8, 1e-6)


def _shift_diagonal(matrix, boost: float):
    """``matrix`` with its diagonal raised by ``boost`` times its largest diagonal-block entry (at least 1).

    ``matrix`` is a :class:`BandedSPDMatrix`, a :class:`BlockTridiagonalSPDMatrix`,
    or a block smoother ``(A, Q, num_blocks)`` of :func:`solve_block_smoother`,
    whose shift goes into Q.
    """
    if isinstance(matrix, BandedSPDMatrix):
        bands = matrix.bands.copy()
        bands[0] += boost * max(1.0, float(bands[0].max()))
        return BandedSPDMatrix(matrix.dim, matrix.bandwidth, bands)
    if isinstance(matrix, BlockTridiagonalSPDMatrix):
        diag = matrix.diagonal_blocks
        shift = boost * max(1.0, float(diag.max())) * np.eye(matrix.block_dim)
        return BlockTridiagonalSPDMatrix(diag + shift, matrix.off_diagonal_blocks)
    A, Q, num_blocks = matrix
    shift = boost * max(1.0, float(block_smoother_diagonals(A, Q, num_blocks).max())) * np.eye(len(Q))
    return A, Q + shift, num_blocks


def _solve_smoother(matrix, rhs: np.ndarray, solve) -> np.ndarray:
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


def _solve_block_smoother(A: np.ndarray, Q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`solve_block_smoother` through the diagonal-shift ladder; the shifts go into Q."""
    return _solve_smoother((A, Q, rhs.size // len(Q)), rhs, lambda system, v: solve_block_smoother(*system[:2], v))


def _solve_stacked(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve B banded smoothers (B, k + 1, N) as one system of dim B * N."""
    count, width, n = bands.shape
    stacked = BandedSPDMatrix(count * n, width - 1, bands.transpose(1, 0, 2).reshape(width, count * n))
    try:
        return solve_banded_spd(stacked, rhs.reshape(-1)).reshape(count, n)
    except NotPositiveDefinite:
        # The shift ladder scales by the largest diagonal entry, which in a
        # stack belongs to any of its systems; a singular system therefore
        # has to be shifted alone to get the answer it gets outside a batch.
        alone = [BandedSPDMatrix(n, width - 1, system) for system in bands]
        return np.stack([_solve_smoother(matrix, v, solve_banded_spd) for matrix, v in zip(alone, rhs)])


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


def fit_ar(y: TimeSeries, config: FitConfig) -> FitResult:
    """Alternating estimation of AR(r) coefficients and a denoised trajectory.

    Starts from y_hat = y, so the first coefficient estimate coincides bit
    for bit with the classical regularized least-squares fit on the raw
    measurements. Each iteration refits the coefficients on the current
    trajectory, then re-smooths the trajectory against the raw measurements.
    """
    return fit_ar_batch((y,), config)[0]


def fit_ar_batch(ys, config: FitConfig) -> tuple[FitResult, ...]:
    """:func:`fit_ar` of several equally long series, run in lockstep.

    Each iteration refits every active series in one batched factorization
    and smooths them all in one banded solve, their systems placed end to
    end. Every other step acts on each series alone, and each series stops
    by its own rule and then leaves the batch, so result i equals
    ``fit_ar(ys[i], config)`` bit for bit.
    """
    ys = tuple(ys)
    if not ys or len({y.n_steps for y in ys}) != 1:
        raise ValueError("need one or more series of equal length")
    yo = np.stack([scalar_values(y) for y in ys])
    count, n = yo.shape
    r, rho, lam = config.order_r, config.rho, config.lam
    if n <= r:
        raise HorizonTooShort(f"need more than order {r} steps, got {n}")
    start = 0 if config.anchor_all_values else r - 1
    floor = np.array([_zero_floor(row) for row in yo])
    history, estimates = [[] for _ in ys], [[] for _ in ys]
    y_final, converged = np.empty_like(yo), np.zeros(count, dtype=bool)
    # Starting from y_hat = y, the held trajectory's measurement term is 0.
    active, y_hat, measurement, monitor_prev = np.arange(count), yo, np.zeros(count), None
    for iteration in range(config.max_iterations):
        windows, targets = delay_windows(y_hat, r)
        thetas = solve_regularized_ls(windows, targets, lam)
        # The guard's held loss pairs the new coefficients with the old
        # trajectory: its dynamics term is the refit's own residual and its
        # measurement term the previous iteration's.
        held_dynamics = _dynamics_term(thetas, windows, targets)
        held_total = held_dynamics + rho * measurement
        yo_active = yo[active]
        candidate = _solve_stacked(*_assemble_bands(thetas, yo_active, rho, lam, start))
        _require_finite(f"trajectory of iteration {iteration + 1}", candidate)
        dynamics = _dynamics_term(thetas, *delay_windows(candidate, r))
        err = yo_active[:, start:] - candidate[:, start:]
        new_measurement = np.vecdot(err, err)
        total = dynamics + rho * new_measurement
        # The exact state update cannot raise its own objective (the loss
        # plus the state ridge), but a smoother system that is singular at
        # working precision (marginal roots, loose anchoring, tiny rho) can
        # come back with a solution inaccurate enough to do so. Holding the
        # previous trajectory keeps every accepted step a descent step.
        hold = total + lam * np.vecdot(candidate, candidate) > held_total + lam * np.vecdot(y_hat, y_hat)
        y_hat = np.where(hold[:, None], y_hat, candidate)
        dynamics = np.where(hold, held_dynamics, dynamics)
        measurement = np.where(hold, measurement, new_measurement)
        total = np.where(hold, held_total, total)
        for i, theta, terms in zip(active, thetas, np.stack((dynamics, measurement, total), axis=1).tolist()):
            estimates[i].append(ARParams(theta))
            history[i].append(LossBreakdown(*terms, terms[2] / n))

        monitor = total + lam * (np.vecdot(thetas, thetas) + np.vecdot(y_hat, y_hat))
        stop = monitor <= floor[active]
        if monitor_prev is not None:
            stop |= np.abs(monitor_prev - monitor) <= config.convergence_tol * monitor_prev
        converged[active] = stop
        stop |= iteration == config.max_iterations - 1
        y_final[active[stop]] = y_hat[stop]
        keep = ~stop
        active, y_hat, measurement, monitor_prev = active[keep], y_hat[keep], measurement[keep], monitor[keep]
        if not active.size:
            break

    min_eigs = np.min(np.abs(companion_eigenvalues(np.stack([steps[-1].theta for steps in estimates]))), axis=1)
    results = []
    for y, values, losses, steps, done, eig in zip(ys, y_final, history, estimates, converged, min_eigs):
        smoothed = TimeSeries(values, y.sample_rate_hz, y.channel_names)
        results.append(FitResult(steps[-1], smoothed, tuple(losses), len(losses), bool(done), float(eig), tuple(steps)))
    return tuple(results)


def _var_dynamics(A: np.ndarray, x_hat: np.ndarray) -> float:
    resid = x_hat[1:] - x_hat[:-1] @ A.T
    return float(np.sum(resid * resid))


def _var_loss(dynamics: float, measurement: float, rho: float, n_steps: int) -> LossBreakdown:
    total = dynamics + rho * measurement
    return LossBreakdown(dynamics, measurement, total, total / n_steps)


def assemble_var_smoother(A: np.ndarray, x: np.ndarray, rho: float, lam: float = 0.0) -> SmootherSystem:
    """Block-tridiagonal normal equations of the VAR(1) state update.

    With the identity readout every state is measured, so each diagonal
    block picks up rho directly; the coupling blocks are -A. ``fit_var1``
    solves the same system without assembling it, by
    :func:`solve_block_smoother` with ``Q = (rho + lam) I``; this explicit
    form is the reference that solver is tested against.
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
    channels through a block-tridiagonal system, solved by
    :func:`solve_block_smoother` (a steady-state Cholesky factor on long
    series, the whole band factor otherwise); with p == 1 the whole
    procedure reduces to ``fit_ar`` at order 1.
    """
    if config.order_r != 1:
        raise ValueError("the VAR fit is first-order; set order_r = 1")
    x = y.values
    n, p = x.shape
    if n < 2:
        raise HorizonTooShort("need at least two steps")
    floor = _zero_floor(x)
    rho, lam = config.rho, config.lam
    Q, rhs = (rho + lam) * np.eye(p), (rho * x).reshape(-1)
    x_hat = x
    history: list[LossBreakdown] = []
    estimates: list[np.ndarray] = []
    monitor_prev = None
    converged = False
    # Starting from x_hat = x, the held trajectory's measurement term is 0.
    measurement = 0.0
    for _ in range(config.max_iterations):
        A = solve_regularized_ls(x_hat[:-1], x_hat[1:], lam).T
        candidate = _solve_block_smoother(A, Q, rhs).reshape(x.shape)
        err = x - candidate
        loss = _var_loss(_var_dynamics(A, candidate), float(np.sum(err * err)), rho, n)
        # The held loss pairs the new A with the old trajectory, whose
        # measurement term the previous iteration already computed.
        held = _var_loss(_var_dynamics(A, x_hat), measurement, rho, n)
        # Same descent guard as the scalar fit; see fit_ar_batch.
        if loss.total + lam * float(np.vdot(candidate, candidate)) > held.total + lam * float(np.vdot(x_hat, x_hat)):
            candidate, loss = x_hat, held
        x_hat, measurement = candidate, loss.measurement_term
        history.append(loss)
        estimates.append(A)
        monitor = loss.total + lam * float(np.sum(A * A) + np.sum(x_hat * x_hat))
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
