"""Alternating parameter/state estimation for noisy AR and VAR(1) series.

The estimators minimize a joint objective over the model coefficients and a
denoised trajectory: squared one-step dynamics residuals plus ``rho`` times
the squared deviation of the trajectory from the recorded measurements.
Both updates are exact minimizers in their own variables, so with ``lam ==
0`` the loss can never increase. One driver, :func:`_alternate`, runs the
loop of the AR, VAR and NAR fits: descent guard, stop rule (``stop_reason``),
history logs and the :class:`FitResult`; each family brings its two steps.
It keeps every per-fit state on a stack of the running fits only, from
which a fit's row goes when it stops. The AR smoothing step hands the
driver the delay windows of its candidate trajectories along with them, and
the next refit regresses on those, so each trajectory is windowed once.
``numerics.smoother_bands`` lays out the AR(r) smoothers, with 1 x 1
blocks, and the VAR(1) smoother, with the stencil [-A, I].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import HorizonTooShort, NotPositiveDefinite, ZeroNormReference
from .model import ARParams, TimeSeries, delay_embed, delay_windows, scalar_values
from .numerics import (
    BandedSPDMatrix,
    BlockTridiagonalSPDMatrix,
    _require_finite,
    companion_eigenvalues,
    smoother_bands,
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
        if not 0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.convergence_tol < np.inf:
            raise ValueError(f"convergence_tol must be positive and finite, got {self.convergence_tol}")


@dataclass(frozen=True)
class LossBreakdown:
    """One evaluation of the joint objective."""

    dynamics_term: float
    measurement_term: float
    total: float
    normalized: float


# Why a fit stopped: the cap came first, or the figure it monitors hit the zero floor, stalled or met the tolerance.
STOP_REASONS = ("iteration_cap", "zero_floor", "stall", "tolerance")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of an alternating fit. Immutable.

    ``theta_log`` holds the parameters of every iteration, one read-only row
    each (row 0 is the classical regularized least-squares baseline), and
    ``loss_log`` the matching post-update dynamics, measurement and total
    loss terms. ``estimate_history`` (the estimate of every row, by
    ``estimate``, ending in ``theta_hat``) and ``loss_history`` (one
    :class:`LossBreakdown` per row) are tuples built from the logs when first
    read. ``stop_reason`` is one of :data:`STOP_REASONS`.
    """

    theta_hat: object
    y_hat: TimeSeries
    iterations_run: int
    stop_reason: str
    min_eig_magnitude: float
    theta_log: np.ndarray
    loss_log: np.ndarray
    estimate: Callable = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "iteration_cap"

    @cached_property
    def estimate_history(self) -> tuple:
        return (*map(self.estimate, self.theta_log[:-1]), self.theta_hat)

    @cached_property
    def loss_history(self) -> tuple[LossBreakdown, ...]:
        n = self.y_hat.n_steps
        return tuple(LossBreakdown(*terms, terms[2] / n) for terms in self.loss_log.tolist())


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


def _ar_stencils(thetas: np.ndarray) -> np.ndarray:
    """The stencils [-theta_r ... -theta_1, 1] of a (B, r) stack of AR coefficients, as (B, r + 1, 1, 1) blocks."""
    stencils = np.ones((len(thetas), thetas.shape[1] + 1, 1, 1))
    np.negative(thetas[:, ::-1], out=stencils[:, :-1, 0, 0])
    return stencils


def assemble_ar_smoother(
    theta: ARParams,
    y: TimeSeries,
    rho: float,
    lam: float = 0.0,
    anchor_all: bool = False,
) -> tuple[BandedSPDMatrix, np.ndarray]:
    """Normal equations ``(matrix, rhs)`` of the loss in the N free trajectory values.

    Every dynamics residual touches r+1 consecutive values, so the system is
    banded with bandwidth r: :func:`~arid.numerics.smoother_bands` with 1 x 1
    blocks. Measurement terms add rho to the diagonal for t >= r, or
    everywhere with ``anchor_all``; without it the first r-1 values are
    pinned only through the dynamics terms (and lam), exactly as the loss is
    written.
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
    bands = smoother_bands(_ar_stencils(theta.theta[None]), np.full((1, 1), rho), n, start, lam)
    return BandedSPDMatrix(n, r, bands[0]), _measurement_rhs(yo, rho, start)


def _measurement_rhs(yo: np.ndarray, rho: float, start: int) -> np.ndarray:
    """Right-hand side of the AR smoother: rho times the measurements from ``start`` on, zero before."""
    rhs = np.zeros_like(yo)
    rhs[..., start:] = rho * yo[..., start:]
    return rhs


# Diagonal shifts, relative to the largest diagonal entry, tried in order when
# the smoother system is numerically singular. See _solve_smoother.
_RIDGE_BOOSTS = (1e-10, 1e-8, 1e-6)


def _shift_diagonal(matrix, boost: float):
    """``matrix`` with its diagonal raised by ``boost`` times its largest diagonal entry (at least 1).

    ``matrix`` is a :class:`BandedSPDMatrix` or a :class:`BlockTridiagonalSPDMatrix`,
    whose shift goes into Q.
    """
    if isinstance(matrix, BandedSPDMatrix):
        bands = matrix.bands.copy()
        bands[0] += boost * max(1.0, float(bands[0].max()))
        return BandedSPDMatrix(matrix.dim, matrix.bandwidth, bands)
    A, Q, num_blocks = matrix.A, matrix.Q, matrix.num_blocks
    # The first, a middle and the last block hold every distinct diagonal entry.
    diagonal = smoother_bands(np.stack((-A, np.eye(len(A))))[None], Q, min(num_blocks, 3))[0, 0]
    return BlockTridiagonalSPDMatrix(A, Q + boost * max(1.0, float(diagonal.max())) * np.eye(len(Q)), num_blocks)


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
    smoothed = _solve_smoother(*assemble_ar_smoother(theta, y, rho, lam, anchor_all), solve_banded_spd)
    return TimeSeries(smoothed, y.sample_rate_hz, y.channel_names)


def _sumsq(stack: np.ndarray) -> np.ndarray:
    """Sum of squares of each member of a stack, by ``np.sum``."""
    return np.sum(stack * stack, axis=tuple(range(1, stack.ndim)))


def _alternate(ys, observed, config, tol, refit, smooth, estimate, roots, ridge=None,
               windows=None) -> tuple[FitResult, ...]:
    """Alternate ``refit`` and ``smooth`` on the (B, ...) stack ``observed``, one fit per series of ``ys``.

    ``refit(y_hat, windows)`` returns the parameters of the running fits and
    their dynamics terms on ``y_hat``; ``smooth(params, active)`` the
    candidate trajectories, their delay windows, and their dynamics and
    measurement terms. ``windows`` are those of ``observed``; the driver
    holds and drops each fit's windows with its trajectory and hands them to
    the next ``refit``, so every trajectory is windowed once. Fits that use
    no windows (VAR, NAR) pass and return None. With
    ``ridge``, a per-fit sum of squares, the fits are descents (AR, VAR):
    guarded, and stopped on the objective or the zero floor. Without it
    (NAR) a fit stops once its trajectory stops changing. The per-fit state
    (trajectory, windows, last measurement term, last monitored figure, zero
    floor) is kept for the running fits only, row k for ``active[k]``; a fit
    that stops leaves every such stack, so result i equals the fit of
    ``ys[i]`` alone bit for bit. ``estimate`` maps a logged parameter row to
    the estimate, and ``roots`` a stack of rows to the eigenvalues of their
    dynamics.
    """
    count, rho, lam = len(observed), config.rho, config.lam
    # Exactly recoverable data drives the loss to rounding level, where the
    # relative-change test is meaningless; such a fit stops outright. The floor
    # is 1e-24 times the sum of squares, taken over each series scaled by its
    # largest magnitude: it overflows for no finite series whose floor is
    # finite, and 2^j y gets 4^j times the floor of y.
    peak = np.max(np.abs(observed), axis=tuple(range(1, observed.ndim)), keepdims=True)
    peak = np.maximum(peak, np.finfo(float).tiny)
    floor = 1e-24 * peak.ravel() * peak.ravel() * _sumsq(observed / peak)
    runs, reasons, y_final = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp), np.empty_like(observed)
    # Starting from y_hat = y, the held trajectory's measurement term is 0.
    active, y_hat, measurement, previous = np.arange(count), observed, np.zeros(count), np.full(count, np.nan)
    for iteration in range(config.max_iterations):
        params, held_dynamics = refit(y_hat, windows)
        candidate, new_windows, dynamics, new_measurement = smooth(params, active)
        _require_finite(f"trajectory of iteration {iteration + 1}", candidate)
        total = dynamics + rho * new_measurement
        if ridge is None:
            step = candidate - y_hat
            change = np.sqrt(np.vecdot(step, step))
            scale, floored = np.maximum(np.sqrt(np.vecdot(y_hat, y_hat)), 1e-300), False
        else:
            # The exact state update cannot raise its own objective (the loss
            # plus the state ridge), but a smoother system that is singular
            # at working precision (marginal roots, loose anchoring, tiny rho)
            # can come back with a solution inaccurate enough to do so.
            # Holding the previous trajectory keeps every accepted step a
            # descent step. The held loss pairs the new parameters with the
            # old trajectory, whose measurement term is the last iteration's.
            # At lam == 0 the ridge terms would add zeros to nonnegative sums, which changes nothing.
            held_total = held_dynamics + rho * measurement
            norms = (ridge(candidate), ridge(y_hat)) if lam else None
            hold = total + lam * norms[0] > held_total + lam * norms[1] if lam else total > held_total
            if hold.any():
                candidate[hold] = y_hat[hold]
                if windows is not None:
                    new_windows[hold] = windows[hold]
                dynamics = np.where(hold, held_dynamics, dynamics)
                new_measurement = np.where(hold, measurement, new_measurement)
                total = np.where(hold, held_total, total)
            measurement = new_measurement
            monitor = total + lam * (ridge(params) + np.where(hold, norms[1], norms[0])) if lam else total
            scale, previous, floored = previous, monitor, monitor <= floor
            change = np.abs(scale - monitor)
        if iteration == 0:
            # Row k of fit i holds its parameters and loss terms, unwritten past runs[i]. The logs
            # double when full, since the cap can lie far beyond the iterations a fit runs.
            theta_log = np.empty((min(config.max_iterations, 64), count, *params.shape[1:]))
            loss_log = np.empty((len(theta_log), count, 3))
        elif iteration == len(theta_log):
            theta_log, loss_log = (np.concatenate((log, np.empty_like(log))) for log in (theta_log, loss_log))
        theta_log[iteration, active] = params
        loss_log[iteration, active] = np.array((dynamics, new_measurement, total)).T

        # A stall, change == 0, meets the tolerance too. Codes index STOP_REASONS;
        # 0, the cap, stops every fit still running on the last iteration.
        met = (change <= tol * scale) | floored
        last = iteration == config.max_iterations - 1
        if last or met.any():
            reason = np.where(floored, 1, np.where(change == 0, 2, np.where(met, 3, 0)))
            stop = met | last
            done, keep = active[stop], ~stop
            runs[done], reasons[done], y_final[done] = iteration + 1, reason[stop], candidate[stop]
            active, candidate, measurement, previous, floor = (
                state[keep] for state in (active, candidate, measurement, previous, floor))
            if new_windows is not None:
                new_windows = new_windows[keep]
            if not active.size:
                break
        y_hat, windows = candidate, new_windows

    theta_log.flags.writeable = loss_log.flags.writeable = False
    min_eigs = np.min(np.abs(roots(theta_log[runs - 1, np.arange(count)])), axis=1).tolist()
    return tuple(
        FitResult(estimate(theta_log[run - 1, i]), TimeSeries(y_final[i], y.sample_rate_hz, y.channel_names), run,
                  STOP_REASONS[reason], eig, theta_log[:run, i], loss_log[:run, i], estimate)
        for i, (y, run, reason, eig) in enumerate(zip(ys, runs.tolist(), reasons.tolist(), min_eigs))
    )


def fit_ar(y: TimeSeries, config: FitConfig) -> FitResult:
    """Alternating estimation of AR(r) coefficients and a denoised trajectory.

    Starts from y_hat = y, so the first coefficient estimate coincides bit
    for bit with the classical regularized least-squares fit on the raw
    measurements. Each iteration refits the coefficients on the current
    trajectory, then re-smooths the trajectory against the raw measurements.
    """
    return fit_ar_batch((y,), config)[0]


def fit_ar_batch(ys, config: FitConfig) -> tuple[FitResult, ...]:
    """:func:`fit_ar` of several equally long series, run in lockstep by :func:`_alternate`.

    Each iteration refits every active series in one batched factorization
    and smooths them all in one banded solve, their systems placed end to
    end, so result i equals ``fit_ar(ys[i], config)`` bit for bit.
    """
    ys = tuple(ys)
    if not ys or len({y.n_steps for y in ys}) != 1:
        raise ValueError("need one or more series of equal length")
    yo = np.stack([scalar_values(y) for y in ys])
    r, rho, lam = config.order_r, config.rho, config.lam
    if yo.shape[1] <= r:
        raise HorizonTooShort(f"need more than order {r} steps, got {yo.shape[1]}")
    n, start = yo.shape[1], 0 if config.anchor_all_values else r - 1
    rhs, Q = _measurement_rhs(yo, rho, start), np.full((1, 1), rho)

    def refit(y_hat, windows):
        targets = y_hat[:, r:]
        thetas = solve_regularized_ls(windows, targets, lam)
        return thetas, _dynamics_term(thetas, windows, targets)

    def smooth(thetas, active):
        candidate = _solve_stacked(smoother_bands(_ar_stencils(thetas), Q, n, start, lam), rhs[active])
        windows = delay_windows(candidate, r)[0]
        err = yo[active, start:] - candidate[:, start:]
        return candidate, windows, _dynamics_term(thetas, windows, candidate[:, r:]), np.vecdot(err, err)

    return _alternate(ys, yo, config, config.convergence_tol, refit, smooth, ARParams, companion_eigenvalues,
                      ridge=lambda v: np.vecdot(v, v), windows=delay_windows(yo, r)[0])


def _var_dynamics(A: np.ndarray, x_hat: np.ndarray) -> float:
    resid = x_hat[1:] - x_hat[:-1] @ A.T
    return float(np.sum(resid * resid))


def assemble_var_smoother(A: np.ndarray, x: np.ndarray, rho: float, lam: float = 0.0) -> tuple:
    """Block-tridiagonal normal equations ``(matrix, rhs)`` of the VAR(1) state update.

    With the identity readout every state is measured, so each diagonal
    block picks up rho (and the ridge) directly: ``Q = (rho + lam) I``, one
    block per time step, coupling blocks -A.
    """
    n, p = x.shape
    return BlockTridiagonalSPDMatrix(A, (rho + lam) * np.eye(p), n), (rho * x).reshape(-1)


def fit_var1(y: TimeSeries, config: FitConfig) -> FitResult:
    """First-order VAR variant of the alternating fit with a full transition matrix.

    The readout is the identity, so the smoothing step couples the p
    channels through the block-tridiagonal system of
    :func:`assemble_var_smoother`, solved by
    :func:`~arid.numerics.solve_block_tridiagonal_spd` (a steady-state
    Cholesky factor on long series, the whole band factor otherwise) through
    the diagonal-shift ladder; with p == 1 the whole
    procedure reduces to ``fit_ar`` at order 1. It runs as a stack of one
    in :func:`_alternate`.
    """
    if config.order_r != 1:
        raise ValueError("the VAR fit is first-order; set order_r = 1")
    x = y.values
    n, p = x.shape
    if n < 2:
        raise HorizonTooShort("need at least two steps")

    def refit(x_hat, windows):
        A = solve_regularized_ls(x_hat[0, :-1], x_hat[0, 1:], config.lam).T
        return A[None], np.array([_var_dynamics(A, x_hat[0])])

    def smooth(A, active):
        system = assemble_var_smoother(A[0], x, config.rho, config.lam)
        candidate = _solve_smoother(*system, solve_block_tridiagonal_spd).reshape(1, n, p)
        return candidate, None, np.array([_var_dynamics(A[0], candidate[0])]), _sumsq(x - candidate)

    return _alternate((y,), x[None], config, config.convergence_tol, refit, smooth, np.asarray, np.linalg.eigvals,
                      ridge=_sumsq)[0]


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
