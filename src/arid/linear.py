"""Alternating parameter/state estimation for noisy AR and VAR(1) series.

The estimators minimize a joint objective over the model coefficients and a
denoised trajectory: squared one-step dynamics residuals plus ``rho`` times
the squared deviation of the trajectory from the recorded measurements.
Both updates are exact minimizers in their own variables, so with ``lam ==
0`` the loss can never increase. One driver, :func:`_alternate`, runs the
loop of the AR, VAR and NAR fits: descent guard, stop rule (``stop_reason``),
history logs and the :class:`FitResult`; each family brings its two steps.
It keeps every per-fit state on a stack of the running fits only, from
which a fit's row goes when it stops. AR(r) and VAR(1) are one fit,
:func:`_fit`, which calls :func:`param_step`, :func:`state_step` and
:func:`evaluate_loss` by module name on a (B, N) stack of scalar series
(:func:`fit_ar_batch`; one series is a stack of one) or on a (1, N, p)
recording (:func:`fit_var1`). The smoothing step returns the delay windows
of its candidates, so each trajectory is windowed once; every sum of squares
is :func:`_sumsq`. The smoothers [-A_r ... -A_1, I], which NAR's state step
also solves through :func:`state_step`, are ``numerics.Smoother`` values:
one solve and one diagonal-shift ladder (:func:`_solve_smoother`). A descent
fit can mix its parameters (:class:`_Mixing`, guarded Anderson acceleration
of the alternation); the VAR fit does from two channels on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import HorizonTooShort, NotPositiveDefinite, SingularSystem, ZeroNormReference
from .model import ARParams, TimeSeries, delay_windows, scalar_values
from .numerics import (
    Smoother,
    SteadyProbe,
    _require_finite,
    companion_eigenvalues,
    smoother_bands,
    solve_regularized_ls,
    solve_smoother,
)

# The benchmark's tracer (perfbench/tracing.py) books the one solve as scalar
# (1 x 1 blocks) or block by these two names, and the one assembler also as
# assemble_var_smoother, an alias. They, and nar's import of the block name,
# go once ROADMAP item 1 retargets the tracer to one name each.
solve_banded_spd = solve_block_tridiagonal_spd = solve_smoother


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
    e_x: float


def _sumsq(stack: np.ndarray) -> np.ndarray:
    """Sum of squares of each member of a stack, its flattened row added pairwise by ``np.add``.

    Every loss term, ridge, zero floor and norm of a fit is this sum. BLAS
    ``ddot`` (NumPy's ``vecdot``, a 1-D matmul) rounds by the thread count
    past 10 000 elements, and ``einsum`` rounds a row past 8 192 by the rows
    in its stack; this sum depends on neither.
    """
    flat = stack.reshape(len(stack), -1)
    return np.add.reduce(flat * flat, axis=1)


def _dynamics_term(thetas: np.ndarray, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Summed squared residuals ``targets - windows @ theta`` of a stack of (B, r) or (B, p, k) parameters."""
    fitted = windows @ thetas.reshape(len(thetas), windows.shape[2], -1)
    return _sumsq(targets - fitted.reshape(targets.shape))


def evaluate_loss(thetas: np.ndarray, windows: np.ndarray, y_hat: np.ndarray, observed: np.ndarray,
                  start: int) -> tuple[np.ndarray, np.ndarray]:
    """Dynamics and measurement terms of each member of a (B, N, ...) stack of trajectories, windowed as ``windows``.

    Dynamics residuals run over every transition with a full window (the
    last ``windows.shape[1]`` values are targets), with ``thetas`` as
    :func:`param_step` returns them; measurement residuals against
    ``observed`` over the values from ``start`` on (r - 1, or 0 to anchor
    every sample). The objective is dynamics + rho * measurement.
    """
    return (_dynamics_term(thetas, windows, y_hat[:, y_hat.shape[1] - windows.shape[1]:]),
            _sumsq(observed[:, start:] - y_hat[:, start:]))


def param_step(windows: np.ndarray, targets: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact coefficient update at fixed states: the stacked ridge regressions and their dynamics terms.

    (B, M, r) delay windows and (B, M) targets give (B, r) AR coefficients;
    (B, M, p) states and their successors the (B, p, p) transposed VAR(1)
    transitions, which at p = 1 are AR(1)'s coefficients bit for bit.
    """
    thetas = solve_regularized_ls(windows, targets, lam)
    return thetas, _dynamics_term(thetas, windows, targets)


def assemble_ar_smoother(thetas: np.ndarray, n: int, Q: np.ndarray, lam: float, start: int) -> Smoother:
    """The trajectory smoothers over n steps of (B, r) AR or (B, r p, p) refit coefficients, p the size of Q.

    Every dynamics residual touches r + 1 consecutive steps: a
    :class:`~arid.numerics.Smoother` with the stencil [-A_r ... -A_1, I], A_k
    the transpose of the k-th p x p block. The measurement block Q goes on
    the diagonal from ``start`` on, and the ridge lam everywhere; unanchored,
    the first r-1 values are pinned only through the dynamics terms (and
    lam), exactly as the loss is written.
    """
    p = len(Q)
    blocks = thetas.reshape(len(thetas), -1, p, p)
    stencils = np.zeros((len(thetas), blocks.shape[1] + 1, p, p))
    stencils.reshape(len(thetas), -1)[:, -p * p :: p + 1] = 1.0  # the last block's diagonal: I, without np.eye's cost
    np.negative(blocks[:, ::-1].swapaxes(2, 3), out=stencils[:, :-1])
    return Smoother(stencils, Q, n, start, lam)


assemble_var_smoother = assemble_ar_smoother  # the tracer's VAR name; see solve_banded_spd


def _measurement_rhs(yo: np.ndarray, rho: float, start: int) -> np.ndarray:
    """Right-hand side of the smoother of a (B, N, ...) stack: rho times the measurements from ``start`` on, zero before."""
    rhs = np.zeros_like(yo)
    rhs[:, start:] = rho * yo[:, start:]
    return rhs


# Diagonal shifts, relative to the largest diagonal entry, tried in order when
# the smoother system is numerically singular. See _solve_smoother.
_RIDGE_BOOSTS = (1e-10, 1e-8, 1e-6)


def _solve_smoother(smoother: Smoother, rhs: np.ndarray, solve, probe=None) -> np.ndarray:
    """``solve(smoother, rhs, probe)``, with the diagonal-shift ladder for a system that is not positive definite.

    ``solve`` is the caller's binding of ``numerics.solve_smoother``, so every
    attempt runs under the name the tracer wraps for its family. A stack
    that fails sends each system alone: the shift scales by the largest
    diagonal entry, which in a stack belongs to any of its systems, so a
    singular system is shifted as it is outside a stack. Each retry raises
    ``lam`` by a boost times that entry (at least 1).
    """
    try:
        return solve(smoother, rhs, probe)
    except NotPositiveDefinite:
        if len(rhs) > 1:
            return np.concatenate([_solve_smoother(replace(smoother, stencils=smoother.stencils[i : i + 1]),
                                                   rhs[i : i + 1], solve, probe) for i in range(len(rhs))])
    # A trailing AR coefficient near zero leaves the leading trajectory values
    # nearly unconstrained, and the NAR measurement term pins only the
    # rank-one readout direction of each state block; either way the normal
    # matrix can be singular at working precision. A rounding-scale diagonal
    # shift selects the bounded minimizer instead of aborting the fit; the
    # induced loss perturbation sits orders of magnitude below the
    # convergence tolerances in use. Bands over at most 2r + 1 blocks hold
    # every distinct diagonal entry of the system.
    r = smoother.stencils.shape[1] - 1
    diagonal = smoother_bands(smoother.stencils, smoother.Q, min(smoother.num_blocks, 2 * r + 1), smoother.start,
                              smoother.lam)[0, 0]
    scale = max(1.0, float(diagonal.max()))
    for boost in _RIDGE_BOOSTS:
        try:
            return solve(replace(smoother, lam=smoother.lam + boost * scale), rhs, probe)
        except NotPositiveDefinite:
            continue
    raise NotPositiveDefinite("state smoother stayed indefinite after diagonal shifts")


def state_step(thetas: np.ndarray, rhs: np.ndarray, Q: np.ndarray, lam: float, start: int,
               probe: SteadyProbe | None = None) -> tuple[np.ndarray, ...]:
    """Exact trajectory update at fixed coefficients: the smoothed trajectories and their delay windows.

    ``rhs``, (B, N) or (B, N, p) like the trajectories, is the measurements' right-hand side (AR's and VAR's
    from :func:`_measurement_rhs`) and Q the p x p measurement block; the B smoothers are solved as one
    banded system, with ``probe`` handed to ``numerics.solve_smoother`` (a fit shares one over its steps).
    """
    smoother = assemble_ar_smoother(thetas, rhs.shape[1], Q, lam, start)
    solve = solve_banded_spd if len(Q) == 1 else solve_block_tridiagonal_spd
    candidate = _solve_smoother(smoother, rhs.reshape(len(rhs), -1), solve, probe).reshape(rhs.shape)
    return candidate, delay_windows(candidate, smoother.stencils.shape[1] - 1)[0]


# Iterates, with their fixed-point residuals, that a mixed parameter step combines. See _Mixing.
_MIXING_DEPTH = 5


class _Mixing:
    """Anderson type-II mixing of the parameters of one descent fit.

    The alternation is the fixed-point iteration a -> G(a): smooth with the
    parameters a, then refit on the smoothed trajectory. The fit holds its
    last ``_MIXING_DEPTH`` iterates a_j and residuals r_j = G(a_j) - a_j.
    Given the refit G(a_k), :meth:`step` returns G(a_k) - (dA + dR) g, with
    dA and dR the differences of consecutive iterates and residuals and g the
    least-squares fit of r_k by dR (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011). The fit restarts its history from the current pair, and takes the
    plain refit, when its residual has grown since its last step or dR is
    rank-deficient.
    """

    def __init__(self, params: np.ndarray):
        # The parameters that smoothed the fit's current trajectory.
        self.last = params.ravel()
        self.iterates, self.residuals, self.norm = [], [], np.inf

    def step(self, params: np.ndarray) -> np.ndarray:
        """The parameters to smooth with, from the refit ``params``."""
        plain = params.ravel()
        residual = plain - self.last
        norm = np.sqrt(_sumsq(residual[None]))[0]
        if norm > self.norm:
            self.iterates, self.residuals = [], []
        self.iterates = [*self.iterates, self.last][-_MIXING_DEPTH:]
        self.residuals = [*self.residuals, residual][-_MIXING_DEPTH:]
        self.norm = norm
        if len(self.residuals) == 1:
            return params
        dR = np.diff(self.residuals, axis=0)
        try:
            gamma = solve_regularized_ls(dR.T, residual[:, None], 0.0)[:, 0]
        except SingularSystem:
            self.iterates, self.residuals = self.iterates[-1:], self.residuals[-1:]
            return params
        return (plain - gamma @ (np.diff(self.iterates, axis=0) + dR)).reshape(params.shape)

    def settle(self, params: np.ndarray, used: np.ndarray, hold: bool) -> np.ndarray:
        """The parameters the fit logs: ``used``, or the refit ``params`` if the guard held the trajectory.

        A held trajectory is still the one that ``last`` smoothed, so ``last``
        stays, and the next step pairs it with the same residual again, as the
        first pair of a new history.
        """
        if hold:
            self.iterates, self.residuals = [], []
            return params
        self.last = used.ravel()
        return used


def _alternate(ys, observed, config, tol, refit, smooth, estimate, roots, windows=None,
               mix=False) -> tuple[FitResult, ...]:
    """Alternate ``refit`` and ``smooth`` on the (B, ...) stack ``observed``, one fit per series of ``ys``.

    ``refit(y_hat, windows)`` returns the parameters of the running fits and
    their dynamics terms on ``y_hat``; ``smooth(params, active)`` the
    candidate trajectories, their delay windows, and their dynamics and
    measurement terms. ``windows`` are those of ``observed``; the driver
    holds and drops each fit's windows with its trajectory and hands them to
    the next ``refit``, so every trajectory is windowed once. A fit that uses
    no windows (NAR) passes and returns None. Fits whose refit returns
    dynamics terms are descents (AR, VAR): guarded, and stopped on the
    objective or the zero floor. A refit returning None (NAR) makes a fit
    stop once its trajectory stops changing. The per-fit state
    (trajectory, windows, last measurement term, last monitored figure, zero
    floor) is kept for the running fits only, row k for ``active[k]``; a fit
    that stops leaves every such stack, so result i equals the fit of
    ``ys[i]`` alone bit for bit. ``estimate`` maps a logged parameter row to
    the estimate, and ``roots`` a stack of rows to the eigenvalues of their
    dynamics.

    With ``mix``, for one descent fit, each step smooths with
    :class:`_Mixing`'s combination of the refit and the fit's earlier
    iterates. The guard then weighs whole objectives, parameter ridge
    included, against the held pair of the plain refit and the old
    trajectory. So every kept step is still a descent, and its ``theta_log``
    row holds the parameters it smoothed with; a held step logs the plain
    refit, as an unmixed fit does, and drops the history.
    """
    count, rho, lam = len(observed), config.rho, config.lam
    if mix and count > 1:
        raise ValueError("parameter mixing runs one fit at a time")
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
    mixing = None
    for iteration in range(config.max_iterations):
        params, held_dynamics = refit(y_hat, windows)
        used = params
        if mixing is not None:
            used = mixing.step(params)
        elif mix:
            mixing = _Mixing(params)
        candidate, new_windows, dynamics, new_measurement = smooth(used, active)
        _require_finite(f"trajectory of iteration {iteration + 1}", candidate)
        total = dynamics + rho * new_measurement
        if held_dynamics is None:
            change = np.sqrt(_sumsq(candidate - y_hat))
            scale, floored = np.maximum(np.sqrt(_sumsq(y_hat)), 1e-300), False
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
            norms = (_sumsq(candidate), _sumsq(y_hat)) if lam else None
            if lam and mixing is not None:
                # A mixed step smooths with other parameters than the held pair's, so both ridges count.
                hold = total + lam * (_sumsq(used) + norms[0]) > held_total + lam * (_sumsq(params) + norms[1])
            else:
                hold = total + lam * norms[0] > held_total + lam * norms[1] if lam else total > held_total
            if hold.any():
                candidate[hold] = y_hat[hold]
                if windows is not None:
                    new_windows[hold] = windows[hold]
                dynamics = np.where(hold, held_dynamics, dynamics)
                new_measurement = np.where(hold, measurement, new_measurement)
                total = np.where(hold, held_total, total)
            if mixing is not None:
                params = mixing.settle(params, used, hold[0])
            measurement = new_measurement
            monitor = total + lam * (_sumsq(params) + np.where(hold, norms[1], norms[0])) if lam else total
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

    Each iteration runs :func:`param_step` (one band solve of the normal
    equations, end to end), :func:`state_step` (one banded solve, the
    systems end to end) and :func:`evaluate_loss` once on the running fits.
    Up to order 15, result i equals ``fit_ar(ys[i], config)`` bit for bit.
    From order 16 on it may differ at rounding level: OpenBLAS's triangular
    band solve sums dot products of 16 or more terms in SIMD lanes, so in
    both bands (the smoother's half-bandwidth is r, the refit's r - 1) a
    member's last rows round with the zero coupling to the next system,
    which its solo fit does not have.
    """
    ys = tuple(ys)
    if not ys or len({y.n_steps for y in ys}) != 1:
        raise ValueError("need one or more series of equal length")
    return _fit(ys, np.stack([scalar_values(y) for y in ys]), config, ARParams, companion_eigenvalues)


def _fit(ys, yo, config, estimate, roots, mix=False) -> tuple[FitResult, ...]:
    """The alternating fit of order r of a (B, N) stack of scalar series or a (1, N, p) recording.

    It logs the coefficients, (r,) for AR and the transition A, (p, p), for
    VAR(1). Its smoothers' Q is rho I_p, and its one
    :class:`~arid.numerics.SteadyProbe` carries the lead that last settled.
    """
    r, rho, lam = config.order_r, config.rho, config.lam
    if yo.shape[1] <= r:
        raise HorizonTooShort(f"need more than order {r} steps, got {yo.shape[1]}")
    start = 0 if config.anchor_all_values else r - 1
    rhs, Q, probe = _measurement_rhs(yo, rho, start), rho * np.eye(yo[0, 0].size), SteadyProbe()

    def refit(y_hat, windows):
        with np.errstate(over="ignore"):  # the held term is inf where the squares overflow, and an inf never holds
            thetas, dynamics = param_step(windows, y_hat[:, r:], lam)
        return thetas.swapaxes(1, -1), dynamics

    def smooth(params, active):
        # Fancy indexing copies, so the stacks go whole while every fit runs.
        running = active if len(active) < len(yo) else slice(None)
        thetas = params.swapaxes(1, -1)
        candidate, windows = state_step(thetas, rhs[running], Q, lam, start, probe)
        return candidate, windows, *evaluate_loss(thetas, windows, candidate, yo[running], start)

    return _alternate(ys, yo, config, config.convergence_tol, refit, smooth, estimate, roots,
                      delay_windows(yo, r)[0], mix)


def fit_var1(y: TimeSeries, config: FitConfig) -> FitResult:
    """First-order VAR fit with a full transition matrix: :func:`_fit` at r = 1, bit for bit ``fit_ar`` at p = 1.

    The readout is the identity, so the smoothing step couples the p
    channels through the block-tridiagonal smoother [-A, I] with Q = rho I,
    solved by :func:`~arid.numerics.solve_smoother` (on long series a
    steady-state Cholesky factor, swept tile by tile in O(N p) memory; the
    whole band factor otherwise, and once no lead up to a quarter of the
    series settles, without trying one). It runs as a stack of one, which
    from p == 2 on mixes its transition matrices (:class:`_Mixing`): a
    ``var_wide``-shaped fit (p = 32, N = 500, rho = 3) stops in about 14
    state steps instead of about 33.
    """
    if config.order_r != 1:
        raise ValueError("the VAR fit is first-order; set order_r = 1")
    return _fit((y,), y.values[None], config, np.asarray, np.linalg.eigvals, mix=y.n_channels > 1)[0]


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

    ``e_norm_theta`` is normalized by the true coefficient norm, ``e_x`` by
    the norm of the true noiseless trajectory.
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
        float(np.linalg.norm(yh - xt)) / x_norm,
    )
