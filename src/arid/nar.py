"""Nonlinear AR estimation through signature features.

Windows of the trajectory are lifted to truncated signatures of a
two-column path (values and their running sum); dynamics and readout are
then linear in signature space. The linear fits' driver, ``linear._alternate``,
runs the alternation, with the VAR fit's smoother, the stencil [-A, I] with
Q = rho c c^T + lam I, and its shift ladder as the smoothing step over
unconstrained signature states and no descent guard, and its sums of
squares (``linear._sumsq``) for the loss terms. Smoothed states are
not projected back onto the manifold of true signatures; only their readout
re-enters the next iteration through the refreshed trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingTooShort, HorizonTooShort
from .linear import FitResult, _alternate, _dynamics_term, _solve_smoother, _sumsq
from .model import TimeSeries, scalar_values
from .numerics import Smoother, SteadyProbe, solve_regularized_ls
from .numerics import solve_smoother as solve_block_tridiagonal_spd  # the tracer's name; see linear
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
        if not 0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.state_change_tol < np.inf:
            raise ValueError(f"state_change_tol must be positive and finite, got {self.state_change_tol}")


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


def build_sig_matrices(y_hat, order_r: int, depth_d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked signature features of consecutive windows of a scalar series.

    ``y_hat`` is a single-channel :class:`TimeSeries` or the vector of its
    values. Returns ``(gamma_minus, gamma_plus, y_plus)``: row j of ``gamma_minus``
    is the signature of the window ending at t = r + j (one-based), and
    ``gamma_plus`` is the same stack shifted one step forward, so matching
    rows are consecutive states. ``y_plus`` holds the values aligned with
    the rows of ``gamma_plus``.
    """
    if order_r < 2:
        raise EmbeddingTooShort("order_r must be >= 2")
    if depth_d < 1:
        raise ValueError("depth_d must be >= 1")
    yh = scalar_values(y_hat) if isinstance(y_hat, TimeSeries) else np.asarray(y_hat, dtype=float)
    if yh.size <= order_r:
        raise HorizonTooShort(f"need more than order_r = {order_r} steps, got {yh.size}")
    sigs = _window_signatures(yh, order_r, depth_d)
    return sigs[:-1], sigs[1:], yh[order_r:].copy()


def nar_param_step(gamma_minus: np.ndarray, gamma_plus: np.ndarray, y_plus: np.ndarray, lam: float) -> NARModel:
    """Ridge refits of the signature dynamics and the measurement readout."""
    w = solve_regularized_ls(gamma_minus, gamma_plus, lam)
    c = solve_regularized_ls(gamma_plus, y_plus, lam)
    return NARModel(w.T, c)


def assemble_nar_smoother(model: NARModel, y: TimeSeries, order_r: int, rho: float,
                          lam: float = 0.0) -> tuple[Smoother, np.ndarray]:
    """The smoother over the free signature states and its (1, M n_s) right-hand side.

    One block per time step t = r..N, with the stencil [-A, I]. The readout
    is rank one, so the measurement contributes ``rho * outer(C, C)`` to Q,
    the ridge ``lam I``.
    """
    yo = scalar_values(y)
    if yo.size <= order_r:
        raise HorizonTooShort(f"need more than order_r = {order_r} steps, got {yo.size}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    Q = rho * np.outer(model.C_sig, model.C_sig) + lam * np.eye(model.n_s)
    rhs = (rho * yo[order_r - 1:, None] * model.C_sig[None, :]).reshape(1, -1)
    return Smoother(np.stack((-model.A_sig, np.eye(model.n_s)))[None], Q, yo.size - order_r + 1), rhs


def nar_state_step(
    model: NARModel, y: TimeSeries, order_r: int, rho: float, lam: float, probe: SteadyProbe | None = None
) -> tuple[np.ndarray, TimeSeries]:
    """Smooth the signature states against the measurements at a fixed model.

    Returns the stacked smoothed states (one row per t = r..N) and the
    refreshed trajectory estimate. Values before t = r have no state of
    their own and keep their measurements. ``probe`` is handed to
    ``numerics.solve_smoother``; a fit shares one over its steps.
    """
    states = _solve_smoother(*assemble_nar_smoother(model, y, order_r, rho, lam), solve_block_tridiagonal_spd,
                             probe).reshape(-1, model.n_s)
    refreshed = np.concatenate((scalar_values(y)[: order_r - 1], states @ model.C_sig))
    return states, TimeSeries(refreshed, y.sample_rate_hz, y.channel_names)


def _unpack(params: np.ndarray) -> NARModel:
    """The model of one logged row: the transition A on top, the readout C below."""
    return NARModel(params[:-1], params[-1])


def fit_nar(y: TimeSeries, config: NARFitConfig) -> FitResult:
    """Alternating signature-space estimation on a scalar series, a stack of one in ``linear._alternate``.

    The signature features are recomputed from the current denoised
    trajectory at the top of every iteration, so the loop is a fixed-point
    iteration, not a joint descent: there is no guard, and the recorded losses
    (the VAR(1) loss over the signature states, with the readout's residual
    as the measurement term) are diagnostics. The first r - 1 values have no
    state and keep their measurements. A fit stops early only if its
    trajectory stalls (relative change below ``state_change_tol``). The
    fit's one probe carries the steady-state lead that last settled from
    step to step; once a state step's lead has doubled up to a quarter of the
    series without settling, the fit's later steps factor their smoothers
    whole without trying one.
    """
    yo, r = scalar_values(y), config.order_r
    probe, model = SteadyProbe(), None

    def refit(y_hat, windows):
        nonlocal model
        model = nar_param_step(*build_sig_matrices(y_hat[0], r, config.depth_d), config.lam)
        return np.vstack((model.A_sig, model.C_sig))[None], None

    def smooth(params, active):
        # params stacks the model that refit has just built.
        states, y_new = nar_state_step(model, y, r, config.rho, config.lam, probe)
        y_new = scalar_values(y_new)[None]
        dynamics = _dynamics_term(model.A_sig.T[None], states[None, :-1], states[None, 1:])
        return y_new, None, dynamics, _sumsq(yo[None, r - 1:] - y_new[:, r - 1:])

    return _alternate((y,), yo[None], config, config.state_change_tol, refit, smooth, _unpack,
                      lambda params: np.linalg.eigvals(params[:, :-1]))[0]


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
