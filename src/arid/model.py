"""Model containers, companion construction, and noisy state-space simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, NonFinite, NotConjugateClosed
from .numerics import _require_finite


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite multichannel series, one row per time step.

    ``values`` is (N, p); a 1-D array is accepted and treated as a single
    channel. The stored array is a read-only copy, so instances can be
    shared freely.
    """

    values: np.ndarray
    sample_rate_hz: float | None = None
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a nonempty (N, p) array")
        _require_finite("values", values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.sample_rate_hz is not None and not 0 < self.sample_rate_hz < np.inf:
            raise ValueError("sample_rate_hz must be positive and finite")
        if self.channel_names is not None:
            names = tuple(str(n) for n in self.channel_names)
            if len(names) != values.shape[1]:
                raise ValueError("need one channel name per column")
            object.__setattr__(self, "channel_names", names)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


def scalar_values(y: TimeSeries) -> np.ndarray:
    """Flat value vector of a single-channel series."""
    if y.n_channels != 1:
        raise ValueError(f"expected a single-channel series, got {y.n_channels} channels")
    return y.values[:, 0]


@dataclass(frozen=True, eq=False)
class ARParams:
    """Scalar autoregressive coefficients, newest lag first."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.array(self.theta, dtype=float))
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("theta must be a nonempty vector")
        _require_finite("theta", theta)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def order(self) -> int:
        return self.theta.size


@dataclass(frozen=True, eq=False)
class LinearSSModel:
    """Linear state-space model ``x_{t+1} = A x_t + nu_t``, ``y_t = C x_t + mu_t``."""

    A: np.ndarray
    C: np.ndarray
    structure: str = "general"

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        C = np.atleast_2d(np.array(self.C, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if C.shape[1] != A.shape[0]:
            raise ValueError("C must have one column per state")
        _require_finite("A", A)
        _require_finite("C", C)
        if self.structure not in ("companion", "general"):
            raise ValueError("structure must be 'companion' or 'general'")
        if self.structure == "companion":
            n = A.shape[0]
            expected = np.zeros((n, n))
            expected[:, 0] = A[:, 0]
            expected[np.arange(n - 1), np.arange(1, n)] = 1.0
            if not np.array_equal(A, expected):
                raise ValueError("companion structure requires theta in column 1 and a unit superdiagonal")
            e1 = np.zeros((1, n))
            e1[0, 0] = 1.0
            if not np.array_equal(C, e1):
                raise ValueError("companion structure requires C == (1, 0, ..., 0)")
        A.setflags(write=False)
        C.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def output_dim(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels and the seed of the generator that realizes them.

    Draws come from a Philox4x64 generator keyed directly by ``seed`` with
    normals via the ziggurat method, so identical specs reproduce identical
    trajectories bit for bit across platforms.
    """

    transition_std: float
    measurement_std: float
    seed: int

    def __post_init__(self):
        for name in ("transition_std", "measurement_std"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


def build_companion(params: ARParams) -> LinearSSModel:
    """Companion-form state-space model of a scalar AR(r) process.

    The coefficients sit in the first column of A with ones on the first
    superdiagonal, and C reads the first state coordinate; the spectrum of A
    is exactly the root set of the AR characteristic polynomial.
    """
    r = params.order
    A = np.zeros((r, r))
    A[:, 0] = params.theta
    A[np.arange(r - 1), np.arange(1, r)] = 1.0
    C = np.zeros((1, r))
    C[0, 0] = 1.0
    return LinearSSModel(A, C, structure="companion")


def coefficients_from_roots(roots: np.ndarray) -> ARParams:
    """AR coefficients whose characteristic polynomial has the given roots.

    The root multiset must be closed under conjugation so the expanded
    polynomial is real; the rounding-level imaginary residue left by
    ``np.poly``'s complex convolution is discarded.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    if roots.ndim != 1 or roots.size < 1:
        raise ValueError("roots must be a nonempty vector")
    if not np.all(np.isfinite(roots)):
        raise NonFinite("roots contain NaN or Inf")

    tol = 1e-8 * max(1.0, float(np.max(np.abs(roots))))
    unmatched = [z for z in roots if abs(z.imag) > tol]
    while unmatched:
        z = unmatched.pop()
        want = np.conj(z)
        for j, other in enumerate(unmatched):
            if abs(other - want) <= tol:
                unmatched.pop(j)
                break
        else:
            raise NotConjugateClosed(f"root {z} has no conjugate partner")

    return ARParams(-np.poly(roots).real[1:])


def oscillatory_ar5(radius: float = 1.0) -> ARParams:
    """AR(5) with five poles of the given magnitude spread over the left arc.

    With ``radius = 1`` the process is marginally stable and strongly
    oscillatory; shrink the radius slightly for a damped variant.
    """
    angles = 3.0 * np.pi / 5.0 + np.pi / 5.0 * np.arange(5)
    return coefficients_from_roots(radius * np.exp(1j * angles))


def signature_aligned_ar5() -> ARParams:
    """Oscillatory AR(5) whose one-step map depth-2 window signatures can express.

    A depth-2 signature of the (values, running sum) path over a length-4
    window exposes exactly two linear functionals of that window: the total
    increment y_t - y_{t-3} and the partial sum y_{t-2} + y_{t-1} + y_t. The
    coefficients here are alpha * increment + beta * partial sum plus a small
    fifth lag, theta = (alpha + beta, beta, beta, -alpha, eps) with
    alpha = 0.7, beta = 0.25, eps = 0.05, giving four complex poles with
    spectral radius 0.998. A depth-2 signature regression with r = 4 can
    therefore recover nearly all of the predictable structure, which makes
    this the right generator for the artefact-robustness experiment: the
    refit model has room to beat the artefact-damaged least-squares one.
    """
    return ARParams(np.array([0.95, 0.25, 0.25, -0.70, 0.05]))


def simulate(model: LinearSSModel, x1: np.ndarray, n_steps: int, noise: NoiseSpec) -> tuple[np.ndarray, TimeSeries]:
    """Roll the model forward from ``x1`` for ``n_steps`` with noisy readout.

    Returns the latent states (n_steps, n) and the measured series. Per time
    step the transition noise is drawn before the measurement noise, the
    whole stream in one call; for a companion model the transition noise is
    a scalar entering only the first state coordinate, which keeps the
    scalar AR recursion intact.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    n = model.state_dim
    if x1.shape != (n,):
        raise ValueError(f"x1 must have shape ({n},)")
    _require_finite("x1", x1)
    if n_steps < 1:
        raise HorizonTooShort("n_steps must be >= 1")

    p = model.output_dim
    companion = model.structure == "companion"
    k = 1 if companion else n
    # Step t draws k transition values, then p measurement values; the last
    # step draws no transition noise, so a zero row stands in for it.
    drawn = noise.generator().standard_normal(n_steps * (k + p) - k)
    steps = np.concatenate((drawn[:-p], np.zeros(k), drawn[-p:])).reshape(n_steps, k + p)
    nu = noise.transition_std * steps[:-1, :k]
    # A companion model's scalar kick goes in as a Python float, the cheapest per-step add.
    at, kicks = (0, nu[:, 0].tolist()) if companion else (slice(None), nu)
    states = np.empty((n_steps, n))
    states[0] = x = x1
    for t, kick in enumerate(kicks, start=1):
        x = model.A @ x
        x[at] += kick
        states[t] = x
    # One matrix-vector product per step, as C @ x_t alone would take, in one stacked call.
    measured = (model.C @ states[:, :, None])[:, :, 0] + noise.measurement_std * steps[:, k:]
    return states, TimeSeries(measured)


def delay_windows(values: np.ndarray, order_r: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, N - r, r p) delay windows along axis 1 of an unchecked (B, N, ...) stack, and their one-step targets.

    Window j of a member y is y[j + r - 1], ..., y[j], newest step first; its target y[j + r], a view.
    """
    values = np.ascontiguousarray(values, dtype=float)
    count, n, step = len(values), values.shape[1], values.strides[1]
    # Window t, a view, starts at step t + r - 1 and steps back. The windows are C-contiguous, which
    # batched products need to round each series as they round it alone: a copy, unless the view is.
    windows = np.ndarray((count, n - order_r, order_r, *values.shape[2:]), float, values, (order_r - 1) * step,
                         (values.strides[0], step, -step, *values.strides[2:]))
    return np.ascontiguousarray(windows.reshape(count, n - order_r, -1)), values[:, order_r:]


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Recipe for reproducible synthetic AR trials.

    Trial i uses seed ``base_seed + i``, so a family of trials is fully
    determined by one base seed.
    """

    theta: ARParams
    n_steps: int
    transition_std: float
    measurement_std: float
    base_seed: int

    def __post_init__(self):
        if self.n_steps <= self.theta.order:
            raise HorizonTooShort("n_steps must exceed the model order")

    def trajectory(self, trial: int = 0) -> tuple[np.ndarray, TimeSeries]:
        """Noiseless measured trajectory and noisy measurements for one trial, started from the state e_1."""
        model = build_companion(self.theta)
        x1 = np.zeros(self.theta.order)
        x1[0] = 1.0
        noise = NoiseSpec(self.transition_std, self.measurement_std, self.base_seed + trial)
        states, measured = simulate(model, x1, self.n_steps, noise)
        return states[:, 0], measured
