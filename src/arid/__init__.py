"""Autoregressive identification from noisy measurements.

Alternating least-squares estimation of linear and signature-based nonlinear
autoregressive models, where both the dynamics and the latent noise-free
trajectory are estimated jointly.
"""

from .errors import (
    AridError,
    EmbeddingTooShort,
    HorizonTooShort,
    IndexOutOfRange,
    NoConvergence,
    NonFinite,
    NotConjugateClosed,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
    SingularSystem,
    ZeroNormReference,
)
from .linear import (
    ErrorMetrics,
    FitConfig,
    FitResult,
    LossBreakdown,
    error_metrics,
    evaluate_loss,
    fit_ar,
    fit_ar_batch,
    fit_var1,
    param_step,
    state_step,
)
from .model import (
    ARParams,
    LinearSSModel,
    NoiseSpec,
    SyntheticSpec,
    TimeSeries,
    build_companion,
    coefficients_from_roots,
    delay_windows,
    oscillatory_ar5,
    simulate,
)
from .nar import NARFitConfig, NARModel, fit_nar, nar_predict_one_step
from .numerics import companion_eigenvalues, solve_regularized_ls
from .selection import OrderScanReport, lower_median, order_scan
from .signature import sig_dim

__version__ = "0.1.0"

__all__ = [
    "ARParams",
    "AridError",
    "EmbeddingTooShort",
    "ErrorMetrics",
    "FitConfig",
    "FitResult",
    "HorizonTooShort",
    "IndexOutOfRange",
    "LinearSSModel",
    "LossBreakdown",
    "NARFitConfig",
    "NARModel",
    "NoConvergence",
    "NoiseSpec",
    "NonFinite",
    "NotConjugateClosed",
    "NotPositiveDefinite",
    "OrderScanReport",
    "ParseError",
    "RaggedRows",
    "SingularSystem",
    "SyntheticSpec",
    "TimeSeries",
    "ZeroNormReference",
    "build_companion",
    "coefficients_from_roots",
    "companion_eigenvalues",
    "delay_windows",
    "error_metrics",
    "evaluate_loss",
    "fit_ar",
    "fit_ar_batch",
    "fit_nar",
    "fit_var1",
    "lower_median",
    "nar_predict_one_step",
    "order_scan",
    "oscillatory_ar5",
    "param_step",
    "sig_dim",
    "simulate",
    "solve_regularized_ls",
    "state_step",
]
