"""Model-order selection by scanning fits over candidate orders.

Two diagnostics are aggregated per candidate order: the final normalized
loss and the smallest eigenvalue magnitude of the fitted companion matrix.
The loss keeps falling until the candidate order reaches the true one and
then plateaus, while the smallest eigenvalue magnitude recovering toward
its true value distinguishes the refined fit from the least-squares
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linear import FitConfig, fit_ar, fit_ar_batch  # noqa: F401  (perfbench/tracing.py wraps fit_ar by name)
from .model import SyntheticSpec, TimeSeries
from .numerics import companion_eigenvalues


@dataclass(frozen=True)
class OrderScanTrial:
    """Diagnostics of one (order, trial) fit."""

    order_r: int
    trial: int
    normalized_loss: float
    min_eig_magnitude: float
    min_eig_iter1: float


@dataclass(frozen=True)
class OrderScanEntry:
    """Aggregated diagnostics for one candidate order."""

    order_r: int
    normalized_loss: float
    min_eig_magnitude: float
    min_eig_iter1: float


@dataclass(frozen=True, eq=False)
class OrderScanReport:
    """Scan results: per-order aggregates plus the raw per-trial records."""

    per_r: tuple[OrderScanEntry, ...]
    records: tuple[OrderScanTrial, ...]
    num_trials: int
    aggregation: str = "lower_median"


def lower_median(values) -> float:
    """Median taking the lower of the two central order statistics when even."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("need at least one value")
    return float(arr[(arr.size - 1) // 2])


def order_scan(source, r_values, config: FitConfig, num_trials: int = 1) -> OrderScanReport:
    """Fit every candidate order on every trial and aggregate by lower median.

    ``source`` is either a recorded ``TimeSeries`` (single trial only) or a
    ``SyntheticSpec`` whose trial i is drawn with seed ``base_seed + i``.
    Each trial's series is drawn once; the trials of one order are fitted
    as one batch, and records come out order by order, trial by trial.
    """
    r_values = [int(r) for r in r_values]
    if not r_values:
        raise ValueError("need at least one candidate order")
    for i, r in enumerate(r_values):
        if r in r_values[:i]:
            raise ValueError(f"candidate order {r} is repeated")
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    if isinstance(source, TimeSeries) and num_trials != 1:
        raise ValueError("multi-trial scans need a SyntheticSpec with a base seed")
    series = [source.trajectory(t)[1] for t in range(num_trials)] if isinstance(source, SyntheticSpec) else [source]

    records = []
    n = series[0].n_steps
    for r in r_values:
        results = fit_ar_batch(series, replace(config, order_r=r))
        # The first estimate and the last loss, read from the logs without building the histories.
        first = companion_eigenvalues(np.stack([result.theta_log[0] for result in results]))
        min_eig_iter1 = np.min(np.abs(first), axis=1)
        records.extend(
            OrderScanTrial(r, trial, float(result.loss_log[-1, 2]) / n, result.min_eig_magnitude, float(eig))
            for trial, (result, eig) in enumerate(zip(results, min_eig_iter1))
        )

    per_r = []
    for r in sorted(set(r_values)):
        rows = [rec for rec in records if rec.order_r == r]
        per_r.append(
            OrderScanEntry(
                r,
                lower_median([rec.normalized_loss for rec in rows]),
                lower_median([rec.min_eig_magnitude for rec in rows]),
                lower_median([rec.min_eig_iter1 for rec in rows]),
            )
        )
    return OrderScanReport(tuple(per_r), tuple(records), num_trials)
