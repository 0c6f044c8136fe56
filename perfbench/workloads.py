"""The four benchmark workloads: their inputs, CLI arguments and output checks.

Each op is one `arid` CLI command. Inputs come from the op seed alone; the
program sees only the generated CSV (var, var_wide) or the seed passed on
the command line (scan, nar, whose presets simulate internally), while the
ground truth stays here for the accuracy metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Acceptance criterion 1's bound on a rise of the VAR loss between iterations.
LOSS_RISE_TOL = 1e-9


def _seed_only(seed: int, work: Path) -> tuple[list[str], object]:
    """Inputs of a preset that simulates its own series from the seed."""
    return ["--seed", str(seed)], None


class CheckFailed(Exception):
    """An op's outputs are missing, malformed or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # Accuracy metrics this workload's outputs can score.
    accuracy: tuple[str, ...]
    fits_per_op: int
    # Ops every run makes, even past --seconds. The accuracy metrics are the
    # mean over exactly these ops, so they depend on the seed alone.
    accuracy_ops: int
    # Op k uses seed base + k * seed_stride; scan ops draw `trials` series
    # from consecutive seeds, so its stride keeps ops from sharing series.
    seed_stride: int
    # Flags that shrink the warm-up op to a single iteration.
    warmup_flags: tuple[str, ...]
    # (op seed, work dir) -> (extra CLI arguments, ground truth)
    prepare: Callable[[int, Path], tuple[list[str], object]]
    # (out dir, ground truth) -> accuracy metrics; raises CheckFailed
    check: Callable[[Path, object], dict[str, float]]

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.json"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load_report(out: Path) -> dict:
    try:
        with open(out / "report.json") as fh:
            return json.load(fh)["results"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"report.json: {exc}") from exc


def _load_table(path: Path, shape: tuple[int, int], skip_header: bool = False) -> np.ndarray:
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(skip_header))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    _require(table.shape == shape, f"{path.name}: shape {table.shape}, expected {shape}")
    _require(bool(np.all(np.isfinite(table))), f"{path.name}: non-finite values")
    return table


def _finite(value) -> float:
    _require(isinstance(value, (int, float)) and math.isfinite(value), f"non-finite result {value!r}")
    return float(value)


# ---- scan: order-scan over r = 1..10, 10 trials of oscillatory AR(5) -------

SCAN_ORDERS = tuple(range(1, 11))
SCAN_TRIALS = 10
TRUE_ORDER = 5


def _scan_check(out: Path, truth) -> dict[str, float]:
    rows = _load_report(out).get("per_order", [])
    _require(len(rows) == len(SCAN_ORDERS), f"{len(rows)} per_order rows, expected {len(SCAN_ORDERS)}")
    _require([row.get("order_r") for row in rows] == list(SCAN_ORDERS), "per_order rows out of order")
    for row in rows:
        for key in ("normalized_loss", "min_eig_magnitude", "min_eig_iter1"):
            _finite(row.get(key))
    _load_table(out / "scan_trials.csv", (len(SCAN_ORDERS) * SCAN_TRIALS, 5), skip_header=True)
    # The true process has all roots on the unit circle.
    return {"root_err": abs(1.0 - rows[TRUE_ORDER - 1]["min_eig_magnitude"])}


# ---- var, var_wide: fit-var on a coupled VAR(1) recording ------------------

TRANSITION_STD = 0.1
MEASUREMENT_STD = 0.1


def coupled_var_matrix(p: int) -> np.ndarray:
    """The transition matrix of `experiments.demo_var_matrix`, rebuilt here so
    the inputs do not depend on program code."""
    A = 0.45 * np.eye(p)
    idx = np.arange(p)
    A[idx, (idx + 1) % p] += 0.30
    A[idx, (idx - 1) % p] += 0.15
    return A


def simulate_var(p: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition matrix, noiseless states and noisy measurements."""
    rng = np.random.default_rng(seed)
    A = coupled_var_matrix(p)
    shocks = TRANSITION_STD * rng.standard_normal((n, p))
    states = np.zeros((n, p))
    for t in range(1, n):
        states[t] = A @ states[t - 1] + shocks[t]
    measured = states + MEASUREMENT_STD * rng.standard_normal((n, p))
    return A, states, measured


def _var_prepare(p: int, n: int):
    def prepare(seed: int, work: Path) -> tuple[list[str], object]:
        A, states, measured = simulate_var(p, n, seed)
        path = work / "input.csv"
        np.savetxt(path, measured, delimiter=",", fmt="%.17g")
        return ["--input", str(path), "--seed", str(seed)], (A, states)

    return prepare


def _var_check(out: Path, truth) -> dict[str, float]:
    A_true, states = truth
    p = A_true.shape[0]
    try:
        A_fit = np.array(_load_report(out)["model"]["A"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"report.json model: {exc}") from exc
    _require(A_fit.shape == (p, p), f"fitted A has shape {A_fit.shape}, expected {(p, p)}")
    _require(bool(np.all(np.isfinite(A_fit))), "fitted A is not finite")
    denoised = _load_table(out / "denoised.csv", states.shape)
    try:
        history = np.loadtxt(out / "loss_history.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"loss_history.csv: {exc}") from exc
    _require(history.shape[0] >= 1 and history.shape[1] == 5, f"loss_history.csv shape {history.shape}")
    _require(bool(np.all(np.isfinite(history))), "loss_history.csv: non-finite values")
    totals = history[:, 3]
    rises = np.diff(totals) / np.maximum(totals[:-1], 1e-30)
    _require(rises.size == 0 or float(rises.max()) <= LOSS_RISE_TOL, "VAR loss history increased")
    return {
        "theta_err": float(np.linalg.norm(A_fit - A_true) / np.linalg.norm(A_true)),
        "x_err": float(np.linalg.norm(denoised - states) / np.linalg.norm(states)),
    }


# ---- nar: artefact-study with the signature NAR fit ------------------------

NAR_TRAIN_STEPS = 400
NAR_ORDER = 4


def _nar_check(out: Path, truth) -> dict[str, float]:
    results = _load_report(out)
    values = {
        key: _finite(results.get(key))
        for key in ("rmse_raw_window", "rmse_denoised_window", "mse_first_iteration", "mse_final_iteration")
    }
    _require(values["rmse_raw_window"] > 0 and values["mse_first_iteration"] > 0, "zero reference error")
    _load_table(out / "denoised.csv", (NAR_TRAIN_STEPS, 1))
    _load_table(out / "predictions.csv", (NAR_TRAIN_STEPS - NAR_ORDER, 4), skip_header=True)
    return {
        "window_ratio": values["rmse_denoised_window"] / values["rmse_raw_window"],
        "forecast_ratio": values["mse_final_iteration"] / values["mse_first_iteration"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", "order-scan", ("root_err",), fits_per_op=len(SCAN_ORDERS) * SCAN_TRIALS,
                 accuracy_ops=10, seed_stride=SCAN_TRIALS, warmup_flags=("--iterations", "1", "--trials", "1"),
                 prepare=_seed_only, check=_scan_check),
        Workload("var", "fit-var", ("theta_err", "x_err"), fits_per_op=1, accuracy_ops=5, seed_stride=1,
                 warmup_flags=("--iterations", "1"), prepare=_var_prepare(4, 5000), check=_var_check),
        Workload("var_wide", "fit-var", ("theta_err", "x_err"), fits_per_op=1, accuracy_ops=10, seed_stride=1,
                 warmup_flags=("--iterations", "1"), prepare=_var_prepare(32, 500), check=_var_check),
        Workload("nar", "artefact-study", ("window_ratio", "forecast_ratio"), fits_per_op=1, accuracy_ops=48,
                 seed_stride=1, warmup_flags=("--iterations", "1"), prepare=_seed_only, check=_nar_check),
    )
}

ACCURACY_METRICS = ("root_err", "theta_err", "x_err", "window_ratio", "forecast_ratio")
