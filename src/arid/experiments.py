"""Config-driven experiment runner behind the command-line interface.

Every run is fully determined by its configuration and seed: reports and
output tables regenerate bit-identically, except for the wall-clock section
of the report, which is explicitly excluded from that guarantee.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .dataio import first_difference, inject_artefact, load_csv, write_csv, write_table
from .errors import AridError, ParseError
from .linear import FitConfig, FitResult, error_metrics, fit_ar, fit_ar_batch, fit_var1
from .model import (
    ARParams,
    LinearSSModel,
    NoiseSpec,
    SyntheticSpec,
    TimeSeries,
    oscillatory_ar5,
    scalar_values,
    signature_aligned_ar5,
    simulate,
)
from .nar import NARFitConfig, NARModel, fit_nar, nar_predict_one_step
from .numerics import companion_eigenvalues
from .selection import order_scan

SCHEMA_VERSION = 1

# Offset keeping artefact noise streams disjoint from trial simulation streams.
_ARTEFACT_SEED_OFFSET = 2**32


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class Key:
    """One configuration key: the type its flag parses, its ``--help`` text and its value when unset.

    A ``bool`` key is a switch: ``--name`` sets it, and ``--no-name`` clears
    one that defaults to True.
    """

    type: Callable
    help: str
    default: object = None


def _alternation(family: type) -> dict[str, Key]:
    """The alternation's keys; ridge, iteration cap and tolerance default to the fitting family's."""
    nar = family is NARFitConfig
    return {
        "rho": Key(float, "measurement fidelity weight", 0.1),
        "lambda": Key(float, "ridge regularization weight", family.lam),
        "iterations": Key(int, "alternation iteration cap", family.max_iterations),
        "convergence_tol": Key(
            float,
            f"relative change of the {'trajectory' if nar else 'objective'} that stops the alternation",
            family.state_change_tol if nar else family.convergence_tol,
        ),
    }


def _with_defaults(keys: dict[str, Key], **defaults) -> dict[str, Key]:
    """``keys`` with the defaults of some of them replaced."""
    return {**keys, **{name: dataclasses.replace(keys[name], default=value) for name, value in defaults.items()}}


_OUT = {"out_dir": Key(str, "directory for outputs and report.json", "runs/latest")}
_INPUT = {
    "input": Key(str, "CSV file with one column per channel"),
    "has_header": Key(bool, "treat the first CSV row as channel names", False),
    "sample_rate_hz": Key(float, "sample rate echoed into reports and outputs"),
    "channels": Key(_int_list, "1-based channel selection, e.g. 1,3"),
    "limit_steps": Key(int, "keep only the first so many time steps"),
    "first_difference": Key(bool, "difference the series before fitting", False),
}
_SIMULATION = {
    "seed": Key(int, "base seed for all random draws", 0),
    "n_steps": Key(int, "length of each simulated series", 200),
    "transition_std": Key(float, "standard deviation of the simulated transition noise", 0.01),
    "measurement_std": Key(float, "standard deviation of the simulated measurement noise", 1.0),
}
_SYNTHETIC = {**_SIMULATION, "theta": Key(_float_list, "autoregressive coefficients for the simulator, newest lag first")}
_ORDER = {"order": Key(int, "autoregressive window length", 5)}
_AR_FIT = {
    **_ORDER,
    **_alternation(FitConfig),
    "anchor_all": Key(bool, "measurement term on every sample; --no-anchor-all keeps the literal "
                            "objective, with none on the first r-1 samples", True),
}
_NAR_FIT = {**_ORDER, "depth": Key(int, "signature truncation depth", NARFitConfig.depth_d), **_alternation(NARFitConfig)}
_TRIALS = {"trials": Key(int, "number of independent trials", 1)}

# Each command's row: the keys it reads, and nothing else. Its parser has one
# flag per key, and its config files and report echo hold only these keys.
KEYS: dict[str, dict[str, Key]] = {
    "simulate": {**_OUT, **_SYNTHETIC},
    "fit-ar": {**_OUT, **_INPUT, **_SYNTHETIC, **_AR_FIT},
    # The flagless VAR demo simulates demo_var_matrix() at noise its fit can
    # separate, and stops on the tolerance; rho = 3 also holds for --input.
    "fit-var": _with_defaults({**_OUT, **_INPUT, **_SIMULATION, **_alternation(FitConfig)}, n_steps=400,
                              transition_std=0.1, measurement_std=0.1, rho=3.0, iterations=50),
    "fit-nar": {**_OUT, **_INPUT, **_SYNTHETIC, **_NAR_FIT},
    "order-scan": {
        **_OUT, **_INPUT, **_SYNTHETIC, **_AR_FIT, **_TRIALS,
        # The one key of any row that changes no result: each candidate of
        # orders replaces order, which is only checked (>= 1) first. Both scan
        # presets set it, the benchmark's among them, so it goes when that
        # preset drops it.
        "order": dataclasses.replace(_ORDER["order"], help="only checked (>= 1): each of --orders replaces it"),
        "orders": Key(_int_list, "window lengths to scan, e.g. 1,2,3,4,5; unset, 1 to 10"),
    },
    "convergence-study": {**_OUT, **_SYNTHETIC, **_AR_FIT, **_TRIALS},
    # The flagless artefact demo simulates a series long and quiet enough that
    # the refit both cleans the corrupted window and forecasts better.
    "artefact-study": _with_defaults({
        **_OUT, **_INPUT, **_SYNTHETIC, **_NAR_FIT,
        "channel": Key(int, "1-based channel receiving the artefact", 1),
        "t_start": Key(int, "1-based first corrupted step", 150),
        "t_end": Key(int, "1-based last corrupted step", 250),
        "artefact_std": Key(float, "standard deviation of the artefact noise", 2.0),
    }, order=4, n_steps=400, transition_std=0.05, measurement_std=0.02),
    "predict": {**_OUT, **_INPUT, "report": Key(str, "report.json of the run that fitted the model")},
}


def _row(command: str) -> dict[str, Key]:
    if command not in KEYS:
        raise ValueError(f"unknown command {command!r}")
    return KEYS[command]


def _attribute(key: str) -> str:
    """A key's attribute name on ExperimentConfig: ``lambda`` is a Python keyword, so it is ``lam``."""
    return "lam" if key == "lambda" else key


class ExperimentConfig(SimpleNamespace):
    """The settings of one command: every key of its row in KEYS, given or at its default."""

    def __init__(self, command: str, **values):
        row = {_attribute(key): spec for key, spec in _row(command).items()}
        settings = {name: spec.default for name, spec in row.items()}
        for name, value in values.items():
            if name not in row:
                raise ValueError(f"{command} reads no configuration key {name!r}")
            if value is not None and row[name].type in (_int_list, _float_list):
                value = tuple(value)
                if not value:
                    raise ValueError(f"{name} is an empty list; name at least one")
            settings[name] = value
        super().__init__(command=command, **settings)

    @classmethod
    def from_mapping(cls, command: str, data: dict) -> "ExperimentConfig":
        """Settings from configuration keys, as config files and reports spell them."""
        row = _row(command)
        for key in data:
            if key not in row:
                raise ValueError(f"{command} reads no configuration key {key!r}")
        return cls(command, **{_attribute(key): value for key, value in data.items()})

    def to_mapping(self) -> dict:
        """The keys of this command's row and their values, as ``from_mapping`` reads them back."""
        out = {}
        for key in KEYS[self.command]:
            value = getattr(self, _attribute(key))
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass
class RunReport:
    """Structured summary of one experiment run.

    Everything except ``timings`` is a deterministic function of the
    configuration; ``outputs`` maps logical names to file names relative to
    the run directory.
    """

    command: str
    config: dict
    results: dict
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "outputs": self.outputs,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check_keys(cfg: ExperimentConfig, least_order: int = 1) -> None:
    """Refuse a bad setting under its key, the name the user typed, not under a fit config's field name."""
    for key, ok, rule in (("order", getattr(cfg, "order", least_order) >= least_order, f">= {least_order}"),
                          ("depth", getattr(cfg, "depth", 1) >= 1, ">= 1"),
                          ("lambda", 0 <= cfg.lam < np.inf, "nonnegative and finite"),
                          ("iterations", cfg.iterations >= 1, ">= 1"),
                          ("convergence_tol", 0 < cfg.convergence_tol < np.inf, "positive and finite")):
        if not ok:
            raise ValueError(f"{key} must be {rule}, got {getattr(cfg, _attribute(key))}")


def _fit_config(cfg: ExperimentConfig) -> FitConfig:
    _check_keys(cfg)
    return FitConfig(cfg.order, cfg.rho, cfg.lam, cfg.iterations, cfg.convergence_tol, cfg.anchor_all)


def _nar_config(cfg: ExperimentConfig) -> NARFitConfig:
    _check_keys(cfg, least_order=2)
    return NARFitConfig(cfg.order, cfg.depth, cfg.rho, cfg.lam, cfg.iterations, cfg.convergence_tol)


def _synthetic_spec(
    cfg: ExperimentConfig,
    n_steps: int | None = None,
    default: Callable[[], ARParams] = oscillatory_ar5,
) -> SyntheticSpec:
    theta = ARParams(np.asarray(cfg.theta, dtype=float)) if cfg.theta else default()
    return SyntheticSpec(theta, n_steps or cfg.n_steps, cfg.transition_std, cfg.measurement_std, cfg.seed)


def _load_input_series(cfg: ExperimentConfig) -> TimeSeries:
    y = load_csv(cfg.input, cfg.has_header, cfg.sample_rate_hz)
    if cfg.channels:
        for c in cfg.channels:
            if not 1 <= c <= y.n_channels:
                raise ValueError(f"channel {c} outside 1..{y.n_channels}")
        cols = [c - 1 for c in cfg.channels]
        names = tuple(y.channel_names[i] for i in cols) if y.channel_names else None
        y = TimeSeries(y.values[:, cols], y.sample_rate_hz, names)
    if cfg.first_difference:
        y = first_difference(y)
    if cfg.limit_steps is not None:
        if cfg.limit_steps < 1:
            raise ValueError("limit_steps must be >= 1")
        y = TimeSeries(y.values[: cfg.limit_steps], y.sample_rate_hz, y.channel_names)
    return y


def _fit_report(result: FitResult, out: Path) -> tuple[dict, dict]:
    """Write a fit's denoised trajectory and loss history; return the results every fit reports."""
    write_csv(result.y_hat, out / "denoised.csv")
    rows = [(i, loss.dynamics_term, loss.measurement_term, loss.total, loss.normalized)
            for i, loss in enumerate(result.loss_history, start=1)]
    write_table(out / "loss_history.csv", rows, ("iteration", "dynamics", "measurement", "total", "normalized"))
    results = {
        "min_eig_magnitude": result.min_eig_magnitude,
        "iterations_run": result.iterations_run,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "final_loss": dataclasses.asdict(result.loss_history[-1]),
    }
    return results, {"denoised": "denoised.csv", "loss_history": "loss_history.csv"}


def _nar_model(model: NARModel, cfg: ExperimentConfig) -> dict:
    """A fitted NAR model as ``report.json`` stores it and ``predict`` reads it back."""
    return {"type": "nar", "order_r": cfg.order, "depth_d": cfg.depth,
            "A_sig": model.A_sig.tolist(), "C_sig": model.C_sig.tolist()}


def _padded(theta_hat: np.ndarray, theta_true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both coefficient vectors zero-padded to the longer order: a lag beyond a model's order has coefficient 0."""
    r = max(theta_hat.size, theta_true.size)
    return np.pad(theta_hat, (0, r - theta_hat.size)), np.pad(theta_true, (0, r - theta_true.size))


def _raw_error(y: TimeSeries, clean: np.ndarray) -> float:
    return float(np.linalg.norm(scalar_values(y) - clean) / np.linalg.norm(clean))


def _eig_list(values: np.ndarray) -> list:
    ordered = np.sort_complex(np.asarray(values, dtype=complex))
    return [[float(z.real), float(z.imag)] for z in ordered]


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _run_simulate(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    spec = _synthetic_spec(cfg)
    clean, y = spec.trajectory(0)
    write_csv(y, out / "measurements.csv")
    write_csv(TimeSeries(clean), out / "clean.csv")
    results = {
        "n_steps": y.n_steps,
        "order": spec.theta.order,
        "theta": [float(v) for v in spec.theta.theta],
        "sample_variance": float(np.var(scalar_values(y))),
    }
    return results, {"measurements": "measurements.csv", "clean": "clean.csv"}


def _run_fit_ar(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.input:
        y = _load_input_series(cfg)
        clean = None
        spec = None
    else:
        spec = _synthetic_spec(cfg)
        clean, y = spec.trajectory(0)
    result = fit_ar(y, _fit_config(cfg))
    results, outputs = _fit_report(result, out)
    results["model"] = {"type": "ar", "order_r": cfg.order, "theta": result.theta_hat.theta.tolist()}
    results["theta_first_iteration"] = result.estimate_history[0].theta.tolist()
    results["eigenvalues"] = _eig_list(companion_eigenvalues(result.theta_hat.theta))
    if spec is not None:
        theta_hat, theta_true = _padded(result.theta_hat.theta, spec.theta.theta)
        metrics = error_metrics(theta_hat, theta_true, scalar_values(result.y_hat), clean)
        results["e_norm_theta"] = metrics.e_norm_theta
        results["e_x"] = metrics.e_x
        results["e_x_raw"] = _raw_error(y, clean)
    return results, outputs


def demo_var_matrix(p: int = 4) -> np.ndarray:
    """Stable transition matrix with strong nearest-neighbor coupling."""
    A = 0.45 * np.eye(p)
    idx = np.arange(p)
    A[idx, (idx + 1) % p] += 0.30
    A[idx, (idx - 1) % p] += 0.15
    return A


def _run_fit_var(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.input:
        y = _load_input_series(cfg)
        truth = None
    else:
        A_true = demo_var_matrix()
        model = LinearSSModel(A_true, np.eye(A_true.shape[0]))
        noise = NoiseSpec(cfg.transition_std, cfg.measurement_std, cfg.seed)
        states, y = simulate(model, np.zeros(A_true.shape[0]), cfg.n_steps, noise)
        truth = (A_true, states)
    _check_keys(cfg)
    # r = 1: every value carries a measurement term already, so there is no anchor_all to read.
    result = fit_var1(y, FitConfig(1, cfg.rho, cfg.lam, cfg.iterations, cfg.convergence_tol))
    results, outputs = _fit_report(result, out)
    A_first = result.estimate_history[0]
    A_final = result.theta_hat

    def offdiag_norm(A):
        return float(np.linalg.norm(A - np.diag(np.diag(A))))

    results["model"] = {"type": "var1", "A": A_final.tolist()}
    results["A_first_iteration"] = A_first.tolist()
    results["offdiag_norm_first"] = offdiag_norm(A_first)
    results["offdiag_norm_final"] = offdiag_norm(A_final)
    if truth is not None:
        A_true, states = truth
        metrics = error_metrics(A_final, A_true, result.y_hat.values, states)
        results["e_norm_theta"] = metrics.e_norm_theta
        results["e_x"] = metrics.e_x
    return results, outputs


def _run_fit_nar(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.input:
        y = _load_input_series(cfg)
    else:
        _, y = _synthetic_spec(cfg).trajectory(0)
    result = fit_nar(y, _nar_config(cfg))
    results, outputs = _fit_report(result, out)
    results["model"] = _nar_model(result.theta_hat, cfg)
    return results, outputs


def _run_order_scan(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.input:
        source = _load_input_series(cfg)
    else:
        source = _synthetic_spec(cfg)
    r_values = cfg.orders or tuple(range(1, 11))
    report = order_scan(source, r_values, _fit_config(cfg), cfg.trials)
    trials = [(r.order_r, r.trial, r.normalized_loss, r.min_eig_magnitude, r.min_eig_iter1) for r in report.records]
    medians = [(e.order_r, e.normalized_loss, e.min_eig_magnitude, e.min_eig_iter1) for e in report.per_r]
    write_table(out / "scan_trials.csv", trials, ("order", "trial", "normalized_loss", "min_eig", "min_eig_iter1"))
    write_table(
        out / "scan_medians.csv", medians, ("order", "median_normalized_loss", "median_min_eig", "median_min_eig_iter1")
    )
    results = {
        "num_trials": report.num_trials,
        "aggregation": report.aggregation,
        "per_order": [dataclasses.asdict(entry) for entry in report.per_r],
    }
    return results, {"trials": "scan_trials.csv", "medians": "scan_medians.csv"}


def _run_convergence_study(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.trials < 1:
        raise ValueError(f"convergence-study needs trials >= 1, got {cfg.trials}")
    spec = _synthetic_spec(cfg)
    trials = [spec.trajectory(trial) for trial in range(cfg.trials)]
    fits = fit_ar_batch([y for _, y in trials], _fit_config(cfg))
    trial_rows, trace_rows = [], []
    for t, ((clean, y), result) in enumerate(zip(trials, fits)):
        theta_hat, theta_true = _padded(result.theta_hat.theta, spec.theta.theta)
        metrics = error_metrics(theta_hat, theta_true, scalar_values(result.y_hat), clean)
        trial_rows.append((t, metrics.e_norm_theta, metrics.e_x, _raw_error(y, clean)))
        for i, est in enumerate(result.estimate_history, start=1):
            est_theta, _ = _padded(est.theta, theta_true)
            trace_rows.append((t, i, np.linalg.norm(est_theta - theta_true) / np.linalg.norm(theta_true)))
    write_table(out / "trials.csv", trial_rows, ("trial", "e_norm_theta", "e_x", "e_x_raw"))
    write_table(out / "traces.csv", trace_rows, ("trial", "iteration", "e_norm_theta"))

    _, e_norms, e_xs, e_raws = np.array(trial_rows).T
    results = {
        "trials": cfg.trials,
        "count_e_norm_below_0_05": int(np.sum(e_norms < 0.05)),
        "count_e_x_improved": int(np.sum(e_xs < e_raws)),
        "median_e_norm_theta": float(np.median(e_norms)),
        "median_e_x": float(np.median(e_xs)),
        "median_e_x_raw": float(np.median(e_raws)),
    }
    return results, {"trials": "trials.csv", "traces": "traces.csv"}


def _run_artefact_study(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if cfg.input:
        y_full = _load_input_series(cfg)
        if y_full.n_channels != 1:
            raise ValueError("artefact-study expects a single channel; use channels to pick one")
        half = y_full.n_steps // 2
        train_clean = TimeSeries(y_full.values[:half], y_full.sample_rate_hz, y_full.channel_names)
        test = TimeSeries(y_full.values[half:], y_full.sample_rate_hz, y_full.channel_names)
        truth = scalar_values(train_clean)  # best available reference: the recording before injection
    else:
        # The artefact demo needs dynamics the depth-2 signature features can
        # express, otherwise both models sit at the same floor and the refit
        # cannot show its advantage.
        spec = _synthetic_spec(cfg, n_steps=2 * cfg.n_steps, default=signature_aligned_ar5)
        clean_full, y_full = spec.trajectory(0)
        half = cfg.n_steps
        train_clean = TimeSeries(y_full.values[:half])
        test = TimeSeries(y_full.values[half:])
        truth = clean_full[:half]
    if not 1 <= cfg.t_start <= cfg.t_end <= train_clean.n_steps:
        raise ValueError("artefact window must fall inside the training half")
    train = inject_artefact(
        train_clean, cfg.channel, cfg.t_start, cfg.t_end, cfg.artefact_std, cfg.seed + _ARTEFACT_SEED_OFFSET
    )
    result = fit_nar(train, _nar_config(cfg))
    window = slice(cfg.t_start - 1, cfg.t_end)
    rmse_raw = _rms(scalar_values(train)[window] - truth[window])
    rmse_denoised = _rms(scalar_values(result.y_hat)[window] - truth[window])

    first: NARModel = result.estimate_history[0]
    final: NARModel = result.theta_hat
    test_vals = scalar_values(test)
    preds_first = nar_predict_one_step(first, test, cfg.order, cfg.depth)
    preds_final = nar_predict_one_step(final, test, cfg.order, cfg.depth)
    actual = test_vals[cfg.order:]
    mse_first = float(np.mean(np.square(preds_first[:-1] - actual)))
    mse_final = float(np.mean(np.square(preds_final[:-1] - actual)))

    write_csv(train, out / "train_artefact.csv")
    write_csv(result.y_hat, out / "denoised.csv")
    write_table(
        out / "predictions.csv",
        np.column_stack((cfg.order + 1 + np.arange(actual.size), actual, preds_first[:-1], preds_final[:-1])),
        ("t", "actual", "predicted_first", "predicted_final"),
    )
    results = {
        "rmse_raw_window": rmse_raw,
        "rmse_denoised_window": rmse_denoised,
        "window_improved": bool(rmse_denoised < rmse_raw),
        "mse_first_iteration": mse_first,
        "mse_final_iteration": mse_final,
        "prediction_improved": bool(mse_final < mse_first),
        "iterations_run": result.iterations_run,
        "model": _nar_model(final, cfg),
    }
    outputs = {
        "train": "train_artefact.csv",
        "denoised": "denoised.csv",
        "predictions": "predictions.csv",
    }
    return results, outputs


def _run_predict(cfg: ExperimentConfig, out: Path) -> tuple[dict, dict]:
    if not cfg.report:
        raise ValueError("predict needs --report pointing at a previous run report")
    if not cfg.input:
        raise ValueError("predict needs --input with the context series")
    with open(cfg.report) as fh:
        try:
            stored = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{cfg.report}: {exc}") from exc
    model_dict = stored.get("results", {}).get("model")
    if not model_dict:
        raise ValueError(f"{cfg.report} holds no fitted model")
    y = _load_input_series(cfg)
    vals = scalar_values(y)
    if model_dict["type"] == "ar":
        theta = ARParams(np.asarray(model_dict["theta"], dtype=float))
        r = theta.order
        if vals.size < r:
            raise ValueError(f"context shorter than the model order {r}")
        windows = np.lib.stride_tricks.sliding_window_view(vals, r)[:, ::-1]
        preds = windows @ theta.theta
        order = r
    elif model_dict["type"] == "nar":
        model = NARModel(np.asarray(model_dict["A_sig"], dtype=float), np.asarray(model_dict["C_sig"], dtype=float))
        order = int(model_dict["order_r"])
        preds = nar_predict_one_step(model, y, order, int(model_dict["depth_d"]))
    else:
        raise ValueError(f"cannot predict with a model of type {model_dict['type']!r}")

    t = order + 1 + np.arange(preds.size)
    write_table(out / "predictions.csv", np.column_stack((t, preds)), ("t", "prediction"))
    results = {"n_predictions": int(preds.size), "model_type": model_dict["type"]}
    if preds.size > 1:
        actual = vals[order:]
        results["mse_one_step"] = float(np.mean(np.square(preds[:-1] - actual)))
    return results, {"predictions": "predictions.csv"}


_RUNNERS = {
    "simulate": _run_simulate,
    "fit-ar": _run_fit_ar,
    "fit-var": _run_fit_var,
    "fit-nar": _run_fit_nar,
    "order-scan": _run_order_scan,
    "convergence-study": _run_convergence_study,
    "artefact-study": _run_artefact_study,
    "predict": _run_predict,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run one configured experiment, writing its outputs and report to disk."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results, outputs = _RUNNERS[cfg.command](cfg, out)
    report = RunReport(
        command=cfg.command,
        config=cfg.to_mapping(),
        results=results,
        outputs=outputs,
        timings={"total_s": time.perf_counter() - start},
    )
    with open(out / "report.json", "w") as fh:
        fh.write(report.to_json() + "\n")
    return report
