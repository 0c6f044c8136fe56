"""Tests for experiment configuration, orchestration, and report output."""

import dataclasses
import json

import numpy as np
import pytest

from arid import experiments
from arid.experiments import KEYS, ExperimentConfig, run_experiment
from arid.linear import FitConfig
from arid.model import SyntheticSpec, TimeSeries, oscillatory_ar5
from arid.dataio import write_csv
from arid.nar import NARFitConfig, fit_nar

# ---------------------------------------------------------------------------
# configuration mapping


def test_lambda_key_maps_to_lam_field():
    cfg = ExperimentConfig.from_mapping("fit-ar", {"lambda": 0.25})
    assert cfg.lam == 0.25


def test_unknown_key_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig.from_mapping("fit-ar", {"no_such_knob": 1})


def test_unknown_command_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(command="transmogrify")


def test_mapping_round_trip():
    cfg = ExperimentConfig.from_mapping(
        "order-scan", {"lambda": 0.1, "orders": [1, 2, 3], "seed": 5, "trials": 7}
    )
    mapping = cfg.to_mapping()
    assert mapping["lambda"] == 0.1
    assert "lam" not in mapping
    assert mapping["orders"] == [1, 2, 3]
    rebuilt = ExperimentConfig.from_mapping("order-scan", {k: v for k, v in mapping.items() if k != "command"})
    assert rebuilt == cfg


def test_sequence_fields_normalized_to_tuples():
    cfg = ExperimentConfig(command="simulate", theta=[0.5, 0.1])
    assert cfg.theta == (0.5, 0.1)


# ---------------------------------------------------------------------------
# runners


def report_without_timings(report) -> dict:
    data = report.to_dict()
    data.pop("timings")
    return data


def test_simulate_is_deterministic(tmp_path):
    config_a = ExperimentConfig(command="simulate", out_dir=str(tmp_path / "a"), n_steps=50, seed=3)
    config_b = ExperimentConfig(command="simulate", out_dir=str(tmp_path / "b"), n_steps=50, seed=3)
    report_a = run_experiment(config_a)
    report_b = run_experiment(config_b)
    assert (tmp_path / "a" / "measurements.csv").read_text() == (
        tmp_path / "b" / "measurements.csv"
    ).read_text()
    assert (tmp_path / "a" / "clean.csv").exists()
    assert report_a.results == report_b.results
    assert report_a.results["n_steps"] == 50


def test_report_json_schema(tmp_path):
    config = ExperimentConfig(command="simulate", out_dir=str(tmp_path), n_steps=30)
    run_experiment(config)
    stored = json.loads((tmp_path / "report.json").read_text())
    assert stored["schema_version"] == 1
    assert stored["command"] == "simulate"
    assert stored["config"]["n_steps"] == 30
    assert "transition_std" in stored["config"]


def test_fit_ar_synthetic_reports_ground_truth_errors(tmp_path):
    config = ExperimentConfig(
        command="fit-ar", out_dir=str(tmp_path), n_steps=100, iterations=5, seed=1
    )
    report = run_experiment(config)
    assert len(report.results["model"]["theta"]) == 5
    assert report.results["model"]["type"] == "ar"
    assert "e_norm_theta" in report.results
    assert "e_x" in report.results
    assert "e_x_raw" in report.results
    assert len(report.results["eigenvalues"]) == 5
    denoised = (tmp_path / "denoised.csv").read_text().strip().splitlines()
    assert len(denoised) == 100
    losses = (tmp_path / "loss_history.csv").read_text().strip().splitlines()
    assert len(losses) == report.results["iterations_run"] + 1
    assert (report.results["converged"], report.results["stop_reason"]) == (False, "iteration_cap")


def test_fit_ar_deterministic_up_to_timings(tmp_path):
    config_a = ExperimentConfig(command="fit-ar", out_dir=str(tmp_path / "a"), n_steps=80, iterations=4)
    config_b = ExperimentConfig(command="fit-ar", out_dir=str(tmp_path / "b"), n_steps=80, iterations=4)
    report_a = report_without_timings(run_experiment(config_a))
    report_b = report_without_timings(run_experiment(config_b))
    report_a["config"].pop("out_dir")
    report_b["config"].pop("out_dir")
    assert report_a == report_b


def test_fit_ar_on_recorded_input_omits_truth_metrics(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=91))
    path = tmp_path / "input.csv"
    write_csv(TimeSeries(rng.normal(size=60)), path)
    config = ExperimentConfig(
        command="fit-ar", input=str(path), out_dir=str(tmp_path / "run"), order=2, iterations=3
    )
    report = run_experiment(config)
    assert "e_norm_theta" not in report.results
    assert "e_x" not in report.results


def test_order_scan_outputs_sorted_medians(tmp_path):
    config = ExperimentConfig(
        command="order-scan",
        out_dir=str(tmp_path),
        orders=(3, 1, 2),
        trials=2,
        n_steps=60,
        iterations=3,
    )
    report = run_experiment(config)
    scanned = [entry["order_r"] for entry in report.results["per_order"]]
    assert scanned == [1, 2, 3]
    medians = (tmp_path / "scan_medians.csv").read_text().strip().splitlines()
    assert len(medians) == 4
    trials = (tmp_path / "scan_trials.csv").read_text().strip().splitlines()
    assert len(trials) == 1 + 3 * 2


def test_fit_nar_reports_signature_model(tmp_path):
    config = ExperimentConfig(
        command="fit-nar",
        out_dir=str(tmp_path),
        n_steps=60,
        order=4,
        depth=2,
        lam=0.001,
        iterations=2,
    )
    report = run_experiment(config)
    model = report.results["model"]
    assert model["type"] == "nar"
    assert len(model["A_sig"]) == 7
    assert len(model["A_sig"][0]) == 7
    assert len(model["C_sig"]) == 7
    assert report.results["iterations_run"] == 2
    assert (report.results["converged"], report.results["stop_reason"]) == (False, "iteration_cap")


def test_artefact_study_reports_window_and_prediction_metrics(tmp_path):
    config = ExperimentConfig(
        command="artefact-study",
        out_dir=str(tmp_path),
        n_steps=60,
        order=4,
        depth=2,
        lam=0.001,
        iterations=2,
        transition_std=0.05,
        measurement_std=0.02,
        t_start=20,
        t_end=35,
        artefact_std=2.0,
        seed=0,
    )
    report = run_experiment(config)
    results = report.results
    for key in (
        "rmse_raw_window",
        "rmse_denoised_window",
        "window_improved",
        "mse_first_iteration",
        "mse_final_iteration",
        "prediction_improved",
    ):
        assert key in results
    assert results["rmse_raw_window"] > 0
    assert isinstance(results["window_improved"], bool)
    assert (tmp_path / "train_artefact.csv").exists()
    assert (tmp_path / "predictions.csv").exists()


def test_predict_from_ar_report_matches_manual_windows(tmp_path):
    fit_dir = tmp_path / "fit"
    config = ExperimentConfig(command="fit-ar", out_dir=str(fit_dir), n_steps=80, iterations=3)
    fit_report = run_experiment(config)
    theta = np.asarray(fit_report.results["model"]["theta"])

    rng = np.random.Generator(np.random.Philox(key=92))
    context = rng.normal(size=30)
    context_path = tmp_path / "context.csv"
    write_csv(TimeSeries(context), context_path)

    predict_dir = tmp_path / "predict"
    predict_config = ExperimentConfig(
        command="predict",
        input=str(context_path),
        report=str(fit_dir / "report.json"),
        out_dir=str(predict_dir),
    )
    predict_report = run_experiment(predict_config)
    assert predict_report.results["model_type"] == "ar"
    assert "mse_one_step" in predict_report.results

    lines = (predict_dir / "predictions.csv").read_text().strip().splitlines()[1:]
    preds = np.array([float(line.split(",")[1]) for line in lines])
    windows = np.lib.stride_tricks.sliding_window_view(context, 5)[:, ::-1]
    np.testing.assert_allclose(preds, windows @ theta, rtol=0, atol=1e-12)


def test_predict_requires_report_and_input(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(command="predict", out_dir=str(tmp_path)))


# ---------------------------------------------------------------------------
# fits at an order other than the simulator's


@pytest.mark.parametrize("order, theta", [(4, None), (7, None), (3, (0.5, -0.2))])
def test_fit_ar_error_pads_the_shorter_coefficient_vector_with_zeros(tmp_path, order, theta):
    config = ExperimentConfig(
        command="fit-ar", out_dir=str(tmp_path), n_steps=80, iterations=4, seed=2, order=order, theta=theta
    )
    report = run_experiment(config)
    truth = run_experiment(ExperimentConfig(command="simulate", out_dir=str(tmp_path / "sim"), theta=theta))
    theta_hat = np.asarray(report.results["model"]["theta"])
    theta_true = np.asarray(truth.results["theta"])
    r = max(theta_hat.size, theta_true.size)
    gap = np.pad(theta_hat, (0, r - theta_hat.size)) - np.pad(theta_true, (0, r - theta_true.size))
    assert report.results["e_norm_theta"] == pytest.approx(np.linalg.norm(gap) / np.linalg.norm(theta_true), rel=1e-15)


def test_convergence_study_below_the_true_order_traces_padded_errors(tmp_path):
    config = ExperimentConfig(
        command="convergence-study", out_dir=str(tmp_path), n_steps=80, iterations=4, trials=2, order=3
    )
    report = run_experiment(config)
    assert np.isfinite(report.results["median_e_norm_theta"])
    trials = np.loadtxt(tmp_path / "trials.csv", delimiter=",", skiprows=1)
    traces = np.loadtxt(tmp_path / "traces.csv", delimiter=",", skiprows=1)
    assert trials.shape == (2, 4) and np.isfinite(trials).all()
    assert np.isfinite(traces).all()
    # The last traced estimate is the final one, whose error trials.csv reports.
    for t in range(2):
        assert traces[traces[:, 0] == t][-1, 2] == trials[t, 1]


# ---------------------------------------------------------------------------
# defaults and keys of each command's row


@pytest.mark.parametrize("command, family", [("fit-ar", FitConfig), ("fit-var", FitConfig), ("order-scan", FitConfig),
                                             ("convergence-study", FitConfig), ("fit-nar", NARFitConfig),
                                             ("artefact-study", NARFitConfig)])
def test_unset_ridge_cap_and_tolerance_are_the_fitting_familys(command, family):
    cfg = ExperimentConfig(command)
    tol = family.state_change_tol if family is NARFitConfig else family.convergence_tol
    # The flagless VAR demo caps its alternation at 50 iterations.
    cap = 50 if command == "fit-var" else family.max_iterations
    assert (cfg.lam, cfg.iterations, cfg.convergence_tol) == (family.lam, cap, tol)


@pytest.mark.parametrize("seed", range(5))
def test_flagless_var_fit_stops_on_the_tolerance(seed, tmp_path):
    report = run_experiment(ExperimentConfig("fit-var", out_dir=str(tmp_path), seed=seed))
    assert report.results["stop_reason"] == "tolerance"
    assert report.results["e_norm_theta"] < 0.5


@pytest.mark.parametrize("seed", range(5))
def test_flagless_artefact_study_cleans_the_window_and_forecasts_better(seed, tmp_path):
    results = run_experiment(ExperimentConfig("artefact-study", out_dir=str(tmp_path), seed=seed)).results
    assert (results["window_improved"], results["prediction_improved"]) == (True, True)


def test_flagless_nar_fit_is_the_nar_fit_config_fit(tmp_path):
    report = run_experiment(ExperimentConfig("fit-nar", out_dir=str(tmp_path), n_steps=80))
    _, y = SyntheticSpec(oscillatory_ar5(), 80, 0.01, 1.0, 0).trajectory(0)
    direct = fit_nar(y, NARFitConfig(order_r=5))
    assert report.results["iterations_run"] == direct.iterations_run <= NARFitConfig.max_iterations
    assert report.results["final_loss"] == dataclasses.asdict(direct.loss_history[-1])


def _series_csv(path, n_channels: int = 1):
    rng = np.random.Generator(np.random.Philox(key=93))
    write_csv(TimeSeries(rng.normal(size=(120, n_channels))), path)
    return str(path)


@pytest.mark.parametrize("command", sorted(KEYS))
def test_every_key_of_a_row_is_read_by_its_command(command, tmp_path):
    # Each runner, on simulated data and (where it takes one) on a recording,
    # must between them read every key of its row.
    small = {"n_steps": 60, "iterations": 2, "trials": 2, "orders": (1, 2), "t_start": 10, "t_end": 20}
    runs = [{}]
    if "input" in KEYS[command]:
        runs.append({"input": _series_csv(tmp_path / "series.csv", 2 if command == "fit-var" else 1), "trials": 1})
    if command == "predict":
        run_experiment(ExperimentConfig("fit-ar", out_dir=str(tmp_path / "fit"), n_steps=60, iterations=2))
        runs = [{"input": runs[1]["input"], "report": str(tmp_path / "fit" / "report.json")}]
    read = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    for k, values in enumerate(runs):
        kwargs = {name: value for name, value in {**small, **values}.items() if name in KEYS[command]}
        cfg = Recording(command, **kwargs)
        (tmp_path / f"run{k}").mkdir()
        experiments._RUNNERS[command](cfg, tmp_path / f"run{k}")
    assert {"lambda" if name == "lam" else name for name in read} >= set(KEYS[command]) - {"out_dir"}
