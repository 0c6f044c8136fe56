"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from arid.dataio import write_csv
from arid.model import TimeSeries


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "arid", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("simulate", "fit-ar", "fit-var", "fit-nar", "order-scan", "artefact-study", "predict"):
        assert name in proc.stdout


def test_simulate_prints_report_and_writes_files(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("simulate", "--out-dir", str(out), "--n-steps", "40", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "simulate"
    assert report["results"]["n_steps"] == 40
    assert (out / "measurements.csv").exists()
    assert (out / "report.json").exists()


def test_flags_override_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_steps": 40, "seed": 1, "lambda": 0.5}))
    out = tmp_path / "run"
    proc = run_cli(
        "simulate", "--config", str(config_path), "--n-steps", "60", "--out-dir", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["config"]["n_steps"] == 60
    assert report["config"]["seed"] == 1
    assert report["config"]["lambda"] == 0.5


def test_invalid_parameter_exits_with_usage_code(tmp_path):
    proc = run_cli("fit-ar", "--rho", "0", "--out-dir", str(tmp_path), "--n-steps", "40")
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_unknown_config_key_exits_with_usage_code(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"no_such_knob": 1}))
    proc = run_cli("simulate", "--config", str(config_path), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2


def test_missing_input_file_exits_with_io_code(tmp_path):
    proc = run_cli("fit-ar", "--input", str(tmp_path / "absent.csv"), "--out-dir", str(tmp_path))
    assert proc.returncode == 4


def test_unparseable_input_exits_with_io_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    proc = run_cli("fit-ar", "--input", str(bad), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 4


def test_singular_fit_exits_with_numerical_code(tmp_path):
    constant = tmp_path / "constant.csv"
    write_csv(TimeSeries(np.full(30, 2.0)), constant)
    proc = run_cli(
        "fit-ar",
        "--input",
        str(constant),
        "--order",
        "2",
        "--lambda",
        "0",
        "--out-dir",
        str(tmp_path / "run"),
    )
    assert proc.returncode == 3


def test_order_scan_accepts_comma_separated_orders(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "order-scan",
        "--orders",
        "1,2,3",
        "--trials",
        "2",
        "--n-steps",
        "60",
        "--iterations",
        "3",
        "--out-dir",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [entry["order_r"] for entry in report["results"]["per_order"]] == [1, 2, 3]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_convergence_study_needs_one_or_more_trials(tmp_path, trials):
    proc = run_cli("convergence-study", "--trials", trials, "--n-steps", "40", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "trials" in proc.stderr and "convergence-study" in proc.stderr


def test_predict_without_report_exits_with_usage_code(tmp_path):
    series = tmp_path / "series.csv"
    write_csv(TimeSeries(np.arange(20.0)), series)
    proc = run_cli("predict", "--input", str(series), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2


def test_artefact_study_refit_beats_first_iteration(tmp_path):
    out = tmp_path / "run"
    proc = run_cli(
        "artefact-study",
        "--out-dir",
        str(out),
        "--n-steps",
        "400",
        "--order",
        "4",
        "--depth",
        "2",
        "--rho",
        "0.1",
        "--lambda",
        "0.001",
        "--iterations",
        "20",
        "--transition-std",
        "0.05",
        "--measurement-std",
        "0.02",
        "--seed",
        "0",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    results = report["results"]
    assert results["window_improved"] is True
    assert results["prediction_improved"] is True
    assert results["mse_final_iteration"] < results["mse_first_iteration"]
    assert results["rmse_denoised_window"] < results["rmse_raw_window"]
