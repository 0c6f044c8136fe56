"""End-to-end tests of the command-line interface via subprocess."""

import json
import subprocess
import sys

import numpy as np
import pytest

from arid.cli import build_parser
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


@pytest.mark.parametrize(
    "command, flag, value",
    [("fit-ar", "--lambda", "nan"), ("fit-ar", "--lambda", "inf"), ("fit-ar", "--rho", "inf"),
     ("fit-var", "--rho", "nan"), ("fit-nar", "--lambda", "nan"), ("fit-nar", "--rho", "inf"),
     ("fit-ar", "--convergence-tol", "inf"), ("fit-nar", "--convergence-tol", "inf")],
)
def test_non_finite_config_value_exits_with_usage_code(tmp_path, command, flag, value):
    proc = run_cli(command, flag, value, "--out-dir", str(tmp_path), "--n-steps", "40", "--iterations", "2")
    assert proc.returncode == 2
    assert "must be" in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("command", ["fit-nar", "artefact-study"])
def test_nar_commands_stop_on_the_convergence_tol_they_echo(tmp_path, command):
    # The tolerance bounds the relative change of the trajectory; unset, it is
    # NARFitConfig's 1e-8. What is printed is the report as written.
    args = (command, "--seed", "5", "--order", "4", "--lambda", "0.001", "--iterations", "20")
    if command == "artefact-study":
        args += ("--n-steps", "120", "--t-start", "30", "--t-end", "60")
    runs = {}
    for tol in ("1e-2", "1e-12", None):
        out = tmp_path / f"run_{tol}"
        proc = run_cli(*args, *(("--convergence-tol", tol) if tol else ()), "--out-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (out / "report.json").read_text()
        runs[tol] = json.loads(proc.stdout)
    assert [runs[tol]["config"]["convergence_tol"] for tol in runs] == [1e-2, 1e-12, 1e-8]
    loose, tight, unset = (runs[tol]["results"]["iterations_run"] for tol in runs)
    assert loose < tight == 20
    assert loose <= unset <= tight
    if command == "fit-nar":
        assert runs["1e-2"]["results"]["stop_reason"] == "tolerance"
        assert runs["1e-12"]["results"]["stop_reason"] == "iteration_cap"


@pytest.mark.parametrize("command", ["fit-nar", "artefact-study"])
def test_nar_commands_refuse_a_bad_tolerance_under_the_name_typed(tmp_path, command):
    args = (command, "--seed", "5", "--order", "4", "--convergence-tol", "0", "--out-dir", str(tmp_path))
    if command == "artefact-study":
        args += ("--n-steps", "120", "--t-start", "30", "--t-end", "60")
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "convergence_tol must be positive and finite, got 0.0" in proc.stderr
    assert "state_change_tol" not in proc.stderr


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


@pytest.mark.parametrize(
    "args, named",
    [
        (("order-scan", "--orders", "2,2"), "order 2 is repeated"),
        (("order-scan", "--orders", ","), "orders is an empty list"),
        (("fit-var", "--channels", ","), "channels is an empty list"),
    ],
)
def test_empty_or_repeated_list_exits_with_usage_code(tmp_path, args, named):
    proc = run_cli(*args, "--n-steps", "40", "--iterations", "2", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert named in proc.stderr


def test_empty_orders_in_config_file_exit_with_usage_code(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"orders": []}))
    proc = run_cli("order-scan", "--config", str(config_path), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "orders is an empty list" in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_convergence_study_needs_one_or_more_trials(tmp_path, trials):
    proc = run_cli("convergence-study", "--trials", trials, "--n-steps", "40", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2
    assert "trials" in proc.stderr and "convergence-study" in proc.stderr


@pytest.mark.parametrize(
    "flags", [("fit-ar", "--order", "4"), ("fit-ar", "--theta", "0.5,-0.2", "--order", "3")]
)
def test_fit_ar_at_another_order_than_the_simulator_succeeds(tmp_path, flags):
    proc = run_cli(*flags, "--n-steps", "80", "--iterations", "4", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert np.isfinite(json.loads(proc.stdout)["results"]["e_norm_theta"])


def test_convergence_study_at_another_order_than_the_simulator_succeeds(tmp_path):
    proc = run_cli(
        "convergence-study", "--order", "4", "--trials", "2", "--n-steps", "80", "--iterations", "4",
        "--out-dir", str(tmp_path / "run"),
    )
    assert proc.returncode == 0, proc.stderr
    assert np.isfinite(json.loads(proc.stdout)["results"]["median_e_norm_theta"])


def test_non_finite_cell_exits_with_numerical_code_naming_its_cell(tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("left,right\n1,2\n3,nan\n5,6\n")
    proc = run_cli("fit-var", "--input", str(series), "--has-header", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 3
    assert "row 3, column 2" in proc.stderr


def test_parser_is_built_once_and_keeps_no_state_between_parses():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["order-scan", "--orders", "1,2", "--seed", "4", "--anchor-all"])
    second = build_parser().parse_args(["order-scan"])
    assert (first.orders, first.seed, first.anchor_all) == ([1, 2], 4, True)
    assert (second.orders, second.seed, second.anchor_all) == (None, None, None)


def test_predict_without_report_exits_with_usage_code(tmp_path):
    series = tmp_path / "series.csv"
    write_csv(TimeSeries(np.arange(20.0)), series)
    proc = run_cli("predict", "--input", str(series), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 2


def test_artefact_study_runs_with_no_flags(tmp_path):
    # The default artefact window has to fall inside the default training half.
    proc = run_cli("artefact-study", "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    config = json.loads(proc.stdout)["config"]
    assert 1 <= config["t_start"] <= config["t_end"] <= config["n_steps"]


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
