"""End-to-end tests of the command-line interface, via subprocess and in process."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from arid.cli import build_parser, main
from arid.dataio import write_csv
from arid.experiments import KEYS
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
    config_path.write_text(json.dumps({"n_steps": 40, "seed": 1, "transition_std": 0.5}))
    out = tmp_path / "run"
    proc = run_cli(
        "simulate", "--config", str(config_path), "--n-steps", "60", "--out-dir", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["config"]["n_steps"] == 60
    assert report["config"]["seed"] == 1
    assert report["config"]["transition_std"] == 0.5


def test_invalid_parameter_exits_with_usage_code(tmp_path):
    proc = run_cli("fit-ar", "--rho", "0", "--out-dir", str(tmp_path), "--n-steps", "40")
    assert proc.returncode == 2
    assert proc.stderr.strip()


@pytest.mark.parametrize(
    "command, flag, value",
    [("fit-ar", "--lambda", "nan"), ("fit-ar", "--lambda", "inf"), ("fit-ar", "--rho", "inf"),
     ("fit-var", "--rho", "nan"), ("fit-nar", "--lambda", "nan"), ("fit-nar", "--rho", "inf"),
     ("fit-ar", "--convergence-tol", "inf"), ("fit-nar", "--convergence-tol", "inf"),
     ("fit-ar", "--transition-std", "nan"), ("fit-var", "--measurement-std", "inf"),
     ("artefact-study", "--artefact-std", "nan")],
)
def test_non_finite_config_value_exits_with_usage_code(tmp_path, command, flag, value):
    window = ("--t-start", "5", "--t-end", "10") if command == "artefact-study" else ()
    proc = run_cli(command, flag, value, *window, "--out-dir", str(tmp_path), "--n-steps", "40", "--iterations", "2")
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


@pytest.mark.parametrize(
    "command, flag, value, field",
    [("fit-ar", "--lambda", "nan", "lam"), ("fit-var", "--lambda", "-1", "lam"), ("fit-nar", "--lambda", "-1", "lam"),
     ("fit-ar", "--iterations", "0", "max_iterations"), ("fit-var", "--iterations", "0", "max_iterations"),
     ("fit-nar", "--iterations", "0", "max_iterations"), ("order-scan", "--iterations", "0", "max_iterations"),
     ("fit-ar", "--order", "0", "order_r"), ("fit-nar", "--order", "1", "order_r"),
     ("fit-nar", "--depth", "0", "depth_d"), ("artefact-study", "--depth", "0", "depth_d")],
)
def test_a_bad_setting_is_refused_under_the_key_typed(tmp_path, capsys, command, flag, value, field):
    key, window = flag[2:], ("--t-start", "5", "--t-end", "10") if command == "artefact-study" else ()
    assert main([command, flag, value, *window, "--n-steps", "40", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {key} must be" in err
    assert f"{field} must" not in err


@pytest.mark.parametrize("rate", ["inf", "0", "-2"])
def test_a_sample_rate_that_is_not_positive_and_finite_is_refused(tmp_path, capsys, rate):
    # An infinite rate would go into report.json as Infinity, which is not JSON.
    recording = tmp_path / "recording.csv"
    write_csv(TimeSeries(np.sin(np.arange(40.0))), recording)
    out_dir = tmp_path / "run"
    assert main(["fit-ar", "--input", str(recording), "--sample-rate-hz", rate, "--out-dir", str(out_dir)]) == 2
    assert "sample_rate_hz must be positive and finite" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


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


def test_a_var_fit_whose_refit_gram_overflows_exits_with_numerical_code(tmp_path):
    # Every value is finite, but X^T X of the refit is not.
    recording = tmp_path / "huge.csv"
    write_csv(TimeSeries(1e160 * np.random.default_rng(0).normal(size=(100, 2))), recording)
    proc = run_cli("fit-var", "--input", str(recording), "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == 3
    assert "normal equations overflow" in proc.stderr


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
        (("simulate", "--theta", ","), "theta is an empty list"),
        (("fit-ar", "--theta", ","), "theta is an empty list"),
    ],
)
def test_empty_or_repeated_list_exits_with_usage_code(tmp_path, args, named):
    proc = run_cli(*args, "--n-steps", "40", "--out-dir", str(tmp_path / "run"))
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
    # The command's own defaults are the demo's.
    proc = run_cli("artefact-study", "--out-dir", str(tmp_path / "run"), "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    results = report["results"]
    assert results["window_improved"] is True
    assert results["prediction_improved"] is True
    assert results["mse_final_iteration"] < results["mse_first_iteration"]
    assert results["rmse_denoised_window"] < results["rmse_raw_window"]


# ---------------------------------------------------------------------------
# one row of keys per command: its flags, its config-file keys and its echo

ALL_KEYS = set().union(*KEYS.values())
SWITCHES = {key for row in KEYS.values() for key, spec in row.items() if spec.type is bool}


def _flags(keys) -> set[str]:
    flags = {"--" + key.replace("_", "-") for key in keys}
    return flags | ({"--no-anchor-all"} if "anchor_all" in keys else set())


@pytest.mark.parametrize("command", sorted(KEYS))
def test_help_lists_exactly_the_keys_of_the_row(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | _flags(KEYS[command])


@pytest.mark.parametrize("command", sorted(KEYS))
def test_every_flag_the_command_does_not_read_exits_with_usage_code(command, capsys):
    unread = ALL_KEYS - set(KEYS[command])
    assert unread
    for key in sorted(unread):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, *(() if key in SWITCHES else ("1",))])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(KEYS))
def test_every_config_key_the_command_does_not_read_exits_with_usage_code(command, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    for key in sorted(ALL_KEYS - set(KEYS[command])):
        config_path.write_text(json.dumps({key: 1}))
        assert main([command, "--config", str(config_path), "--out-dir", str(tmp_path / "run")]) == 2
        assert f"{command} reads no configuration key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# Each command's small run; predict reads the fit-ar run's report.
SMALL_RUNS = {
    "simulate": ["--n-steps", "40"],
    "fit-ar": ["--n-steps", "60", "--iterations", "3", "--seed", "2"],
    "fit-var": ["--n-steps", "60", "--iterations", "3"],
    "fit-nar": ["--n-steps", "60", "--iterations", "3", "--order", "4"],
    "order-scan": ["--orders", "1,2", "--trials", "2", "--n-steps", "60", "--iterations", "3"],
    "convergence-study": ["--trials", "2", "--n-steps", "60", "--iterations", "3"],
    "artefact-study": ["--n-steps", "60", "--t-start", "20", "--t-end", "35", "--iterations", "2"],
    "predict": [],
}


@pytest.mark.parametrize("command", sorted(KEYS))
def test_a_reports_config_reruns_to_the_same_outputs(command, tmp_path, capsys):
    argv = [command, *SMALL_RUNS[command]]
    if command == "predict":
        assert main(["fit-ar", *SMALL_RUNS["fit-ar"], "--out-dir", str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        context = tmp_path / "context.csv"
        write_csv(TimeSeries(np.sin(np.arange(30.0))), context)
        argv += ["--report", str(tmp_path / "fit" / "report.json"), "--input", str(context)]
    assert main([*argv, "--out-dir", str(tmp_path / "first")]) == 0
    first = json.loads(capsys.readouterr().out)
    assert "command" not in first["config"] and set(first["config"]) == set(KEYS[command])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(first["config"]))
    assert main([command, "--config", str(config_path), "--out-dir", str(tmp_path / "again")]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["results"] == first["results"]
    assert {**again["config"], "out_dir": None} == {**first["config"], "out_dir": None}
    for name in first["outputs"].values():
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
