"""The study presets in configs/ load as configurations of their command and run through the CLI;
the benchmark presets in perfbench/configs/ parse with the arguments its workloads give them."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from arid.cli import build_parser, config_from_args, main
from arid.dataio import write_csv
from arid.experiments import ExperimentConfig
from arid.model import TimeSeries

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH = CONFIGS.parent / "perfbench"

# preset -> (command, flags that keep the run small)
PRESETS = {
    "order_scan": ("order-scan", ["--trials", "2", "--iterations", "3"]),
    "convergence_study": ("convergence-study", ["--trials", "2", "--iterations", "3"]),
}


def _preset(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def test_every_preset_file_is_covered():
    assert sorted(path.stem for path in CONFIGS.glob("*.json")) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_loads_for_its_command(name):
    data = _preset(name)
    mapping = ExperimentConfig.from_mapping(PRESETS[name][0], data).to_mapping()
    assert {key: mapping[key] for key in data} == data


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_runs_through_the_cli_into_its_out_dir(name, tmp_path, monkeypatch, capsys):
    command, small = PRESETS[name]
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(CONFIGS / f"{name}.json"), *small]) == 0
    report = json.loads(capsys.readouterr().out)
    out = tmp_path / _preset(name)["out_dir"]
    assert json.loads((out / "report.json").read_text())["results"] == report["results"]
    assert {flag: report["config"][flag[2:]] for flag in small[::2]} == {
        flag: int(value) for flag, value in zip(small[::2], small[1::2])
    }
    for file_name in report["outputs"].values():
        assert (out / file_name).is_file()


def test_var_demo_preset_takes_a_recording(tmp_path, capsys):
    path = tmp_path / "recording.csv"
    values = [[0.1 * ((3 * t + c) % 7) for c in range(3)] for t in range(40)]
    write_csv(TimeSeries(values, channel_names=("a", "b", "c")), path)
    argv = ["fit-var", "--input", str(path), "--has-header", "--iterations", "3", "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["input"] == str(path) and report["config"]["has_header"] is True
    # The flagless demo's rho holds for a recording too.
    assert report["config"]["rho"] == 3.0
    assert "e_norm_theta" not in report["results"]
    assert len(report["results"]["model"]["A"]) == 3
    assert (report["results"]["converged"], report["results"]["stop_reason"]) == (False, "iteration_cap")


def _load_workloads():
    # Read-only import of the benchmark's workload table; its dataclasses need the module registered.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_preset_parses_for_its_workload_command(name, tmp_path):
    # The arguments of a benchmark op and its warm-up: a preset key or a flag
    # the command does not read would make every op of the workload exit 2.
    workload = WORKLOADS[name]
    assert workload.config_path == BENCH / "configs" / f"{name}.json"
    extra, _ = workload.prepare(0, tmp_path)
    argv = [workload.command, "--config", str(workload.config_path), "--out-dir", str(tmp_path / "out"), *extra]
    for flags in ((), workload.warmup_flags):
        assert config_from_args(build_parser().parse_args([*argv, *flags])).command == workload.command
