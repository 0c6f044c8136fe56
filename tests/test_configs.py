"""The study presets in configs/ load as configurations of their command and run through the CLI."""

import json
from pathlib import Path

import pytest

from arid.cli import main
from arid.dataio import write_csv
from arid.experiments import ExperimentConfig
from arid.model import TimeSeries

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# preset -> (command, flags that keep the run small)
PRESETS = {
    "order_scan": ("order-scan", ["--trials", "2", "--iterations", "3"]),
    "convergence_study": ("convergence-study", ["--trials", "2", "--iterations", "3"]),
    "var_demo": ("fit-var", ["--iterations", "3"]),
    "artefact_study": ("artefact-study", ["--iterations", "2"]),
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
    assert report["config"]["trials"] == (2 if "--trials" in small else 1)
    for file_name in report["outputs"].values():
        assert (out / file_name).is_file()


def test_var_demo_preset_takes_a_recording(tmp_path, capsys):
    path = tmp_path / "recording.csv"
    values = [[0.1 * ((3 * t + c) % 7) for c in range(3)] for t in range(40)]
    write_csv(TimeSeries(values, channel_names=("a", "b", "c")), path)
    argv = ["fit-var", "--config", str(CONFIGS / "var_demo.json"), "--input", str(path), "--has-header",
            "--iterations", "3", "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["input"] == str(path) and report["config"]["has_header"] is True
    assert "e_norm_theta" not in report["results"]
    assert len(report["results"]["model"]["A"]) == 3
    assert (report["results"]["converged"], report["results"]["stop_reason"]) == (False, "iteration_cap")
