"""The benchmark tracer wraps functions by name; every name it lists must exist.

`perfbench/tracing.py` skips a target it cannot resolve, and the per-layer
metrics that target feeds then drop out of the benchmark result. A rename in
`arid` therefore has to keep the old binding, which this test enforces. A
hook that can no longer read its call's arguments (such as the file path of
``load_csv`` or ``write_csv``) marks its counters broken, and they drop out
too; traced CLI runs check for that, that the order-scan op feeds nonzero
AR step, assembly, refit, banded-solve and simulation counts, and that the
fit-var and artefact-study ops feed nonzero iteration counts and NAR step
times.

The VAR and NAR fits must also reach the block solver and the VAR
assembler through the names the tracer wraps: the fit-var op has to report
block-solve calls and assembly time, and the artefact-study op block-solve
calls. When the fits called a block solver of another name, these spans
read 0 on every VAR and NAR run while the names still resolved.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from arid.cli import main
from arid.dataio import write_csv
from arid.model import TimeSeries

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"trace targets that no longer resolve: {missing}"


def test_traced_cli_runs_feed_every_per_layer_metric(tmp_path, capsys):
    tracer = _load_tracing().Tracer()
    recording = tmp_path / "recording.csv"
    write_csv(TimeSeries([[0.1 * ((3 * t + c) % 7) for c in range(3)] for t in range(60)]), recording)
    ops = (
        ["order-scan", "--orders", "1,2,3", "--trials", "2", "--n-steps", "60", "--iterations", "3"],
        ["fit-var", "--input", str(recording), "--iterations", "3"],
        ["artefact-study", "--n-steps", "60", "--t-start", "20", "--t-end", "35", "--order", "4",
         "--lambda", "0.001", "--iterations", "2"],
    )
    for k, argv in enumerate(ops):
        assert tracer.run_op(k, lambda: main([*argv, "--out-dir", str(tmp_path / f"op{k}")])) == 0
    capsys.readouterr()
    assert not tracer.broken
    metrics = tracer.per_op_metrics()
    names = set().union(*metrics.values())
    # A fit that stops reporting its iterations, or a loop that binds the NAR
    # steps before the tracer wraps them, would zero these spans silently; so
    # would an order scan whose refit, banded solve or simulation bypasses
    # the names the tracer wraps.
    scan = metrics[0]
    assert scan["numerics.regularized_ls_calls"] > 0
    assert scan["numerics.banded_solve_calls"] > 0 and scan["model.simulate_calls"] > 0
    assert all(scan[name] > 0 for name in ("linear.param_step_calls", "linear.state_step_calls",
                                           "linear.evaluate_loss_calls", "linear.assemble_s"))
    var = metrics[1]
    assert var["linear.iterations"] > 0
    assert var["numerics.block_solve_calls"] > 0 and var["linear.assemble_s"] > 0
    assert metrics[2]["numerics.block_solve_calls"] > 0
    assert all(metrics[2][name] > 0 for name in ("nar.iterations", "nar.param_step_s", "nar.state_step_s"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py adds the trace.* metrics itself, from its own timings.
    wanted = {metric["name"] for metric in benchmark["per_layer"] if not metric["name"].startswith("trace.")}
    assert wanted - names == set()
