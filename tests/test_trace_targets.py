"""The benchmark tracer wraps functions by name; every name it lists must exist.

`perfbench/tracing.py` skips a target it cannot resolve, and the per-layer
metrics that target feeds then drop out of the benchmark result. A rename in
`arid` therefore has to keep the old binding, which this test enforces.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
