"""In-memory span tracing around the public functions of each `arid` module.

Functions are wrapped at the name each caller looks them up by (for example
``arid.linear.solve_banded_spd``, the binding ``fit_ar`` reaches through), so
no file of the program changes. A target that no longer exists is skipped and
the metrics fed by it go missing; the benchmark never crashes on a rename.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

OP_SPAN = "cli.main"

# (module, attribute, span). The span name is "<layer>.<stem>"; the layer is
# the module that defines the function, whichever module calls it.
TARGETS = (
    ("arid.cli", "run_experiment", "experiments.run_experiment"),
    ("arid.experiments", "order_scan", "selection.order_scan"),
    ("arid.experiments", "load_csv", "dataio.load_csv"),
    ("arid.experiments", "write_csv", "dataio.write_csv"),
    ("arid.experiments", "simulate", "model.simulate"),
    ("arid.model", "simulate", "model.simulate"),
    ("arid.experiments", "fit_ar", "linear.fit_ar"),
    ("arid.selection", "fit_ar", "linear.fit_ar"),
    ("arid.experiments", "fit_var1", "linear.fit_var1"),
    ("arid.linear", "param_step", "linear.param_step"),
    ("arid.linear", "state_step", "linear.state_step"),
    ("arid.linear", "assemble_ar_smoother", "linear.assemble"),
    ("arid.linear", "assemble_var_smoother", "linear.assemble"),
    ("arid.linear", "evaluate_loss", "linear.evaluate_loss"),
    ("arid.experiments", "fit_nar", "nar.fit_nar"),
    ("arid.nar", "build_sig_matrices", "nar.build_sig_matrices"),
    ("arid.nar", "nar_param_step", "nar.param_step"),
    ("arid.nar", "nar_state_step", "nar.state_step"),
    ("arid.experiments", "nar_predict_one_step", "nar.predict"),
    ("arid.linear", "solve_regularized_ls", "numerics.regularized_ls"),
    ("arid.nar", "solve_regularized_ls", "numerics.regularized_ls"),
    ("arid.linear", "solve_banded_spd", "numerics.banded_solve"),
    ("arid.linear", "solve_block_tridiagonal_spd", "numerics.block_solve"),
    ("arid.nar", "solve_block_tridiagonal_spd", "numerics.block_solve"),
    ("arid.linear", "companion_eigenvalues", "numerics.roots"),
    ("arid.selection", "companion_eigenvalues", "numerics.roots"),
    ("arid.experiments", "companion_eigenvalues", "numerics.roots"),
)

# Spans reported as "<span>_s" (inclusive seconds per op), and of those the
# ones also reported as "<span>_calls".
TIMED_SPANS = (
    "dataio.load_csv",
    "dataio.write_csv",
    "selection.order_scan",
    "model.simulate",
    "linear.param_step",
    "linear.state_step",
    "linear.assemble",
    "linear.evaluate_loss",
    "nar.build_sig_matrices",
    "nar.param_step",
    "nar.state_step",
    "nar.predict",
    "numerics.regularized_ls",
    "numerics.banded_solve",
    "numerics.roots",
    "numerics.block_solve",
)
COUNTED_SPANS = (
    "model.simulate",
    "linear.param_step",
    "linear.state_step",
    "linear.evaluate_loss",
    "numerics.regularized_ls",
    "numerics.banded_solve",
    "numerics.block_solve",
)
LAYERS = ("cli", "experiments", "selection", "dataio", "model", "linear", "nar", "numerics")
SOLVER_SPANS = ("numerics.banded_solve", "numerics.block_solve")


# Work models of the two smoother solvers, computed from the problem shape
# rather than measured. Banded Cholesky of half-bandwidth k over n unknowns
# (factor plus two triangular solves); block Thomas over m pivot blocks of
# size b (per block: Cholesky, b-column triangular solves, the Schur update
# product, and the vector sweeps). Bytes count one read of the matrix, one
# write of its factor, and the right-hand side in and the solution out.
def banded_work(n: int, k: int) -> tuple[float, float]:
    flops = n * k * (k + 3) + 4 * n * k + 2 * n
    bytes_moved = 8 * (2 * (k + 1) * n + 2 * n)
    return float(flops), float(bytes_moved)


def block_work(m: int, b: int) -> tuple[float, float]:
    flops = m * (13 * b**3 / 3 + 9 * b**2)
    bytes_moved = 8 * (3 * m * b * b + 2 * m * b)
    return float(flops), float(bytes_moved)


def _count_iterations(counter):
    def hook(tracer, args, result):
        tracer.count(counter, result.iterations_run)
    return (counter,), hook


def _count_file_bytes(arg_index):
    def hook(tracer, args, result):
        tracer.count("dataio.bytes", os.path.getsize(args[arg_index]))
    return ("dataio.bytes",), hook


def _banded_hook(tracer, args, result):
    flops, nbytes = banded_work(args[0].dim, args[0].bandwidth)
    tracer.count("numerics.smoother_flops", flops)
    tracer.count("numerics.smoother_bytes", nbytes)


def _block_hook(tracer, args, result):
    flops, nbytes = block_work(args[0].num_blocks, args[0].block_dim)
    tracer.count("numerics.smoother_flops", flops)
    tracer.count("numerics.smoother_bytes", nbytes)


_WORK = ("numerics.smoother_flops", "numerics.smoother_bytes")

# span -> (counters it feeds, hook(tracer, args, result)). A hook that fails
# because a signature changed marks its counters missing instead of zero.
HOOKS = {
    "linear.fit_ar": _count_iterations("linear.iterations"),
    "linear.fit_var1": _count_iterations("linear.iterations"),
    "nar.fit_nar": _count_iterations("nar.iterations"),
    "dataio.load_csv": _count_file_bytes(0),
    "dataio.write_csv": _count_file_bytes(1),
    "numerics.banded_solve": (_WORK, _banded_hook),
    "numerics.block_solve": (_WORK, _block_hook),
}


class Tracer:
    """Span recorder. Spans live in flat typed arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.counters: dict[tuple[int, str], float] = {}
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, counter: str, amount: float) -> None:
        key = (self._op, counter)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, fn, span: str):
        sid = self._sid(span)
        fed, hook = HOOKS.get(span, ((), None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if span in SOLVER_SPANS and type(exc).__name__ == "NotPositiveDefinite":
                    tracer.count("numerics.solve_failures", 1)
                raise
            tracer._close(idx)
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    tracer.broken.update(fed)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; remember the originals."""
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span))
            self.installed.add(span)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run_op(self, op_index: int, fn):
        """Call ``fn()`` inside the op's root span with every target wrapped."""
        self.install()
        self._op = op_index
        idx = self._open(self._sid(OP_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = -1
            self.uninstall()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def per_op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of every traced op, keyed by op index.

        Self time of a span is its duration minus the durations of its
        direct children; a layer's self time sums that over its spans.
        """
        sid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ops = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)

        out: dict[int, dict[str, float]] = {}
        op_ids = sorted(set(int(o) for o in np.unique(ops)) | {o for o, _ in self.counters})
        n_names = len(self.names)
        for op in op_ids:
            mask = ops == op
            inclusive = np.bincount(sid[mask], weights=dur[mask], minlength=n_names)
            calls = np.bincount(sid[mask], minlength=n_names)
            layer_self = np.bincount(layer_of[sid[mask]], weights=self_time[mask], minlength=len(LAYERS))
            metrics: dict[str, float] = {}
            for span in TIMED_SPANS:
                if span in self.installed:
                    i = self._ids[span]
                    metrics[f"{span}_s"] = float(inclusive[i])
                    if span in COUNTED_SPANS:
                        metrics[f"{span}_calls"] = float(calls[i])
            for li, layer in enumerate(LAYERS):
                if layer == "cli" or any(s.startswith(layer + ".") for s in self.installed):
                    metrics[f"{layer}.self_s"] = float(layer_self[li])
            for span, (fed, _) in HOOKS.items():
                if span not in self.installed:
                    continue
                for counter in fed:
                    if counter not in self.broken:
                        metrics.setdefault(counter, 0.0)
            if any(s in self.installed for s in SOLVER_SPANS):
                metrics["numerics.solve_failures"] = 0.0
            for (o, counter), value in self.counters.items():
                if o == op and counter in metrics:
                    metrics[counter] += value
            if "numerics.smoother_bytes" in metrics:
                nbytes = metrics["numerics.smoother_bytes"]
                metrics["numerics.smoother_flops_per_byte"] = (
                    metrics["numerics.smoother_flops"] / nbytes if nbytes else 0.0
                )
            out[op] = metrics
        return out
