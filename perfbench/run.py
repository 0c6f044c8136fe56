"""Closed-loop benchmark of the `arid` command line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

One client in one process calls ``arid.cli.main(argv)`` in-process, each op
starting when the previous one has ended. ``--trace 0`` prints the end-to-end
metrics, with op times scaled by a reference kernel timed between ops (see
calibration.py); ``--trace 1`` runs every op seed twice, untraced and traced in
alternating order, and prints the per-layer metrics of the traced runs and
the tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result. ``--workload all`` runs each workload in
its own process, one after the other. See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Pinned before NumPy loads. One BLAS thread keeps the client within nproc
# and the timings steady; the blocks these fits multiply are small.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ARID_THREADS", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibration import REFERENCE_S, Kernel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ACCURACY_METRICS, WORKLOADS, CheckFailed, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
# Stop starting ops this long after launch, whatever else is pending, so a
# run ends well inside three minutes even on a slow program.
HARD_LIMIT_S = 140.0
SEED_SPACING = 1_000_000  # op seeds of one run never reach the next run's
WARMUP_SEED_OFFSET = 900_000
IMPORT_PROBE = "import time; t = time.perf_counter(); import arid.cli; print(time.perf_counter() - t)"

T_LAUNCH = perf_counter()


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    ok: bool
    reason: str = ""
    accuracy: dict = field(default_factory=dict)
    kernel_s: float = REFERENCE_S  # reference kernel time around the op

    @property
    def seconds(self) -> float:
        """Wall time scaled to the baseline machine's unloaded speed."""
        return self.wall_s * REFERENCE_S / self.kernel_s


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call; returns exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed op; the loop goes on
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def time_import() -> float:
    """Seconds to import the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def op_argv(wl: Workload, out: Path, extra: list[str]) -> list[str]:
    return [wl.command, "--config", str(wl.config_path), "--out-dir", str(out), *extra]


def set_up(wl: Workload, main, base: int, work: Path, kernel: Kernel) -> float:
    """Median over repetitions of: import, input generation, warm-up op,
    scaled like op times."""
    totals = []
    for rep in range(SETUP_REPS):
        before = kernel.seconds()
        import_s = time_import()
        t0 = perf_counter()
        extra, _ = wl.prepare(base + WARMUP_SEED_OFFSET + rep, work)
        run_cli(main, op_argv(wl, work / "warmup", extra) + list(wl.warmup_flags))
        wall = import_s + perf_counter() - t0
        totals.append(wall * 2 * REFERENCE_S / (before + kernel.seconds()))
    return statistics.median(totals)


def run_op(wl: Workload, main, index: int, argv: list[str], truth, out: Path, tracer: Tracer | None) -> OpRecord:
    shutil.rmtree(out, ignore_errors=True)
    t0 = perf_counter()
    if tracer is None:
        rc, stdout, stderr = run_cli(main, argv)
    else:
        rc, stdout, stderr = tracer.run_op(index, lambda: run_cli(main, argv))
    wall_s = perf_counter() - t0
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {stderr.strip()[-400:]}")
        try:
            json.loads(stdout)
        except ValueError as exc:
            raise CheckFailed(f"printed report does not parse: {exc}") from exc
        accuracy = wl.check(out, truth)
    except CheckFailed as exc:
        return OpRecord(index, tracer is not None, wall_s, False, str(exc))
    return OpRecord(index, tracer is not None, wall_s, True, accuracy=accuracy)


def measure(wl: Workload, main, base: int, seconds: float, tracer: Tracer | None, work: Path,
            kernel: Kernel) -> list[OpRecord]:
    """Closed loop: ops back to back until the time is up and the accuracy
    ops are done. With a tracer, each op seed runs untraced and traced. The
    reference kernel runs between ops; each op is scaled by the mean of the
    kernel times on either side of it."""
    records: list[OpRecord] = []
    kernels: list[float] = []
    min_ops = 1 if tracer else wl.accuracy_ops
    deadline = perf_counter() + seconds
    k = 0
    while (k < min_ops or perf_counter() < deadline) and perf_counter() - T_LAUNCH < HARD_LIMIT_S:
        extra, truth = wl.prepare(base + k * wl.seed_stride, work)
        argv = op_argv(wl, work / "out", extra)
        if tracer is None:
            modes = (None,)
        else:
            modes = (None, tracer) if k % 2 == 0 else (tracer, None)
        for t in modes:
            kernels.append(kernel.seconds())
            records.append(run_op(wl, main, k, argv, truth, work / "out", t))
        k += 1
    kernels.append(kernel.seconds())
    for i, r in enumerate(records):
        r.kernel_s = (kernels[i] + kernels[i + 1]) / 2
    return records


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 ops above it; the median when the
    run is too short to resolve a tail (fewer than 20 ops)."""
    return max(50.0, 100.0 * (n - 10) / n)


def end_to_end(wl: Workload, records: list[OpRecord], setup_s: float) -> dict:
    times = [r.seconds for r in records]
    fits = wl.fits_per_op * sum(r.ok for r in records)
    metrics = {
        "fits_per_s": (fits / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (float(np.percentile(times, tail_percentile(len(times)))), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    scored = [r for r in records if r.index < wl.accuracy_ops and r.ok]
    for name in ACCURACY_METRICS:
        values = [r.accuracy[name] for r in scored if name in r.accuracy]
        if values:
            metrics[name] = (statistics.fmean(values), "1")
        elif name not in wl.accuracy:
            # Not measurable on this workload's outputs: a fixed 1.0 so that
            # every workload reports every metric.
            metrics[name] = (1.0, "1")
    return metrics


PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "iterations": "count", "failures": "count",
                   "bytes": "B", "flops": "flop", "per_byte": "flop/B", "frac": "1"}


def _unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def per_layer(tracer: Tracer, records: list[OpRecord]) -> dict:
    per_op = tracer.per_op_metrics()
    names = sorted({name for m in per_op.values() for name in m})
    metrics = {
        name: (statistics.median(m[name] for m in per_op.values() if name in m), _unit(name))
        for name in names
    }
    traced = {r.index: r.wall_s for r in records if r.traced}
    plain = {r.index: r.wall_s for r in records if not r.traced}
    ratios = [traced[k] / plain[k] for k in traced if k in plain]
    metrics["trace.op_s"] = (statistics.median(traced.values()), "s")
    metrics["trace.untraced_op_s"] = (statistics.median(plain.values()), "s")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "1")
    return metrics


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(config) -> str:
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": int(BLAS_THREADS),
    }


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "arid" / "cli.py").is_file():
        print(f"error: no arid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from arid.cli import main as cli_main

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    base = args.seed * SEED_SPACING
    kernel = Kernel()
    setup_s = set_up(wl, cli_main, base, work, kernel)
    tracer = Tracer() if args.trace else None
    records = measure(wl, cli_main, base, args.seconds, tracer, work, kernel)
    if tracer is None:
        metrics = end_to_end(wl, records, setup_s)
    else:
        metrics = per_layer(tracer, records)
        tracer.save(work / "spans.npz")

    failed = [r for r in records if not r.ok]
    env = fingerprint()
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<36} {len(failed) / len(records):>16.6g} 1")
    if tracer is None:
        print(f"ops {len(records)}, op_s_tail at p{tail_percentile(len(records)):.1f}, "
              f"accuracy over the first {wl.accuracy_ops} ops")
        print(f"unscaled median op wall time {statistics.median(r.wall_s for r in records):.6g} s; "
              f"median reference kernel {statistics.median(r.kernel_s for r in records):.6g} s "
              f"against {REFERENCE_S} s")
    else:
        print(f"ops {len(records)}: {len(records) // 2} op seeds, each untraced and traced")
    for r in failed[:5]:
        print(f"failed op {r.index}{' (traced)' if r.traced else ''}: {r.reason}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [vars(r) for r in records],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
