"""Fits must not depend on the number of BLAS threads.

The same fixed set of fits runs in two fresh interpreters, one with
OpenBLAS and OpenMP on 1 thread and one on 2, and every logged parameter,
loss term and trajectory must hash the same. The thread count of a BLAS
library is fixed when it loads, so each count needs its own process.
"""

import json
import os
import subprocess
import sys

FITS = r"""
import hashlib, json
import numpy as np
from arid.linear import FitConfig, fit_ar_batch, fit_var1
from arid.model import SyntheticSpec, TimeSeries, oscillatory_ar5
from arid.nar import NARFitConfig, fit_nar

def digest(result):
    parts = (result.theta_log, result.loss_log, result.y_hat.values)
    return hashlib.sha256(b"".join(np.ascontiguousarray(part).tobytes() for part in parts)).hexdigest()

hashes = {}
# At p = 32, N = 3000 and rho = 1 the smoother's lead settles once it has
# doubled to 32 blocks, and each state step runs over 49 band segments: the
# lead, 47 tiles and the last block. At rho = 0.1 it doubles again, to 64
# blocks, and the steps run over 48 segments. At p = 1 the smoother is
# tridiagonal, and dptsv solves it below and above the 64 blocks from which a
# wider one tries the lead; at N = 20000 its refit has one regressor over more
# rows than OpenBLAS keeps a dot product on one thread for.
cases = ((4, 500, 0.1), (48, 500, 0.1), (64, 500, 0.1), (32, 3000, 1.0), (32, 3000, 0.1), (1, 100, 0.1),
         (1, 500, 0.1), (1, 20000, 0.1))
for p, n, rho in cases:
    rng = np.random.Generator(np.random.Philox(key=p))
    x = 0.1 * rng.normal(size=(n, p)).cumsum(axis=0) + rng.normal(size=(n, p))
    config = FitConfig(1, rho, max_iterations=3, convergence_tol=1e-300)
    hashes[f"var p={p} N={n} rho={rho}"] = digest(fit_var1(TimeSeries(x), config))
# Run on, the p = 32, N = 500 fit mixes its parameters from iteration 3 and
# holds a full history of iterates from iteration 6.
rng = np.random.Generator(np.random.Philox(key=32))
x = 0.1 * rng.normal(size=(500, 32)).cumsum(axis=0) + rng.normal(size=(500, 32))
hashes["var p=32 N=500 rho=3.0 mixed"] = digest(fit_var1(TimeSeries(x), FitConfig(1, 3.0, max_iterations=10,
                                                                                   convergence_tol=1e-300)))
spec = SyntheticSpec(oscillatory_ar5(), 200, 0.01, 1.0, 123)
series = [spec.trajectory(trial)[1] for trial in range(10)]
for k, result in enumerate(fit_ar_batch(series, FitConfig(5, 0.1, convergence_tol=1e-300, anchor_all_values=True))):
    hashes[f"scan trial {k}"] = digest(result)
hashes["nar"] = digest(fit_nar(series[0], NARFitConfig(4, lam=1e-3)))
# Past 10 000 values OpenBLAS splits a dot product over its threads, so every
# sum of squares of a long series, and an AR(1) refit, must keep clear of it.
spec = SyntheticSpec(oscillatory_ar5(), 20000, 0.01, 1.0, 123)
series = [spec.trajectory(trial)[1] for trial in range(2)]
for order in (1, 5):
    config = FitConfig(order, 0.1, max_iterations=3, convergence_tol=1e-300, anchor_all_values=True)
    for k, result in enumerate(fit_ar_batch(series, config)):
        hashes[f"long AR({order}) trial {k}"] = digest(result)
hashes["long nar"] = digest(fit_nar(series[0], NARFitConfig(4, lam=1e-3, max_iterations=3)))
print(json.dumps(hashes))
"""


def _hashes(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", FITS], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fits_hash_the_same_on_one_and_two_blas_threads():
    one, two = _hashes(1), _hashes(2)
    assert len(one) == 9 + 10 + 1 + 2 * 2 + 1
    assert [name for name in one if one[name] != two[name]] == []
