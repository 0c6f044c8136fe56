"""Release gate: one end-to-end check per shipping criterion.

Every test prints a single PASS/FAIL line straight to the terminal
(bypassing capture) before its assertions fire, so a full run reads as a
checklist even when a criterion goes red. Numbers quoted in the lines are
the measured figures, not the thresholds.
"""

import time

import numpy as np
import pytest

from arid.dataio import inject_artefact
from arid.experiments import ExperimentConfig, run_experiment
from arid.linear import (
    FitConfig,
    _measurement_rhs,
    assemble_var_smoother,
    error_metrics,
    evaluate_loss,
    fit_ar,
    fit_var1,
    param_step,
    state_step,
)
from arid.model import (
    ARParams,
    NoiseSpec,
    SyntheticSpec,
    TimeSeries,
    build_companion,
    coefficients_from_roots,
    delay_windows,
    oscillatory_ar5,
    scalar_values,
    signature_aligned_ar5,
    simulate,
)
from arid.nar import NARFitConfig, _window_signatures, fit_nar, nar_predict_one_step
from arid.numerics import _LEAD_BLOCKS, SteadyProbe, solve_smoother
from arid.selection import order_scan
from arid.signature import sig_dim

from test_numerics import dense_smoother, kronecker_smoother, random_stencil_smoother, var_smoother
from test_signature import brute_force_signature, chen_product, flatten_words, level, lift, tensor_power, window_path

TRUE_ORDER = 5
SCAN_SPEC = SyntheticSpec(oscillatory_ar5(), n_steps=200, transition_std=0.01, measurement_std=1.0, base_seed=0)
SCAN_CONFIG = FitConfig(
    order_r=TRUE_ORDER,
    rho=0.1,
    lam=0.0,
    max_iterations=100,
    convergence_tol=1e-300,
    anchor_all_values=True,
)
NUM_TRIALS = 100


def emit(capsys, index: int, label: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {index} {label}: {'PASS' if passed else 'FAIL'} ({detail})")


def stable_coefficients(rng: np.random.Generator, order: int) -> ARParams:
    """Random real AR coefficients with all characteristic roots inside 0.95."""
    roots = []
    remaining = order
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            z = rng.uniform(0.2, 0.95) * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots.extend([z, np.conj(z)])
            remaining -= 2
        else:
            roots.append(complex(rng.uniform(-0.95, 0.95)))
            remaining -= 1
    return coefficients_from_roots(np.array(roots))


def random_noisy_trajectory(rng: np.random.Generator, theta: ARParams, n_steps: int) -> TimeSeries:
    model = build_companion(theta)
    x1 = rng.normal(size=theta.order)
    noise = NoiseSpec(0.05, 0.5, int(rng.integers(0, 2**31)))
    _, measured = simulate(model, x1, n_steps, noise)
    return measured


@pytest.fixture(scope="module")
def scan_report():
    start = time.perf_counter()
    report = order_scan(SCAN_SPEC, range(1, 11), SCAN_CONFIG, num_trials=NUM_TRIALS)
    return report, time.perf_counter() - start


def test_1_alternating_fit_loss_is_monotone(capsys):
    rng = np.random.Generator(np.random.Philox(key=101))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 7))
        n_steps = int(rng.integers(50, 301))
        rho = float(rng.choice([0.01, 0.1, 1.0]))
        y = random_noisy_trajectory(rng, stable_coefficients(rng, order), n_steps)
        config = FitConfig(order, rho=rho, lam=0.0, max_iterations=40, convergence_tol=1e-300)
        result = fit_ar(y, config)
        totals = np.array([entry.total for entry in result.loss_history])
        steps = np.diff(totals) / np.maximum(totals[:-1], 1e-30)
        if steps.size:
            worst = max(worst, float(steps.max()))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 60.0
    emit(capsys, 1, "loss history monotone", passed, f"worst relative step {worst:.2e}, {elapsed:.1f}s")
    assert passed


def test_2_smallest_root_medians_at_true_order(capsys, scan_report):
    report, elapsed = scan_report
    entry = report.per_r[TRUE_ORDER - 1]
    assert entry.order_r == TRUE_ORDER
    first, last = entry.min_eig_iter1, entry.min_eig_magnitude
    passed = 0.40 <= first <= 0.65 and 0.95 <= last <= 1.00 and elapsed < 300.0
    emit(
        capsys,
        2,
        "smallest-root medians",
        passed,
        f"iteration 1 median {first:.4f}, final median {last:.4f}, scan {elapsed:.1f}s",
    )
    assert passed


def test_3_order_scan_loss_drops_then_plateaus(capsys, scan_report):
    report, _ = scan_report
    medians = [entry.normalized_loss for entry in report.per_r]
    drops = all(medians[i + 1] < medians[i] for i in range(TRUE_ORDER - 1))
    tail = medians[TRUE_ORDER - 1 :]
    spread = (max(tail) - min(tail)) / medians[TRUE_ORDER - 1]
    passed = drops and spread < 0.15
    emit(
        capsys,
        3,
        "loss plateau past true order",
        passed,
        f"strict drop over orders 1..5 {drops}, plateau spread {100 * spread:.2f}%",
    )
    assert passed


def test_4_recovery_of_coefficients_and_trajectory(capsys):
    start = time.perf_counter()
    theta_close = 0
    denoising_wins = 0
    for trial in range(NUM_TRIALS):
        clean, y = SCAN_SPEC.trajectory(trial)
        result = fit_ar(y, SCAN_CONFIG)
        metrics = error_metrics(result.theta_hat, SCAN_SPEC.theta, result.y_hat, clean)
        raw = error_metrics(SCAN_SPEC.theta, SCAN_SPEC.theta, y, clean)
        if metrics.e_norm_theta < 0.05:
            theta_close += 1
        if metrics.e_x < raw.e_x:
            denoising_wins += 1
    elapsed = time.perf_counter() - start
    passed = theta_close >= 85 and denoising_wins >= 95 and elapsed < 300.0
    emit(
        capsys,
        4,
        "coefficient and trajectory recovery",
        passed,
        f"{theta_close}/100 coefficient error < 5%, {denoising_wins}/100 beat raw, {elapsed:.1f}s",
    )
    assert passed


def test_5_both_steps_are_stationary_points(capsys):
    rng = np.random.Generator(np.random.Philox(key=505))
    start = time.perf_counter()
    worst = 0.0
    # The AR steps that fit_ar_batch calls, on stacks of one, against the
    # objective as it scores it: every value anchored on odd instances.
    for instance in range(50):
        order = int(rng.integers(1, 6))
        n_steps = int(rng.integers(30, 61))
        rho = float(rng.choice([0.01, 0.1, 1.0]))
        first = 0 if instance % 2 else order - 1
        y = rng.normal(size=(1, n_steps))
        y_hat = rng.normal(size=(1, n_steps))

        def ar_loss(thetas, trajectory):
            dynamics, measurement = evaluate_loss(thetas, delay_windows(trajectory, order)[0], trajectory, y, first)
            return float(dynamics[0] + rho * measurement[0])

        thetas, _ = param_step(*delay_windows(y_hat, order), 0.0)
        scale = max(1.0, ar_loss(thetas, y_hat))
        for j in range(order):
            step = 1e-6 * max(1.0, abs(thetas[0, j]))
            bump = np.zeros((1, order))
            bump[0, j] = step
            up, down = ar_loss(thetas + bump, y_hat), ar_loss(thetas - bump, y_hat)
            worst = max(worst, abs(up - down) / (2 * step) / scale)

        smoothed, _ = state_step(thetas, _measurement_rhs(y, rho, first), np.full((1, 1), rho), 0.0, first)
        scale = max(1.0, ar_loss(thetas, smoothed))
        for j in range(n_steps):
            step = 1e-6 * max(1.0, abs(smoothed[0, j]))
            bump = np.zeros((1, n_steps))
            bump[0, j] = step
            up, down = ar_loss(thetas, smoothed + bump), ar_loss(thetas, smoothed - bump)
            worst = max(worst, abs(up - down) / (2 * step) / scale)

    # The VAR state step, on series both below and above the length from
    # which the block solver may tile a steady-state factor.
    for instance in range(20):
        channels = int(rng.integers(1, 5))
        n_steps = int(rng.integers(30, 61)) if instance % 2 else int(rng.integers(4 * _LEAD_BLOCKS, 161))
        rho = float(rng.choice([0.01, 0.1, 1.0]))
        x = rng.normal(size=(n_steps, channels))
        A = rng.normal(size=(channels, channels))
        A *= rng.uniform(0.3, 0.95) / float(np.max(np.abs(np.linalg.eigvals(A))))

        def var_loss(states):
            resid = states[1:] - states[:-1] @ A.T
            err = x - states
            return float(np.sum(resid * resid) + rho * np.sum(err * err))

        smoothed = solve_smoother(*assemble_var_smoother(A, x, rho)).reshape(x.shape)
        scale = max(1.0, var_loss(smoothed))
        for index in np.ndindex(x.shape):
            step = 1e-6 * max(1.0, abs(smoothed[index]))
            bump = np.zeros(x.shape)
            bump[index] = step
            up, down = var_loss(smoothed + bump), var_loss(smoothed - bump)
            worst = max(worst, abs(up - down) / (2 * step) / scale)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-4 and elapsed < 60.0
    emit(capsys, 5, "steps kill the gradient", passed,
         f"worst relative gradient {worst:.2e} over 50 AR and 20 VAR instances, {elapsed:.1f}s")
    assert passed


def ar_smoother_dense(theta: np.ndarray, n: int, rho: float, lam: float, start: int) -> np.ndarray:
    """The AR smoother's normal matrix built from its residual operator, one row per residual."""
    r = theta.size
    residuals = np.zeros((n - r, n))
    for row in range(n - r):
        residuals[row, row : row + r] = -theta[::-1]
        residuals[row, row + r] = 1.0
    return residuals.T @ residuals + np.diag(rho * (np.arange(n) >= start) + lam)


def test_6_structured_solvers_match_dense_oracle(capsys):
    rng = np.random.Generator(np.random.Philox(key=606))
    start = time.perf_counter()
    worst, long_draws, steady_draws = 0.0, 0, 0

    def compare(solved, dense, rhs):
        nonlocal worst
        oracle = np.linalg.solve(dense, rhs)
        worst = max(worst, float(np.linalg.norm(solved - oracle) / max(np.linalg.norm(oracle), 1e-30)))

    for instance in range(100):
        if instance % 2 == 0:
            # Random smoothers: stacks of up to 4 systems of up to 60 blocks of
            # size p <= 4, with r <= 6 stencil blocks, measured from block
            # first <= r on (at least first windows pin the blocks before
            # it), with or without a ridge.
            order, block_dim = int(rng.integers(0, 7)), int(rng.integers(1, 5))
            first = int(rng.integers(0, order + 1))
            num_blocks = int(rng.integers(max(order + first, 1), 61))
            smoother = random_stencil_smoother(rng, int(rng.integers(1, 5)), order, num_blocks, block_dim, first,
                                               float(rng.choice([0.0, 0.01])))
            rhs = rng.normal(size=(len(smoother.stencils), num_blocks * block_dim))
            compare(solve_smoother(smoother, rhs).ravel(), dense_smoother(smoother), rhs.ravel())
            continue
        # The VAR/NAR smoother (A, Q), Q SPD, on both sides of the length from
        # which the solver tries the steady-state factor. A weak Q and a
        # spectral radius near 1 keep some long draws from settling.
        long = instance % 4 == 3
        block_dim = int(rng.integers(1, 9))
        lead = 4 * _LEAD_BLOCKS
        num_blocks = int(rng.integers(lead, lead + 33)) if long else int(rng.integers(1, lead))
        A = rng.normal(size=(block_dim, block_dim))
        A *= rng.uniform(0.3, 0.99) / float(np.max(np.abs(np.linalg.eigvals(A))))
        lower = rng.normal(size=(block_dim, block_dim))
        Q = 10.0 ** rng.uniform(-2.0, 0.5) * (lower @ lower.T / block_dim + np.eye(block_dim))
        rhs = rng.normal(size=num_blocks * block_dim)
        probe = SteadyProbe()
        solved = solve_smoother(var_smoother(A, Q, num_blocks), rhs[None], probe)[0]
        # A long system leaves the probe on only if one of its leads settled and was tiled.
        long_draws += long
        steady_draws += long and probe.lead is not None
        compare(solved, kronecker_smoother(A, Q, num_blocks).toarray(), rhs)

    # Stacks of AR smoothers solved as one banded system, every value
    # anchored as in the order scan. Without the anchor the first r - 1
    # values hang on a small trailing coefficient alone, and at condition
    # numbers up to 1e11 the dense oracle is no reference.
    for _ in range(20):
        order = int(rng.integers(1, 11))
        n = int(rng.integers(order + 1, 201))
        rho, lam = float(rng.choice([0.01, 0.1, 1.0])), float(rng.choice([0.0, 0.01]))
        thetas = np.array([stable_coefficients(rng, order).theta for _ in range(int(rng.integers(1, 11)))])
        rhs = _measurement_rhs(rng.normal(size=(len(thetas), n)), rho, 0)
        solved, _ = state_step(thetas, rhs, np.full((1, 1), rho), lam, 0)
        for theta, member, v in zip(thetas, solved, rhs):
            compare(member, ar_smoother_dense(theta, n, rho, lam, 0), v)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-10 and steady_draws > 0 and elapsed < 30.0
    emit(capsys, 6, "solvers match dense oracle", passed,
         f"worst relative error {worst:.2e}, {steady_draws} of {long_draws} long smoother draws on the steady path, "
         f"{elapsed:.1f}s")
    assert passed


def test_7_signature_identities(capsys):
    rng = np.random.Generator(np.random.Philox(key=707))
    start = time.perf_counter()
    worst = 0.0

    dims_ok = all(
        sig_dim(alphabet, depth) == (alphabet ** (depth + 1) - 1) // (alphabet - 1)
        for alphabet in (2, 3)
        for depth in (1, 2, 3, 4)
    )

    # General paths go one at a time through the lift that NAR's windows
    # run through, signature._signatures_flat. One linear segment: level m
    # is the m-fold tensor power of the displacement divided by m factorial.
    for alphabet in (2, 3):
        points = rng.normal(size=(2, alphabet))
        sig = lift(points, 4)
        delta = points[1] - points[0]
        factorial = 1.0
        for m in range(5):
            factorial *= max(m, 1)
            worst = max(worst, float(np.abs(level(sig, alphabet, m) - tensor_power(delta, m) / factorial).max()))

    # Concatenation identity and the symmetry of the second level.
    points = rng.normal(size=(6, 2))
    whole = lift(points, 3)
    stitched = chen_product(lift(points[:4], 3), lift(points[3:], 3), 2, 3)
    worst = max(worst, float(np.abs(whole - stitched).max()))
    level2 = level(whole, 2, 2).reshape(2, 2)
    outer = np.outer(level(whole, 2, 1), level(whole, 2, 1))
    worst = max(worst, float(np.abs((level2 + level2.T) / 2.0 - outer / 2.0).max()))

    # Two segments against the word-by-word polynomial-integration oracle.
    for alphabet in (2, 3):
        points = rng.normal(size=(3, alphabet))
        oracle = flatten_words(brute_force_signature(points, 3), alphabet, 3)
        worst = max(worst, float(np.abs(lift(points, 3) - oracle).max()))

    # The same identities on rows of the window lift that NAR ships, each
    # row the signature of a window's path (values, running sum).
    values = rng.normal(size=40)
    lift_worst = 0.0
    for depth in (2, 3, 4):
        # A one-segment window is the tensor exponential of its increment.
        for j, row in enumerate(_window_signatures(values, 2, depth)):
            delta = np.diff(window_path(values[j : j + 2]), axis=0)[0]
            factorial = 1.0
            for m in range(depth + 1):
                factorial *= max(m, 1)
                lift_worst = max(lift_worst, float(np.abs(level(row, 2, m) - tensor_power(delta, m) / factorial).max()))
        # Chen's identity: a length-r window is the product of the window of
        # its first r - 1 points and the segment through its last two.
        for order_r in (4, 5, 6):
            heads = _window_signatures(values, order_r - 1, depth)
            for j, row in enumerate(_window_signatures(values, order_r, depth)):
                tail = lift(window_path(values[j : j + order_r])[-2:], depth)
                stitched = chen_product(heads[j], tail, 2, depth)
                lift_worst = max(lift_worst, float(np.abs(row - stitched).max()))
    # One window's path against the word-by-word polynomial-integration oracle.
    oracle = flatten_words(brute_force_signature(window_path(values[10:15]), 4), 2, 4)
    lift_worst = max(lift_worst, float(np.abs(_window_signatures(values, 5, 4)[10] - oracle).max()))

    elapsed = time.perf_counter() - start
    passed = dims_ok and worst < 1e-12 and lift_worst < 1e-12 and elapsed < 10.0
    emit(
        capsys,
        7,
        "signature identities",
        passed,
        f"dimension formula {dims_ok}, worst deviation {worst:.2e}, on NAR's window lift {lift_worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert passed


def test_8_artefact_window_rescue(capsys):
    spec = SyntheticSpec(signature_aligned_ar5(), n_steps=800, transition_std=0.05, measurement_std=0.02, base_seed=0)
    config = NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=1e-3, max_iterations=20)
    window = slice(149, 250)
    start = time.perf_counter()
    both = window_wins = prediction_wins = 0
    for trial in range(100):
        clean, y = spec.trajectory(trial)
        values = scalar_values(y)
        train = inject_artefact(TimeSeries(values[:400]), 1, 150, 250, 2.0, trial + 2**32)
        result = fit_nar(train, config)

        raw_rmse = np.sqrt(np.mean((scalar_values(train)[window] - clean[:400][window]) ** 2))
        hat_rmse = np.sqrt(np.mean((scalar_values(result.y_hat)[window] - clean[:400][window]) ** 2))
        window_improved = hat_rmse < raw_rmse

        test_series = TimeSeries(values[400:])
        target = values[400:][config.order_r :]
        first = nar_predict_one_step(result.estimate_history[0], test_series, config.order_r, config.depth_d)[:-1]
        last = nar_predict_one_step(result.theta_hat, test_series, config.order_r, config.depth_d)[:-1]
        prediction_improved = float(np.mean((last - target) ** 2)) < float(np.mean((first - target) ** 2))

        window_wins += window_improved
        prediction_wins += prediction_improved
        both += window_improved and prediction_improved
    elapsed = time.perf_counter() - start
    passed = both >= 80 and elapsed < 600.0
    emit(
        capsys,
        8,
        "artefact window rescue",
        passed,
        f"{both}/100 seeds pass both halves (window {window_wins}, prediction {prediction_wins}), {elapsed:.1f}s",
    )
    assert passed


def test_9_var1_reduction_and_determinism(capsys, tmp_path):
    rng = np.random.Generator(np.random.Philox(key=909))
    worst = 0.0
    for _ in range(20):
        n_steps = int(rng.integers(30, 200))
        rho = float(rng.choice([0.01, 0.1, 1.0]))
        lam = float(rng.choice([0.0, 0.01]))
        y = random_noisy_trajectory(rng, stable_coefficients(rng, 1), n_steps)
        config = FitConfig(1, rho=rho, lam=lam, max_iterations=15, convergence_tol=1e-300)
        scalar = fit_ar(y, config)
        vector = fit_var1(y, config)
        worst = max(worst, abs(float(vector.theta_hat[0, 0]) - float(scalar.theta_hat.theta[0])))
        worst = max(worst, float(np.abs(scalar_values(vector.y_hat) - scalar_values(scalar.y_hat)).max()))
        totals = scalar.loss_history[-1].total, vector.loss_history[-1].total
        worst = max(worst, abs(totals[0] - totals[1]) / max(abs(totals[0]), 1e-30))
    reduction_ok = worst <= 1e-12

    _, y = SCAN_SPEC.trajectory(0)
    repeat_config = FitConfig(TRUE_ORDER, rho=0.1, lam=0.0, max_iterations=10)
    once, again = fit_ar(y, repeat_config), fit_ar(y, repeat_config)
    fits_ok = np.array_equal(once.theta_hat.theta, again.theta_hat.theta) and np.array_equal(
        scalar_values(once.y_hat), scalar_values(again.y_hat)
    )

    nar_train = TimeSeries(scalar_values(y)[:80])
    nar_config = NARFitConfig(order_r=4, depth_d=2, rho=0.1, lam=1e-3, max_iterations=5)
    nar_once, nar_again = fit_nar(nar_train, nar_config), fit_nar(nar_train, nar_config)
    fits_ok = fits_ok and np.array_equal(nar_once.theta_hat.A_sig, nar_again.theta_hat.A_sig)
    fits_ok = fits_ok and np.array_equal(nar_once.theta_hat.C_sig, nar_again.theta_hat.C_sig)

    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = ExperimentConfig(command="fit-ar", out_dir=str(out), seed=3, n_steps=80, iterations=10)
        report = run_experiment(cfg).to_dict()
        report.pop("timings")
        report["config"].pop("out_dir")
        reports.append((report, (out / "denoised.csv").read_bytes()))
    reports_ok = reports[0] == reports[1]

    passed = reduction_ok and fits_ok and reports_ok
    emit(
        capsys,
        9,
        "var1 reduction and determinism",
        passed,
        f"worst reduction gap {worst:.2e}, fits byte-identical {fits_ok}, reports identical {reports_ok}",
    )
    assert passed
