"""Tests for order scanning and its median aggregation."""

import numpy as np
import pytest
from test_linear import reference_fit_ar

import arid.linear
import arid.numerics
import arid.selection
from arid.cli import main
from arid.linear import FitConfig, fit_ar
from arid.model import ARParams, SyntheticSpec, TimeSeries, oscillatory_ar5
from arid.numerics import companion_eigenvalues
from arid.selection import lower_median, order_scan

DECAYING_AR3 = ARParams(np.array([0.4, -0.3, 0.2]))


def test_lower_median_odd_count():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0


def test_lower_median_takes_lower_central_value_when_even():
    assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_lower_median_single_value():
    assert lower_median([5.0]) == 5.0


def test_lower_median_rejects_empty_input():
    with pytest.raises(ValueError):
        lower_median([])


def test_noise_free_scan_hits_zero_loss_at_true_order():
    spec = SyntheticSpec(DECAYING_AR3, 60, 0.0, 0.0, 0)
    config = FitConfig(order_r=3, rho=0.1, max_iterations=10)
    report = order_scan(spec, [1, 2, 3], config, num_trials=1)
    by_r = {entry.order_r: entry for entry in report.per_r}
    assert by_r[3].normalized_loss < 1e-12
    assert by_r[1].normalized_loss > by_r[3].normalized_loss
    assert by_r[2].normalized_loss > by_r[3].normalized_loss


def test_entries_sorted_by_order():
    spec = SyntheticSpec(DECAYING_AR3, 40, 0.01, 0.1, 1)
    config = FitConfig(order_r=1, rho=0.1, max_iterations=3)
    report = order_scan(spec, [4, 2, 3], config, num_trials=2)
    assert [entry.order_r for entry in report.per_r] == [2, 3, 4]


def test_recorded_series_allows_single_trial_only():
    y = TimeSeries(np.sin(np.arange(30.0)))
    config = FitConfig(order_r=1, rho=0.1, max_iterations=3)
    report = order_scan(y, [1, 2], config, num_trials=1)
    assert report.num_trials == 1
    with pytest.raises(ValueError):
        order_scan(y, [1, 2], config, num_trials=3)


def test_every_order_trial_pair_recorded():
    spec = SyntheticSpec(DECAYING_AR3, 40, 0.01, 0.1, 2)
    config = FitConfig(order_r=1, rho=0.1, max_iterations=3)
    report = order_scan(spec, [1, 2, 3], config, num_trials=4)
    pairs = {(rec.order_r, rec.trial) for rec in report.records}
    assert pairs == {(r, t) for r in (1, 2, 3) for t in range(4)}


def test_first_iteration_eigenvalue_matches_direct_fit():
    spec = SyntheticSpec(oscillatory_ar5(), 80, 0.01, 1.0, 3)
    config = FitConfig(order_r=5, rho=0.1, max_iterations=5, anchor_all_values=True)
    report = order_scan(spec, [5], config, num_trials=2)
    _, y = spec.trajectory(0)
    direct = fit_ar(y, config)
    baseline = float(np.min(np.abs(companion_eigenvalues(direct.estimate_history[0].theta))))
    record = next(rec for rec in report.records if rec.trial == 0)
    assert record.min_eig_iter1 == baseline
    assert record.min_eig_magnitude == direct.min_eig_magnitude
    assert record.normalized_loss == direct.loss_history[-1].normalized


def test_aggregates_are_lower_medians_of_records():
    spec = SyntheticSpec(DECAYING_AR3, 50, 0.02, 0.2, 5)
    config = FitConfig(order_r=1, rho=0.1, max_iterations=4)
    report = order_scan(spec, [2, 3], config, num_trials=6)
    for entry in report.per_r:
        rows = [rec for rec in report.records if rec.order_r == entry.order_r]
        assert entry.normalized_loss == lower_median([r.normalized_loss for r in rows])
        assert entry.min_eig_magnitude == lower_median([r.min_eig_magnitude for r in rows])
        assert entry.min_eig_iter1 == lower_median([r.min_eig_iter1 for r in rows])


def test_each_trial_series_is_drawn_once_per_scan(monkeypatch):
    drawn = []
    original = SyntheticSpec.trajectory

    def counting(self, trial=0):
        drawn.append(trial)
        return original(self, trial)

    monkeypatch.setattr(SyntheticSpec, "trajectory", counting)
    spec = SyntheticSpec(DECAYING_AR3, 40, 0.01, 0.1, 7)
    order_scan(spec, [1, 2, 3], FitConfig(order_r=1, rho=0.1, max_iterations=3), num_trials=3)
    assert drawn == [0, 1, 2]


def test_singular_trial_fails_the_whole_scan(monkeypatch, tmp_path):
    # Trial 1 is a constant series, whose two delay columns coincide at
    # order 2; the other trials are regular.
    original = SyntheticSpec.trajectory

    def with_constant_trial(self, trial=0):
        clean, y = original(self, trial)
        return (clean, TimeSeries(np.full(y.n_steps, 2.0))) if trial == 1 else (clean, y)

    monkeypatch.setattr(SyntheticSpec, "trajectory", with_constant_trial)
    argv = ["order-scan", "--orders", "1,2", "--trials", "3", "--n-steps", "40", "--iterations", "3"]
    assert main([*argv, "--lambda", "0", "--out-dir", str(tmp_path / "run")]) == 3
    assert main([*argv, "--lambda", "0.01", "--out-dir", str(tmp_path / "ridge")]) == 0


def test_histories_read_after_a_scan_equal_the_step_by_step_reference(monkeypatch):
    # The scan reads only the logs of its fits; their histories, read after
    # the scan returns, are the tuples the step-by-step fit builds.
    fits, built = [], []
    batch, params = arid.selection.fit_ar_batch, arid.linear.ARParams

    def recording(series, config):
        results = batch(series, config)
        fits.append((series, config, results))
        return results

    def counting(theta):
        built.append(theta)
        return params(theta)

    monkeypatch.setattr(arid.selection, "fit_ar_batch", recording)
    monkeypatch.setattr(arid.linear, "ARParams", counting)
    spec = SyntheticSpec(oscillatory_ar5(), 60, 0.01, 1.0, 9)
    order_scan(spec, [2, 5], FitConfig(order_r=1, rho=0.1, max_iterations=12, convergence_tol=1e-300), num_trials=3)
    # One estimate per fit, its final one, until a history is read.
    assert len(built) == 6
    for series, config, results in fits:
        for y, result in zip(series, results, strict=True):
            _, history, estimates, _ = reference_fit_ar(y, config)
            assert result.loss_history == history
            for got, want in zip(result.estimate_history, estimates, strict=True):
                np.testing.assert_array_equal(got.theta, want.theta)


def test_each_lockstep_iteration_makes_one_call_of_each_step(monkeypatch):
    # One call of each AR step, one batched refit, one stacked smoother solve
    # and one windowing per lockstep iteration, through the names the
    # benchmark's tracer wraps; one band build, inside that solve; LAPACK's
    # triangular solve once per running fit.
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("param_step", "state_step", "evaluate_loss", "assemble_ar_smoother", "solve_regularized_ls",
                 "solve_banded_spd", "delay_windows"):
        count(arid.linear, name)
    count(arid.numerics, "smoother_bands")
    count(arid.numerics, "_potrs")
    batches, batch = [], arid.selection.fit_ar_batch

    def recording(series, config):
        batches.append(batch(series, config))
        return batches[-1]

    monkeypatch.setattr(arid.selection, "fit_ar_batch", recording)
    spec = SyntheticSpec(oscillatory_ar5(), 60, 0.01, 1.0, 5)
    order_scan(spec, [1, 3, 6], FitConfig(order_r=1, rho=0.1, max_iterations=30, convergence_tol=1e-4), num_trials=4)
    runs = [[result.iterations_run for result in results] for results in batches]
    lockstep = sum(max(counts) for counts in runs)
    # Fits stop at different iterations, so a loop over all fits would show.
    assert sum(map(sum, runs)) < sum(len(counts) * max(counts) for counts in runs)
    steps = ("param_step", "state_step", "evaluate_loss", "assemble_ar_smoother", "solve_regularized_ls",
             "smoother_bands", "solve_banded_spd")
    assert [calls[name] for name in steps] == [lockstep] * len(steps)
    # Once on the measurements of each order, then once per iteration.
    assert calls["delay_windows"] == lockstep + len(batches)
    assert calls["_potrs"] == sum(map(sum, runs))
