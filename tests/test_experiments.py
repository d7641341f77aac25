from types import SimpleNamespace

import numpy as np
import pytest

from bdcopt import experiments
from bdcopt.experiments import (run_relu_experiment, run_sdl_experiment,
                                run_sdl_gd_comparison, run_tensor_experiment,
                                sdl_band_columns, tensor_stalled)
from bdcopt.solvers import IterTrace


def test_sdl_band_columns():
    arr = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
    bands = sdl_band_columns(arr)
    np.testing.assert_allclose(bands["mean"], [2.0, 3.0])
    np.testing.assert_allclose(bands["lower_minmax"], [1.0, 2.0])
    np.testing.assert_allclose(bands["upper_minmax"], [3.0, 4.0])
    sd = arr.std(axis=0)
    np.testing.assert_allclose(bands["upper_2sd"], [2.0, 3.0] + 2 * sd)


def test_sdl_experiment_shapes_and_determinism():
    a = run_sdl_experiment(n_outer=8, n_seeds=2, seed=5)
    b = run_sdl_experiment(n_outer=8, n_seeds=2, seed=5)
    assert a.rec["l1"].shape == (2, 9)
    assert a.true_sparsity == pytest.approx(0.84375)
    np.testing.assert_array_equal(a.rec["l1_lq"], b.rec["l1_lq"])
    np.testing.assert_array_equal(a.sparsity["l1"], b.sparsity["l1"])


def test_sdl_experiment_checks_q_before_any_step(monkeypatch):
    steps = []
    real = experiments.bdca_step

    def counted(*args, **kwargs):
        steps.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "bdca_step", counted)
    with pytest.raises(ValueError, match="Q=40 with l=32"):
        run_sdl_experiment(q=40)
    assert steps == []
    # the plain l1 penalty has no largest-Q part, so any q is accepted
    res = run_sdl_experiment(q=40, n_outer=1, n_seeds=1, variants=("l1",))
    assert res.rec["l1"].shape == (1, 2) and len(steps) == 2


def test_gd_comparison_counts_oracle_calls():
    rows = run_sdl_gd_comparison(n_outer=10, n_seeds=2, seed=1)
    assert len(rows) == 2
    for r in rows:
        assert r["oracle_calls"] > 0
        assert np.isfinite(r["bdca_final"]) and np.isfinite(r["gd_final"])


def test_gd_comparison_checks_counts_before_any_step(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(experiments, "bdca_step", no_step)
    with pytest.raises(ValueError, match=r"n_outer must be >= 0, got -1"):
        run_sdl_gd_comparison(n_outer=-1)
    with pytest.raises(ValueError, match=r"n_seeds must be >= 1, got 0"):
        run_sdl_gd_comparison(n_seeds=0)


def test_relu_experiment_sine_task_descends():
    res = run_relu_experiment(task="sine", layer_dims=(8,), n_data=80,
                              epochs=4, batch_size=16, rho=1.0, stride=5,
                              inner_budget=15, seed=2)
    losses = np.array([row[1] for row in res.loss_rows])
    assert losses[-1] < losses[0]
    assert res.problem.task.loss == "mse"
    assert np.min(res.problem.task.labels) >= 0


def test_relu_experiment_theory_preset_scales_with_iterations():
    res = run_relu_experiment(task="blobs", layer_dims=(6,), n_data=60,
                              epochs=4, batch_size=10, theory_preset=True,
                              stride=0, inner_budget=10, seed=3)
    n_iters = len(res.trace.records)
    assert res.rho == pytest.approx(0.5 * np.sqrt(n_iters))
    assert res.batch_size == int(np.ceil(0.5 * np.sqrt(n_iters)))


def test_relu_experiment_rejects_zero_batch_size(monkeypatch):
    # the preset replaces batch_size, so a bad one must be caught before it
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(experiments, "run", no_solve)
    for batch_size in (0, -3):
        for theory_preset in (False, True):
            with pytest.raises(ValueError, match="batch_size must be >= 1, got %d"
                               % batch_size):
                run_relu_experiment(layer_dims=(4,), n_data=20, epochs=1,
                                    batch_size=batch_size,
                                    theory_preset=theory_preset)


def test_relu_experiment_rejects_unknown_task():
    with pytest.raises(ValueError):
        run_relu_experiment(task="nope")


def test_tensor_experiment_rows_and_noise_floor():
    rows, per_update, prob, theta = run_tensor_experiment(
        dims=(3, 4, 5), rank=2, sweeps=40, seed=4, noise=0.1)
    assert rows[0][0] == 0 and rows[-1][0] == 40
    assert prob.relative_error(theta) == pytest.approx(rows[-1][2])
    assert all(np.isfinite(v) for _, v, _ in rows)


# the seeds of 0-40 whose plain ALS run at 40 sweeps on dims (20, 30, 40),
# rank 5, ends in a swamp, as the README and run_tensor_experiment name them
STALLED_SEEDS = {8, 12, 28, 32, 34, 35, 36}


@pytest.mark.parametrize("seed,stalled", [(8, True), (0, False)])
def test_tensor_stall_verdict(seed, stalled):
    # seed 8 ends in a swamp at relative error 0.37, seed 0 at 5e-15
    rows, _, _, _ = run_tensor_experiment(dims=(20, 30, 40), rank=5, sweeps=40,
                                          seed=seed)
    assert tensor_stalled(rows, 0.0) is stalled
    assert tensor_stalled(rows, 0.1) is None          # noise sets the floor
    assert tensor_stalled(rows[:10], 0.0) is None     # shorter than the window


def test_tensor_stalled_seeds():
    # the stalled runs end at relative error 0.26-0.47, the others at 9e-9 or
    # less
    stalled = set()
    for seed in range(41):
        rows, _, _, _ = run_tensor_experiment(dims=(20, 30, 40), rank=5,
                                              sweeps=40, seed=seed)
        verdict = tensor_stalled(rows, 0.0)
        assert verdict in (True, False)
        if verdict:
            stalled.add(seed)
        assert tensor_stalled(rows, 0.1) is None          # noise sets the floor
        assert tensor_stalled(rows[:10], 0.0) is None     # shorter than the window
    assert stalled == STALLED_SEEDS


@pytest.mark.parametrize("noise, message", [
    (1e308, r"^tensor must be finite, got -?inf at index "),
    (1e160, r"^non-finite objective at sweep 0: inf$")],
    ids=["tensor", "objective"])
def test_tensor_experiment_rejects_an_overflowing_noise(monkeypatch, noise, message):
    def no_step(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(experiments, "bdca_step", no_step)
    with pytest.raises(ValueError, match=message):
        run_tensor_experiment(dims=(3, 4, 5), rank=2, sweeps=2, noise=noise)


def test_tensor_experiment_validates_dims():
    with pytest.raises(ValueError):
        run_tensor_experiment(dims=(4,), rank=1)


@pytest.mark.parametrize("variants", [(), ("l1", "bogus"), ("l2",), "l1"],
                         ids=["empty", "l1_and_bogus", "l2", "bare_string"])
def test_sdl_experiment_checks_variants_before_any_step(monkeypatch, variants):
    def no_step(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(experiments, "bdca_step", no_step)
    with pytest.raises(ValueError, match=r"^variants must name one or more of "
                                         r"'l1', 'l1_lq', got "):
        run_sdl_experiment(n_outer=1, n_seeds=1, variants=variants)


def test_relu_scatter_rejects_a_non_finite_gradient_norm(monkeypatch):
    def nan_run(problem, config, callback):
        # the iterate turns NaN at k=1, so the step recorded at k=2 starts at NaN
        theta = problem.initial_point()
        nan = np.full(problem.partition.total_dim, np.nan)
        for k in (1, 2):
            callback(k, theta, nan, SimpleNamespace(block=0))
            theta = nan
        return IterTrace()

    monkeypatch.setattr(experiments, "run", nan_run)
    with pytest.raises(ValueError, match=r"^non-finite gradient norm at k=2, "
                                         r"block 0: nan$"):
        run_relu_experiment(stride=2, epochs=1, n_data=20, layer_dims=(4,))
