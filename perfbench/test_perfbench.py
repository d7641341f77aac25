"""Tests of the benchmark's own code: every correctness check rejects a wrong
answer, and the span arithmetic gives the right self times.

    python3 -m pytest -q perfbench
"""

import copy
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def sdl_out():
    return W.sdl_solve(0)


@pytest.fixture(scope="module")
def relu_out():
    return W.relu_solve(0)


@pytest.fixture(scope="module")
def tensor_out():
    return W.tensor_solve(0)


def test_checks_pass_on_the_program_outputs(sdl_out, relu_out, tensor_out):
    assert W.sdl_check(sdl_out, 0) == []
    assert W.relu_check(relu_out, 0) == []
    assert W.tensor_check(tensor_out, 0) == []


def _sdl_wrong(out, change):
    out = copy.deepcopy(out)
    change(out)
    return W.sdl_check(out, 0)


def test_sdl_check_rejects_a_wrong_gd_final(sdl_out):
    def change(out):
        out["gd"][0]["gd_final"] *= 1.0 + 1e-7
    assert any("gd_final" in p for p in _sdl_wrong(sdl_out, change))


def test_sdl_check_rejects_bdca_above_gd(sdl_out):
    def change(out):
        out["gd"][0]["bdca_final"] = out["gd"][0]["gd_final"] * 1.01
    assert any("bdca_final" in p for p in _sdl_wrong(sdl_out, change))


def test_sdl_check_rejects_a_wrong_start_or_ordering(sdl_out):
    def start(out):
        out["res"].rec["l1"][0, 0] = 0.999
    assert any("iteration 0" in p for p in _sdl_wrong(sdl_out, start))

    def swap(out):
        res = out["res"]
        res.rec["l1"], res.rec["l1_lq"] = res.rec["l1_lq"], res.rec["l1"]
    assert any("beat" in p for p in _sdl_wrong(sdl_out, swap))

    def sparsity(out):
        out["res"].true_sparsity = 0.8
    assert any("true_sparsity" in p for p in _sdl_wrong(sdl_out, sparsity))


def test_gd_reference_matches_the_program_baseline():
    from bdcopt.problems.sdl import SdlInstance, gd_baseline_sdl, sdl_synthetic

    p = W.SDL
    Y, _, _ = sdl_synthetic(p["m"], p["l"], p["n"], p["k_nonzero"],
                            seed=W._substream(3, "data0"))
    D = W._substream(3, "init0").standard_normal((p["m"], p["l"]))
    D /= np.linalg.norm(D, axis=0)
    inst = SdlInstance(Y=Y, D=D, X=np.zeros((p["l"], p["n"])),
                       alpha=p["alpha"], Q=p["q"])
    ours = W.sdl_gd_reference(3, 40)
    assert abs(ours - gd_baseline_sdl(inst, 40)[-1]) <= 1e-9 * ours


def test_top_q_helpers_break_ties_to_the_lowest_index():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 2.0]])
    assert W.top_q_sum(X, 2) == 2.0 + 2.0
    S = W.top_q_sign(X, 2)
    assert S[:, 0].tolist() == [1.0, -1.0, 0.0]
    assert S[:, 1].tolist() == [1.0, 0.0, 1.0]


def _relu_wrong(out, change):
    out = copy.deepcopy(out)
    change(out)
    return W.relu_check(out, 0)


def test_relu_check_rejects_a_perturbed_loss(relu_out):
    def first(out):
        k, loss, r = out.loss_rows[0]
        out.loss_rows[0] = (k, loss * (1.0 + 1e-6), r)
    assert any("first loss" in p for p in _relu_wrong(relu_out, first))

    def final(out):
        k, loss, r = out.loss_rows[-1]
        out.loss_rows[-1] = (k, loss * (1.0 - 1e-6), r)
    assert any("final loss" in p for p in _relu_wrong(relu_out, final))


def test_relu_check_rejects_a_rising_loss_curve(relu_out):
    def rise(out):
        out.loss_rows[-3] = (0, 100.0, 0.0)
    assert any("end-window" in p for p in _relu_wrong(relu_out, rise))


def test_relu_check_rejects_a_step_above_its_bound(relu_out):
    def long_step(out):
        r = out.trace.records[4]
        r.step_norm = 2.0 * (2.0 / out.rho) * (r.block_grad_gap + r.noise_norm)
    assert any("step 4" in p for p in _relu_wrong(relu_out, long_step))


def test_plain_ce_loss_matches_a_hand_computed_value():
    layers = [(np.array([[1.0, -1.0]]), np.array([0.5])),
              (np.array([[2.0], [0.0]]), np.array([0.0, 1.0]))]
    x, y = np.array([[1.0, 2.0], [2.0, 0.0]]), np.array([0, 1])
    # hidden units relu(-0.5) = 0 and relu(2.5) = 2.5 give logits
    # (0, 1) and (5, 1)
    want = np.mean([np.log(np.exp(0.0) + np.exp(1.0)) - 0.0,
                    np.log(np.exp(5.0) + np.exp(1.0)) - 1.0])
    assert W.plain_ce_loss(layers, x, y) == pytest.approx(want, rel=1e-15)


def _tensor_wrong(out, change):
    out = copy.deepcopy(out)
    change(out)
    return W.tensor_check(out, 0)


def test_tensor_check_rejects_a_rising_objective(tensor_out):
    def rise(out):
        out["per_update"][7] = out["per_update"][6] * 1.001
    assert any("rises" in p for p in _tensor_wrong(tensor_out, rise))


def test_tensor_check_rejects_wrong_factors_or_objective(tensor_out):
    def factors(out):
        out["theta"] = out["theta"] + 1e-3
    assert any("relative error" in p for p in _tensor_wrong(tensor_out, factors))

    def start(out):
        sweep, f, rel = out["rows"][0]
        out["rows"][0] = (sweep, f * (1.0 + 1e-6), rel)
    assert any("initial objective" in p for p in _tensor_wrong(tensor_out, start))


def test_tensor_check_rejects_a_solver_that_does_nothing(monkeypatch):
    from bdcopt import experiments

    monkeypatch.setattr(experiments, "bdca_step", lambda prob, theta, i: (theta, {}))
    problems = W.tensor_check(W.tensor_solve(0), 0)
    assert any("gradient" in p for p in problems)
    assert any("not below the start" in p for p in problems)


def test_tensor_check_rejects_a_truncated_run(tensor_out):
    def truncate(out):
        out["rows"] = out["rows"][:-1]
        out["per_update"] = out["per_update"][:-3]
    assert any("rows" in p for p in _tensor_wrong(tensor_out, truncate))


def test_outer_sum_matches_an_explicit_loop():
    rng = np.random.default_rng(1)
    F = [rng.standard_normal((m, 2)) for m in (2, 3, 4)]
    T = np.zeros((2, 3, 4))
    for i, j, k, r in np.ndindex(2, 3, 4, 2):
        T[i, j, k] += F[0][i, r] * F[1][j, r] * F[2][k, r]
    assert np.allclose(W.outer_sum(F), T, rtol=1e-14, atol=0)


# --- timing ------------------------------------------------------------------

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_timer_takes_the_kernel_runs_out_of_the_solve_time():
    timer = reference.Timer(reference.ReferenceKernel())
    t0 = time.perf_counter()
    result, elapsed, kernel_s = timer.call(_busy, 0.2)
    wall = time.perf_counter() - t0
    paused = sum(e - s for s, e in timer.pauses)
    assert result == "done"
    assert len(timer.pauses) >= 5
    assert elapsed + paused == pytest.approx(0.2, abs=0.02)
    assert elapsed + paused < wall
    assert kernel_s > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_timer_stops_and_reraises_when_the_call_raises():
    timer = reference.Timer(reference.ReferenceKernel())

    def fail():
        _busy(0.05)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        timer.call(fail)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_a_raising_solve_is_failed_and_makes_the_run_wrong():
    import run

    rounds = run.Rounds(lambda out: 0, lambda out, seed: [],
                        reference.Timer(reference.ReferenceKernel()))

    def fail(seed):
        raise ValueError("boom")

    assert rounds.timed(fail, 3) is None
    assert (rounds.attempted, rounds.failed) == (1, 1)
    assert rounds.problems and "boom" in rounds.problems[0]


# --- spans -------------------------------------------------------------------

def test_removing_pauses_stops_the_clock_inside_them():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 3.5, 4.5, 0, None],
             ["c", 8.0, 9.0, 0, None]]
    moved = tracing.remove_pauses(spans, [(2.0, 3.0), (5.0, 7.0)])
    assert [s[1:3] for s in moved] == [[0.0, 7.0], [2.5, 3.5], [5.0, 6.0]]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 3.0, 0, None],
             ["c", 2.0, 2.5, 1, None],
             ["d", 5.0, 6.0, 0, None],
             ["e", 5.5, 7.0, 0, None]]     # overlaps d: union 5..7
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 1.0, 1.5])


def _stochastic_run():
    # one iteration of solvers.run: records, noise estimate, step, callback
    s = [["experiments", 0.0, 100.0, -1, None],
         ["solvers.run", 1.0, 90.0, 0, None],
         ["diag.residual_blocks", 2.0, 6.0, 1, None],
         ["oracle.grad_g_block", 2.5, 4.0, 2, None],
         ["oracle.eval_f", 7.0, 8.0, 1, None],
         ["oracle.grad_g_block", 9.0, 10.0, 1, None],
         ["oracle.subgrad_h_block", 10.0, 11.0, 1, None],
         ["oracle.subgrad_h_block", 12.0, 13.0, 1, None],   # the step's
         ["inner", 13.0, 40.0, 1, 7],
         ["oracle.eval_g", 14.0, 20.0, 8, None],
         ["oracle.eval_g", 41.0, 43.0, 1, None],            # the check
         ["oracle.eval_g", 43.0, 45.0, 1, None],
         ["callback", 46.0, 60.0, 1, None],
         ["diag.smoothness", 47.0, 55.0, 12, None],
         ["oracle.grad_g_block", 56.0, 57.0, 12, None],
         ["oracle.eval_f", 92.0, 93.0, 0, None]]
    return s


def test_run_steps_are_rebuilt_from_the_call_order():
    spans = tracing.add_run_steps(_stochastic_run())
    step = len(spans) - 1
    assert spans[step][:4] == ["step", 12.0, 45.0, 1]
    assert [k for k, s in enumerate(spans) if s[3] == step] == [7, 8, 10, 11]


def test_layer_metrics_on_a_hand_built_tree():
    m = tracing.layer_metrics(_stochastic_run())
    assert m["step.calls"] == 1
    assert m["step.s"] == pytest.approx(33.0)
    assert m["step.check_s"] == pytest.approx(4.0)
    assert m["step.self_s"] == pytest.approx(33.0 - 1.0 - 27.0 - 4.0)
    assert m["inner.calls"] == 1 and m["inner.iters"] == 7
    assert m["inner.self_s"] == pytest.approx(27.0 - 6.0)
    assert m["inner.evals_per_step"] == 1.0
    # residual blocks 4, eval_f 1, noise estimate 2, callback grad 1,
    # smoothness 8, final eval_f 1
    assert m["diag.s"] == pytest.approx(4.0 + 1.0 + 2.0 + 1.0 + 8.0 + 1.0)
    assert m["diag.oracle_calls"] == 6
    assert m["diag.residual_blocks.calls"] == 1
    assert m["experiments.self_s"] == pytest.approx(100.0 - 89.0 - 1.0)
    assert m["trace.spans"] == 16


def test_traced_solve_emits_every_layer_metric_and_restores_the_program(tensor_out):
    from bdcopt import experiments

    names = {m["name"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    before = experiments.bdca_step
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        out = W.tensor_solve(0)
    assert experiments.bdca_step is before
    assert W.tensor_fingerprint(out) == W.tensor_fingerprint(tensor_out)
    m = tracing.layer_metrics(tracer.spans)
    assert set(m) | {"setup.modules", "trace.overhead_s"} == names
    assert m["step.calls"] == 3 * W.TENSOR["sweeps"]
    assert m["inner.calls"] == m["step.calls"]
