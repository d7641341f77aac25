import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bdcopt import relu
from bdcopt.problems import (CpInstance, CpProblem, MlpTask, MlpTaskProblem,
                             SdlInstance, SdlProblem, cp_reconstruct,
                             gaussian_blobs, gd_baseline_sdl, lq_norm,
                             lq_subgrad, sdl_synthetic)
from bdcopt.problems.cp import _khatri_rao, _khatri_rao_others, _unfold
from bdcopt.solvers import SolverConfig, bdca_step, run


class TestSdlSynthetic:
    def test_default_protocol(self):
        Y, D, X = sdl_synthetic()
        assert Y.shape == (10, 100) and D.shape == (10, 32) and X.shape == (32, 100)
        np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal((X != 0).sum(axis=0), np.full(100, 5))
        assert np.mean(X == 0) == pytest.approx(1 - 5 / 32)  # 0.84375
        np.testing.assert_allclose(Y, D @ X, atol=1e-12)

    def test_dense_when_k_equals_l(self):
        _, _, X = sdl_synthetic(4, 6, 10, 6, seed=1)
        assert np.all(X != 0)

    def test_rank_bound(self):
        Y, _, _ = sdl_synthetic(seed=2)
        assert np.linalg.matrix_rank(Y) <= min(10, 32, 100)

    def test_deterministic(self):
        Y1, D1, X1 = sdl_synthetic(seed=3)
        Y2, D2, X2 = sdl_synthetic(seed=3)
        np.testing.assert_array_equal(Y1, Y2)
        np.testing.assert_array_equal(D1, D2)
        np.testing.assert_array_equal(X1, X2)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            sdl_synthetic(4, 6, 10, 7)


class TestLargestQNorm:
    def test_example(self):
        x = np.array([3.0, -1.0, 2.0])
        assert lq_norm(x, 2) == 5.0
        np.testing.assert_array_equal(lq_subgrad(x, 2), [1.0, 0.0, 1.0])

    def test_full_q_is_l1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        assert lq_norm(x, 7) == pytest.approx(np.sum(np.abs(x)))
        np.testing.assert_array_equal(lq_subgrad(x, 7), np.sign(x))

    def test_zero_vector_selects_first_indices(self):
        x = np.zeros(5)
        assert lq_norm(x, 3) == 0.0
        np.testing.assert_array_equal(lq_subgrad(x, 3), [1, 1, 1, 0, 0])

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n + 1))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            u = lq_subgrad(x, q)
            assert lq_norm(y, q) >= lq_norm(x, q) + float(u @ (y - x)) - 1e-10

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            lq_norm(np.ones(3), 0)
        with pytest.raises(ValueError):
            lq_subgrad(np.ones(3), 4)


# entries with many exact ties in |x|, signed zeros included
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
SPREAD = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
_DENSE = np.random.default_rng(21).standard_normal((16, 12))


@st.composite
def codes_and_q(draw):
    l = draw(st.integers(1, 20))
    n = draw(st.integers(1, 12))
    elements = draw(st.sampled_from([TIED, SPREAD, st.one_of(TIED, SPREAD)]))
    X = draw(hnp.arrays(float, (l, n), elements=elements))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, n - 1))] = 0.0
    return X, draw(st.integers(1, l))


def _columnwise_reference(X, Q):
    """The per-column largest-Q norm and subgradient: one stable argsort and
    one 1-D sum per column."""
    total, cols = 0, []
    for j in range(X.shape[1]):
        x = X[:, j]
        idx = np.argsort(-np.abs(x), kind="stable")[:Q]
        total += float(np.sum(np.abs(x[idx])))
        s = np.zeros_like(x)
        s[idx] = np.where(x[idx] >= 0, 1.0, -1.0)
        cols.append(s)
    return total, np.column_stack(cols)


class TestColumnwiseLargestQ:
    @settings(max_examples=300, deadline=None)
    @given(codes_and_q())
    @example((np.zeros((5, 1)), 3))
    @example((np.array([[-0.0], [0.0], [-1.0], [1.0]]), 2))
    @example((_DENSE, 12))
    def test_matches_scalar_reference_exactly(self, case):
        X, Q = case
        l, n = X.shape
        prob = SdlProblem(SdlInstance(Y=np.zeros((1, n)), D=np.zeros((1, l)),
                                      X=X, alpha=1.0, Q=Q))
        theta = prob.initial_point()
        total, S = _columnwise_reference(X, Q)
        assert prob.eval_h(1, theta) == total
        assert prob.eval_h(1, theta) == sum(lq_norm(X[:, j], Q) for j in range(n))
        np.testing.assert_array_equal(prob.subgrad_h_block(1, theta).reshape(l, n), S)
        np.testing.assert_array_equal(
            S, np.column_stack([lq_subgrad(X[:, j], Q) for j in range(n)]))
        l1 = float(np.sum(np.abs(X)))
        assert prob.eval_f(theta) == 0.0 + 1.0 * (l1 - total)


class TestSdlInstance:
    def data(self):
        Y, D, X = sdl_synthetic(4, 6, 10, 2, seed=0)
        return dict(Y=Y, D=D, X=X)

    @pytest.mark.parametrize("q", [0, 7, -1])
    def test_q_outside_atoms_is_rejected(self, q):
        with pytest.raises(ValueError, match=r"Q=%d with l=6" % q):
            SdlInstance(**self.data(), Q=q)

    def test_q_bounds_are_inclusive_and_plain_l1_ignores_q(self):
        SdlInstance(**self.data(), Q=1)
        SdlInstance(**self.data(), Q=6)
        SdlInstance(**self.data(), Q=40, variant="l1")

    @pytest.mark.parametrize("alpha", [-1.0, -1e-12, float("nan")])
    def test_negative_alpha_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            SdlInstance(**self.data(), alpha=alpha)


class TestSdlProblem:
    def build(self, variant="l1_lq", alpha=0.2, seed=0):
        Y, D, X = sdl_synthetic(6, 8, 12, 3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        return SdlProblem(SdlInstance(
            Y=Y, D=D, X=X + 0.3 * rng.standard_normal(X.shape),
            alpha=alpha, Q=3, variant=variant))

    def test_decomposition_matches_objective(self):
        prob = self.build()
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = rng.standard_normal(prob.partition.total_dim)
            f = prob.eval_f(theta)
            for i in range(2):
                gap = prob.eval_g(i, theta) - prob.eval_h(i, theta) - f
                assert abs(gap) <= 1e-10 * (1 + abs(f))

    def test_plain_l1_variant_has_zero_concave_side(self):
        prob = self.build(variant="l1")
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(prob.partition.total_dim)
        for i in range(2):
            assert prob.eval_h(i, theta) == 0.0
            np.testing.assert_array_equal(prob.subgrad_h_block(i, theta),
                                          np.zeros(prob.partition.block_dims[i]))

    def test_zero_alpha_gives_alternating_least_squares(self):
        prob = self.build(variant="l1", alpha=0.0)
        theta = prob.initial_point()
        theta, _ = bdca_step(prob, theta, 1, budget=4000, tol=1e-12)
        D, X = prob.unpack(theta)
        X_ls = np.linalg.lstsq(D, prob.instance.Y, rcond=None)[0]
        fit = 0.5 * np.sum((prob.instance.Y - D @ X) ** 2)
        fit_ls = 0.5 * np.sum((prob.instance.Y - D @ X_ls) ** 2)
        assert fit == pytest.approx(fit_ls, abs=1e-7)

    def test_lq_subgradient_support_size(self):
        prob = self.build()
        theta = prob.initial_point()
        u = prob.subgrad_h_block(1, theta).reshape(8, 12)
        np.testing.assert_array_equal((u != 0).sum(axis=0), np.full(12, 3))

    def test_code_step_produces_exact_zeros(self):
        # the soft-threshold proximal step zeroes small coordinates exactly,
        # so sparsity can be measured without thresholding
        prob = self.build(alpha=0.6)
        theta = prob.initial_point()
        theta, _ = bdca_step(prob, theta, 1, budget=50)
        _, X = prob.unpack(theta)
        assert np.mean(X == 0.0) > 0.2

    def test_dictionary_update_stays_feasible(self):
        prob = self.build()
        theta = prob.initial_point()
        for _ in range(5):
            theta, _ = bdca_step(prob, theta, 1, budget=10)
            theta, _ = bdca_step(prob, theta, 0, budget=10)
            D, _ = prob.unpack(theta)
            assert np.max(np.linalg.norm(D, axis=0)) <= 1 + 1e-10


class TestGdBaseline:
    def test_zero_gradient_state_is_fixed(self):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((4, 6))
        D /= np.linalg.norm(D, axis=0)
        inst = SdlInstance(Y=np.zeros((4, 9)), D=D, X=np.zeros((6, 9)),
                           alpha=0.0, Q=2, variant="l1")
        vals = gd_baseline_sdl(inst, 3)
        np.testing.assert_array_equal(vals, np.zeros(4))

    def test_step_size_finite_and_positive(self):
        Y, D, X = sdl_synthetic(5, 6, 8, 2, seed=5)
        eta = 1.0 / (np.linalg.norm(D, 2) ** 2 + np.linalg.norm(X, 2) ** 2)
        assert 0 < eta < np.inf

    @pytest.mark.parametrize("variant,q", [("l1_lq", 3), ("l1_lq", 9), ("l1", 3)])
    def test_matches_oracle_loop_bit_for_bit(self, variant, q):
        Y, _, X = sdl_synthetic(6, 10, 12, 3, seed=7)
        D = np.random.default_rng(8).standard_normal((6, 10))
        D /= np.linalg.norm(D, axis=0)
        inst = SdlInstance(Y=Y, D=D, X=0.1 * X, alpha=0.1, Q=q, variant=variant)
        prob = SdlProblem(inst)
        theta = prob.initial_point()
        want = [prob.eval_f(theta)]
        sl_d, sl_x = prob.partition.slice_of(0), prob.partition.slice_of(1)
        for _ in range(25):
            D, X = prob.unpack(theta)
            eta = 1.0 / (np.linalg.norm(D, 2) ** 2 + np.linalg.norm(X, 2) ** 2)
            gd = prob.grad_g_block(0, theta) - prob.subgrad_h_block(0, theta)
            gx = prob.grad_g_block(1, theta) - prob.subgrad_h_block(1, theta)
            theta = theta.copy()
            theta[sl_d] -= eta * gd
            theta[sl_x] -= eta * gx
            theta[sl_d] = prob.block_domain(0).project(theta[sl_d])
            want.append(prob.eval_f(theta))
        np.testing.assert_array_equal(gd_baseline_sdl(inst, 25), want)

    def test_baseline_descends_on_random_instance(self):
        Y, D, X = sdl_synthetic(6, 8, 12, 3, seed=6)
        inst = SdlInstance(Y=Y, D=D, X=np.zeros_like(X), alpha=0.1, Q=3,
                           variant="l1_lq")
        vals = gd_baseline_sdl(inst, 50)
        assert vals[-1] < vals[0]


def cp_problem(T, rank, seed):
    """CP problem for ``T`` started from standard normal factors."""
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((m, rank)) for m in T.shape]
    return CpProblem(CpInstance(tensor=T, rank=rank, factors=factors))


class TestCp:
    def test_khatri_rao_matches_columnwise_kron(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        want = np.column_stack([np.kron(a[:, r], b[:, r]) for r in range(3)])
        np.testing.assert_array_equal(_khatri_rao(a, b), want)

    def test_unfold_matches_khatri_rao_product(self):
        rng = np.random.default_rng(7)
        factors = [rng.standard_normal((m, 3)) for m in (4, 5, 6)]
        T = cp_reconstruct(factors)
        for i in range(3):
            K = _khatri_rao_others(factors, i)
            np.testing.assert_allclose(_unfold(T, i), factors[i] @ K.T, atol=1e-12)

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(8)
        T = cp_reconstruct([rng.standard_normal((m, 2)) for m in (4, 5, 6)])
        prob = cp_problem(T, 2, seed=3)
        theta = prob.initial_point()
        for sweep in range(200):
            for i in range(3):
                theta, _ = bdca_step(prob, theta, i)
            if prob.relative_error(theta) <= 1e-6:
                break
        assert prob.relative_error(theta) <= 1e-6
        assert sweep < 199

    def test_rank_one_single_sweep(self):
        rng = np.random.default_rng(9)
        T = cp_reconstruct([rng.standard_normal((m, 1)) for m in (3, 4, 5)])
        prob = cp_problem(T, 1, seed=4)
        theta = prob.initial_point()
        for i in range(3):
            theta, _ = bdca_step(prob, theta, i)
        assert prob.relative_error(theta) <= 1e-10

    def test_objective_monotone_every_block_update(self):
        rng = np.random.default_rng(10)
        T = cp_reconstruct([rng.standard_normal((m, 2)) for m in (4, 4, 4)])
        T += 0.05 * rng.standard_normal(T.shape)
        prob = cp_problem(T, 2, seed=5)
        theta = prob.initial_point()
        prev = prob.eval_f(theta)
        for _ in range(30):
            for i in range(3):
                theta, _ = bdca_step(prob, theta, i)
                now = prob.eval_f(theta)
                assert now <= prev + 1e-9 * (1 + abs(prev))
                prev = now

    def test_block_update_reaches_block_optimum(self):
        rng = np.random.default_rng(11)
        T = cp_reconstruct([rng.standard_normal((m, 2)) for m in (4, 5, 6)])
        prob = cp_problem(T, 2, seed=6)
        theta = prob.initial_point()
        theta, _ = bdca_step(prob, theta, 1)
        grad = prob.grad_g_block(1, theta)
        assert np.linalg.norm(grad) <= 1e-8

    def test_instance_shape_validation(self):
        rng = np.random.default_rng(12)
        T = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            CpInstance(tensor=T, rank=2, factors=[rng.standard_normal((3, 2))])


class TestMlpProblem:
    def test_output_block_training_is_least_squares(self):
        # features [relu(x), relu(-x), 1] make the output layer a linear
        # model, so fitting only that block is ordinary least squares.  The
        # planted coefficients and the start are positive, keeping the whole
        # path inside the smooth region of the split (coordinate zeros are
        # valleys of both split parts and absorb iterates that land there).
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, size=(40, 1))
        feats = np.column_stack([np.maximum(x[:, 0], 0),
                                 np.maximum(-x[:, 0], 0),
                                 np.ones(len(x))])
        y = feats @ np.array([2.0, 1.0, 1.5]) + 0.05 * rng.standard_normal(40)
        first = (np.array([[1.0], [-1.0]]), np.zeros(2))
        out = (np.array([[0.5, 0.5]]), np.array([0.5]))
        task = MlpTask(inputs=x, labels=y, net=relu.MlpParams([first, out]),
                       loss="mse")
        prob = MlpTaskProblem(task)
        theta = prob.initial_point()
        for _ in range(300):
            theta, _ = bdca_step(prob, theta, 1, budget=50, tol=1e-12)
        coef, *_ = np.linalg.lstsq(feats, task.labels, rcond=None)
        best = float(np.mean((feats @ coef - task.labels) ** 2))
        assert prob.eval_f(theta) <= best + 1e-6

    def test_split_matches_batch_loss(self):
        rng = np.random.default_rng(14)
        x, y = gaussian_blobs(30, 3, seed=2)
        net = relu.random_params((2, 7, 3), rng)
        prob = MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))
        for _ in range(10):
            theta = rng.standard_normal(prob.partition.total_dim)
            F = relu.forward_standard(prob.params(theta), x)
            want = float(np.mean(relu.log_sum_exp(F) - F[np.arange(30), y]))
            got = prob.eval_g(0, theta) - prob.eval_h(0, theta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_step_only_moves_selected_block(self):
        rng = np.random.default_rng(15)
        x, y = gaussian_blobs(20, 3, seed=3)
        net = relu.random_params((2, 6, 4, 3), rng)
        prob = MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))
        theta = prob.initial_point()
        for i in range(3):
            new, _ = bdca_step(prob, theta, i, budget=5)
            mask = np.ones(theta.size, dtype=bool)
            mask[prob.partition.slice_of(i)] = False
            np.testing.assert_array_equal(new[mask], theta[mask])

    def test_regression_labels_shifted_nonnegative(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((15, 1))
        y = rng.standard_normal(15) - 5.0
        net = relu.random_params((1, 4, 1), rng)
        task = MlpTask(inputs=x, labels=y, net=net, loss="mse")
        assert task.label_shift == pytest.approx(-float(np.min(y)))
        assert np.min(task.labels) >= 0.0

    @staticmethod
    def bad_task(case):
        rng = np.random.default_rng(19)
        x, y = gaussian_blobs(6, 3, seed=1)
        ce_net = relu.random_params((2, 4, 3), rng)
        mse_net = relu.random_params((2, 4, 1), rng)
        if case == "class out of range":
            y = y.copy()
            y[4] = 3
        elif case == "float classes":
            y = y.astype(float)
        elif case == "ce on one output":
            return MlpTask(inputs=x, labels=y, net=mse_net, loss="ce")
        elif case == "mse on three outputs":
            return MlpTask(inputs=x, labels=y.astype(float), net=ce_net, loss="mse")
        elif case in ("negative mse label", "nan mse label"):
            task = MlpTask(inputs=x, labels=y.astype(float), net=mse_net, loss="mse")
            # assigned after the task shifted its labels
            task.labels = task.labels - (1.0 if case == "negative mse label" else np.nan)
            return task
        elif case == "too few input columns":
            x = x[:, :1]
        elif case == "too few input rows":
            x = x[:5]
        elif case == "1-D inputs":
            x = x[:, 0]
        elif case == "2-D labels":
            y = y[:, None]
        return MlpTask(inputs=x, labels=y, net=ce_net, loss="ce")

    @pytest.mark.parametrize("case, match", [
        ("class out of range", r"in \[0, 3\) \(row 4 holds 3\)"),
        ("float classes", "integer class indices in \\[0, 3\\), got dtype float64"),
        ("ce on one output", "expects >= 2 outputs, got 1"),
        ("mse on three outputs", "expects a scalar output, got 3 outputs"),
        ("negative mse label", r"labels must be >= 0.*\(row \d+ holds -1\.0\)"),
        ("nan mse label", r"labels must be >= 0.*\(row 0 holds nan\)"),
        ("too few input columns", r"\(6, 2\), got \(6, 1\)"),
        ("too few input rows", r"\(6, 2\), got \(5, 2\)"),
        ("1-D inputs", r"\(6, 2\), got \(6,\)"),
        ("2-D labels", r"labels must be 1-D, got shape \(6, 1\)"),
    ])
    def test_task_checked_when_the_problem_is_built(self, case, match):
        task = self.bad_task(case)
        with pytest.raises(ValueError, match=match):
            MlpTaskProblem(task)

    def test_sample_rejects_empty_batch(self):
        x, y = gaussian_blobs(10, 2, seed=1)
        net = relu.random_params((2, 3, 2), np.random.default_rng(18))
        prob = MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))
        rng = np.random.default_rng(0)
        assert len(prob.sample(rng).indices) == 1
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            prob.sample(rng, 0)

    def test_solver_run_descends(self):
        x, y = gaussian_blobs(40, 3, seed=4)
        net = relu.random_params((2, 8, 3), np.random.default_rng(17))
        prob = MlpTaskProblem(MlpTask(inputs=x, labels=y, net=net, loss="ce"))
        trace = run(prob, SolverConfig(n_iters=30, rho=1.0, seed=5,
                                       inner_budget=10))
        assert trace.final_f < trace.records[0].f
