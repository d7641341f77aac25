"""What the model computes beyond the oracle contract: the stationarity
bound, the combinators on the full data and on a minibatch, conjugate
composition and the sampled active piece of a maximum.  The contract itself is ``test_oracle_contract.py``'s.
"""

import numpy as np
import pytest

from bdcopt.blocks import BlockPartition
from bdcopt.model import (AffineBdcMap, BdcProblem, LogSumExpOracle,
                          SingletonConjugate, combine_linear, combine_max,
                          combine_min, conjugate_compose, residual_upper)
from bdcopt.problems import QuadraticDcProblem, SdlInstance, SdlProblem, sdl_synthetic
from cases import blobs

PART = BlockPartition([3, 2, 4])


class TestResidualUpper:
    def test_smooth_problem_matches_gradient_norm(self):
        rng = np.random.default_rng(3)
        prob = QuadraticDcProblem.random(PART, rng, concave=False)  # h == 0
        theta = rng.standard_normal(9)
        grad = prob.A.T @ (prob.A @ theta - prob.b)
        assert residual_upper(prob, theta) == pytest.approx(np.linalg.norm(grad))

    def test_absolute_value_at_one(self):
        class AbsProblem(BdcProblem):
            partition = BlockPartition([1])

            def eval_f(self, theta):
                return abs(float(theta[0]))

            def eval_g(self, i, theta):
                return abs(float(theta[0]))

            def eval_h(self, i, theta):
                return 0.0

            def grad_g_block(self, i, theta):
                return np.array([np.sign(float(theta[0]))])

            def subgrad_h_block(self, i, theta):
                return np.zeros(1)

        assert residual_upper(AbsProblem(), np.array([1.0])) == pytest.approx(1.0)

    def test_bounds_directional_derivative_on_sdl(self):
        # brute-force oracle: one-sided directional finite differences lower
        # bound the stationarity residual at points of differentiability
        rng = np.random.default_rng(4)
        Y, D, X = sdl_synthetic(5, 7, 9, 3, seed=9)
        prob = SdlProblem(SdlInstance(Y=Y, D=0.9 * D,
                                      X=rng.standard_normal(X.shape),
                                      alpha=0.3, Q=2, variant="l1_lq"))
        theta = prob.initial_point()
        res = residual_upper(prob, theta)
        f0 = prob.eval_f(theta)
        h = 1e-6
        lb = 0.0
        for _ in range(100):
            v = rng.standard_normal(theta.size)
            v /= np.linalg.norm(v)
            deriv = (prob.eval_f(theta + h * v) - f0) / h
            lb = max(lb, -deriv)
        assert res >= lb - 1e-4 * (1 + lb)


class TestCombinators:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.p1 = QuadraticDcProblem.random(PART, rng)
        self.p2 = QuadraticDcProblem.random(PART, rng)
        self.rng = rng

    def test_single_identity_weight(self):
        lc = combine_linear([self.p1], [1.0])
        theta = self.rng.standard_normal(9)
        for i in range(3):
            assert lc.eval_g(i, theta) == pytest.approx(self.p1.eval_g(i, theta))
            assert lc.eval_h(i, theta) == pytest.approx(self.p1.eval_h(i, theta))

    def test_negation_swaps_roles(self):
        neg = combine_linear([self.p1], [-1.0])
        theta = self.rng.standard_normal(9)
        for i in range(3):
            assert neg.eval_g(i, theta) == pytest.approx(self.p1.eval_h(i, theta))
            assert neg.eval_h(i, theta) == pytest.approx(self.p1.eval_g(i, theta))

    def test_weighted_sum_values(self):
        lc = combine_linear([self.p1, self.p2], [2.0, -3.0])
        for _ in range(100):
            theta = self.rng.standard_normal(9)
            want = 2 * self.p1.eval_f(theta) - 3 * self.p2.eval_f(theta)
            assert abs(lc.eval_f(theta) - want) <= 1e-10 * (1 + abs(want))
            for i in range(3):
                assert abs(lc.eval_g(i, theta) - lc.eval_h(i, theta) - want) <= 1e-9

    def test_gradients_are_the_signed_sums(self):
        lc = combine_linear([self.p1, self.p2], [2.0, -3.0])
        theta = self.rng.standard_normal(9)
        for i in range(3):
            np.testing.assert_array_equal(
                lc.grad_g_block(i, theta),
                2.0 * self.p1.grad_g_block(i, theta)
                + 3.0 * self.p2.subgrad_h_block(i, theta))
            np.testing.assert_array_equal(
                lc.subgrad_h_block(i, theta),
                2.0 * self.p1.subgrad_h_block(i, theta)
                + 3.0 * self.p2.grad_g_block(i, theta))

    def test_zero_weights_keep_block_shaped_gradients(self):
        lc = combine_linear([self.p1, self.p2], [0.0, 0.0])
        theta = self.rng.standard_normal(9)
        for i in range(3):
            assert lc.eval_g(i, theta) == 0.0 and lc.eval_h(i, theta) == 0.0
            for grad in (lc.grad_g_block(i, theta), lc.subgrad_h_block(i, theta)):
                np.testing.assert_array_equal(grad, np.zeros(PART.block_dims[i]))

    def test_partition_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        other = QuadraticDcProblem.random(BlockPartition([4, 5]), rng)
        with pytest.raises(ValueError):
            combine_linear([self.p1, other], [1.0, 1.0])

    def test_max_of_one_is_unchanged(self):
        mx = combine_max([self.p1])
        theta = self.rng.standard_normal(9)
        assert mx.eval_f(theta) == pytest.approx(self.p1.eval_f(theta))

    def test_max_with_itself_keeps_values(self):
        mx = combine_max([self.p1, self.p1])
        theta = self.rng.standard_normal(9)
        assert mx.eval_f(theta) == pytest.approx(self.p1.eval_f(theta))
        for i in range(3):
            assert abs(mx.eval_g(i, theta) - mx.eval_h(i, theta)
                       - mx.eval_f(theta)) <= 1e-9

    def test_max_and_min_pointwise(self):
        mx = combine_max([self.p1, self.p2])
        mn = combine_min([self.p1, self.p2])
        for _ in range(100):
            theta = self.rng.standard_normal(9)
            f1, f2 = self.p1.eval_f(theta), self.p2.eval_f(theta)
            assert abs(mx.eval_f(theta) - max(f1, f2)) <= 1e-10 * (1 + abs(max(f1, f2)))
            assert abs(mn.eval_f(theta) - min(f1, f2)) <= 1e-10 * (1 + abs(min(f1, f2)))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            combine_max([])
        with pytest.raises(ValueError):
            combine_min([])


class TestConjugateCompose:
    def test_simplex_entropy_bounds(self):
        # coordinates of the probability simplex lie in [0, 1]
        part = BlockPartition([2, 2])
        emap = AffineBdcMap(part, np.random.default_rng(8).standard_normal((3, 4)))
        prob = conjugate_compose(emap, LogSumExpOracle(),
                                 (np.zeros(3), np.ones(3)))
        np.testing.assert_array_equal(prob.c_plus, np.zeros(3))
        np.testing.assert_array_equal(prob.d_plus, np.ones(3))

    def test_singleton_conjugate_gives_affine_function(self):
        rng = np.random.default_rng(9)
        part = BlockPartition([2, 3])
        M = rng.standard_normal((4, 5))
        q = rng.standard_normal(4)
        u0 = rng.standard_normal(4)
        emap = AffineBdcMap(part, M, q)
        prob = conjugate_compose(emap, SingletonConjugate(u0, f0=0.7),
                                 (u0, u0))
        for _ in range(30):
            theta = rng.standard_normal(5)
            want = float(u0 @ (M @ theta + q)) - 0.7
            assert prob.eval_f(theta) == pytest.approx(want, rel=1e-12)
            for i in range(2):
                assert (prob.eval_g(i, theta) - prob.eval_h(i, theta)
                        == pytest.approx(want, rel=1e-12, abs=1e-12))

    def test_log_sum_exp_through_composition(self):
        rng = np.random.default_rng(10)
        part = BlockPartition([2, 3])
        M = rng.standard_normal((3, 5))
        q = rng.standard_normal(3)
        emap = AffineBdcMap(part, M, q)
        prob = conjugate_compose(emap, LogSumExpOracle(),
                                 (np.zeros(3), np.ones(3)))
        for _ in range(100):
            theta = rng.standard_normal(5)
            t = M @ theta + q
            want = np.log(np.sum(np.exp(t)))
            assert prob.eval_f(theta) == pytest.approx(want, rel=1e-12)
            for i in range(2):
                got = prob.eval_g(i, theta) - prob.eval_h(i, theta)
                assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_unbounded_set(self):
        part = BlockPartition([2])
        emap = AffineBdcMap(part, np.eye(2))
        with pytest.raises(ValueError):
            conjugate_compose(emap, LogSumExpOracle(),
                              (np.array([0.0, -np.inf]), np.ones(2)))


class TestSampleReplay:
    def test_max_gradient_follows_the_sampled_active_piece(self):
        # on a minibatch, eval_g maximizes the sampled pieces
        # g_r + sum_s h_s - h_r; its gradient must take the same piece even
        # where the full-data objectives pick the other one
        parts = [blobs(30, seed, (2, 5, 3), 2) for seed in (1, 4)]
        mx = combine_max(parts)
        theta = mx.problems[0].initial_point()
        full = int(np.argmax([p.eval_f(theta) for p in parts]))
        rng = np.random.default_rng(3)
        differs = 0
        for _ in range(60):
            handle = parts[0].sample(rng, batch_size=5)
            i = int(rng.integers(mx.n_blocks))
            gs = [p.on(handle).eval_g(i, theta) for p in parts]
            hs = [p.on(handle).eval_h(i, theta) for p in parts]
            pieces = [g + sum(hs) - h for g, h in zip(gs, hs)]
            r = pieces.index(max(pieces))
            assert mx.on(handle).eval_g(i, theta) == pieces[r]
            want = (parts[r].on(handle).grad_g_block(i, theta)
                    + parts[1 - r].on(handle).subgrad_h_block(i, theta))
            np.testing.assert_array_equal(
                mx.on(handle).grad_g_block(i, theta), want)
            differs += r != full
        assert differs > 0

    def test_linear_combination_on_a_minibatch_combines_its_parts_on_it(self):
        # combine_linear(...).on(handle) is the combination of the parts'
        # minibatch problems, with the negative weight's roles swapped
        parts = [blobs(20, seed, (2, 4, 3), 5) for seed in (6, 7)]
        lin = combine_linear(parts, [0.7, -1.3])
        theta = parts[0].initial_point()
        handle = parts[0].sample(np.random.default_rng(8), batch_size=5)
        batch, rows = lin.on(handle), [p.on(handle) for p in parts]
        assert batch is not lin
        for i in range(lin.n_blocks):
            assert batch.eval_g(i, theta) == (0.7 * rows[0].eval_g(i, theta)
                                              + 1.3 * rows[1].eval_h(i, theta))
            np.testing.assert_array_equal(
                batch.subgrad_h_block(i, theta),
                0.7 * rows[0].subgrad_h_block(i, theta)
                + 1.3 * rows[1].grad_g_block(i, theta))

    def test_deterministic_problem_has_no_sampler(self):
        prob = QuadraticDcProblem.random(PART, np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            prob.sample(np.random.default_rng(1), 1)
