from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bdcopt import relu
from bdcopt.problems.cp import (CpInstance, CpProblem, _hadamard_gram,
                                _khatri_rao, _khatri_rao_others,
                                _min_norm_solve, _unfold, cp_reconstruct)
from bdcopt.problems.mlp import MlpTask, MlpTaskProblem, gaussian_blobs
from bdcopt.problems.sdl import (SdlInstance, SdlProblem, _sq_spectral_norm,
                                 gd_baseline_sdl, lq_norm, lq_subgrad,
                                 sdl_synthetic)
from bdcopt.solvers import SolverConfig, bdca_step, run
from cases import (GRID, assert_near, assert_same, blobs, build_instance,
                   codes_and_q, sdl)

EPS = np.finfo(float).eps


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


_DENSE = np.random.default_rng(21).standard_normal((16, 12))


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
        assert_same(prob.subgrad_h_block(1, theta).reshape(l, n), S)
        assert_same(S, np.column_stack([lq_subgrad(X[:, j], Q) for j in range(n)]))
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

    @pytest.mark.parametrize("name", ["Y", "D", "X"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_rejected(self, name, value):
        data = self.data()
        data[name][1, 2] = value
        data[name][3, 0] = value
        with pytest.raises(ValueError, match=r"%s must be finite, got %r at index "
                                             r"\(1, 2\)" % (name, value)):
            SdlInstance(**data)

    def test_data_is_read_only_once_checked(self):
        inst = SdlInstance(**self.data())
        with pytest.raises(ValueError, match="read-only"):
            inst.Y[0, 0] = np.nan
        assert not (inst.D.flags.writeable or inst.X.flags.writeable)

    def test_failed_build_leaves_the_data_writable(self):
        # the checks run before the arrays are frozen
        data = self.data()
        data["X"][0, 0] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            SdlInstance(**data)
        assert all(array.flags.writeable for array in data.values())


class TestSdlProblem:
    def test_plain_l1_variant_has_zero_concave_side(self):
        prob = sdl(variant="l1")
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(prob.partition.total_dim)
        for i in range(2):
            assert prob.eval_h(i, theta) == 0.0
            np.testing.assert_array_equal(prob.subgrad_h_block(i, theta),
                                          np.zeros(prob.partition.block_dims[i]))

    def test_zero_alpha_gives_alternating_least_squares(self):
        prob = sdl(variant="l1", alpha=0.0)
        theta = prob.initial_point()
        theta, _ = bdca_step(prob, theta, 1, budget=4000, tol=1e-12)
        D, X = prob.unpack(theta)
        X_ls = np.linalg.lstsq(D, prob.instance.Y, rcond=None)[0]
        fit = 0.5 * np.sum((prob.instance.Y - D @ X) ** 2)
        fit_ls = 0.5 * np.sum((prob.instance.Y - D @ X_ls) ** 2)
        assert fit == pytest.approx(fit_ls, abs=1e-7)

    def test_lq_subgradient_support_size(self):
        prob = sdl()
        theta = prob.initial_point()
        u = prob.subgrad_h_block(1, theta).reshape(8, 12)
        np.testing.assert_array_equal((u != 0).sum(axis=0), np.full(12, 3))

    def test_code_step_produces_exact_zeros(self):
        # the soft-threshold proximal step zeroes small coordinates exactly,
        # so sparsity can be measured without thresholding
        prob = sdl(alpha=0.6)
        theta = prob.initial_point()
        theta, _ = bdca_step(prob, theta, 1, budget=50)
        _, X = prob.unpack(theta)
        assert np.mean(X == 0.0) > 0.2

    def test_dictionary_update_stays_feasible(self):
        prob = sdl()
        theta = prob.initial_point()
        for _ in range(5):
            theta, _ = bdca_step(prob, theta, 1, budget=10)
            theta, _ = bdca_step(prob, theta, 0, budget=10)
            D, _ = prob.unpack(theta)
            assert np.max(np.linalg.norm(D, axis=0)) <= 1 + 1e-10


class TestSqSpectralNorm:
    """The GD step's ``||A||_2^2`` from the smaller Gram matrix against the
    SVD norm it replaced."""

    @staticmethod
    def check(A):
        got = _sq_spectral_norm(A)
        want = np.linalg.norm(A, 2) ** 2
        assert got >= 0
        assert abs(got - want) <= 1e-13 * want, (got, want, A.shape)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["dense", "sparse", "rank_one"]))
    @example(3, 9, 0, "sparse")   # rows < cols: A A^T
    @example(9, 3, 0, "sparse")   # rows > cols: A^T A
    @example(5, 5, 1, "rank_one")
    @example(1, 7, 2, "dense")
    def test_matches_svd_norm(self, rows, cols, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "rank_one":
            A = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
        else:
            A = rng.standard_normal((rows, cols))
            if kind == "sparse":
                A[rng.random(A.shape) < 0.8] = 0.0
        self.check(A)
        self.check(A.T)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=10),
                      elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])))
    def test_matches_svd_norm_on_tied_entries(self, A):
        self.check(A)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_svd_norm_on_protocol_codes(self, seed):
        _, D, X = sdl_synthetic(seed=seed)   # D 10 x 32, X 32 x 100, 5 per column
        for A in (D, X, X.T, 0.1 * X):
            self.check(A)

    def test_takes_the_gram_matrix_on_the_smaller_side(self):
        _, D, X = sdl_synthetic(seed=3)
        for A in (D, X, D.T, X.T):
            small = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
            assert small.shape[0] == min(A.shape)
            assert _sq_spectral_norm(A) == np.linalg.eigvalsh(small)[-1]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (8, 3), (10, 32), (32, 100)])
    def test_zero_matrix_is_exactly_zero(self, shape):
        assert _sq_spectral_norm(np.zeros(shape)) == 0.0
        assert _sq_spectral_norm(-np.zeros(shape)) == 0.0


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
        eta = 1.0 / (_sq_spectral_norm(D) + _sq_spectral_norm(X))
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
            # D is 6 x 10 and X is 10 x 12: both Gram matrices are A A^T
            eta = 1.0 / (np.linalg.eigvalsh(D @ D.T)[-1]
                         + np.linalg.eigvalsh(X @ X.T)[-1])
            gd = prob.grad_g_block(0, theta) - prob.subgrad_h_block(0, theta)
            gx = prob.grad_g_block(1, theta) - prob.subgrad_h_block(1, theta)
            theta = theta.copy()
            theta[sl_d] -= eta * gd
            theta[sl_x] -= eta * gx
            theta[sl_d] = prob.block_domain(0).project(theta[sl_d])
            want.append(prob.eval_f(theta))
        assert_same(gd_baseline_sdl(inst, 25), np.array(want))

    def test_non_finite_objective_names_the_step(self):
        # finite data whose squared residual overflows
        Y, D, X = sdl_synthetic(4, 6, 9, 2, seed=1)
        inst = SdlInstance(Y=1e160 * Y, D=D, X=np.zeros_like(X), Q=2)
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="non-finite objective at GD step 0: inf"):
            gd_baseline_sdl(inst, 5)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.sampled_from([1, 5]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example(2, 1, True, 0)
    @example(3, 5, False, 1)
    @example(4, 5, True, 2)
    def test_reconstruction_is_sum_of_rank_one_outer_products(
            self, n_modes, rank, zero_column, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((int(rng.integers(1, 7)), rank))
                   for _ in range(n_modes)]
        if zero_column:
            factors[int(rng.integers(n_modes))][:, int(rng.integers(rank))] = 0.0
        want, size = 0.0, 0.0  # the outer-product sum and its scale
        for cols in zip(*(F.T for F in factors)):
            want = want + reduce(np.multiply.outer, cols)
            size = size + reduce(np.multiply.outer, [np.abs(c) for c in cols])
        got = cp_reconstruct(factors)
        assert got.shape == tuple(F.shape[0] for F in factors)
        assert np.all(np.abs(got - want) <= 2 * n_modes * rank * EPS * size)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 5), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_block_solve_is_stationary(self, n_modes, rank, zero_column, seed):
        # rho = 0, u = 0: the block's gradient after the solve is rounding
        rng = np.random.default_rng(seed)
        shape = tuple(int(m) for m in rng.integers(rank + 1, 8, size=n_modes))
        prob = cp_problem(rng.standard_normal(shape), rank, seed)
        theta = prob.initial_point()
        i = int(rng.integers(n_modes))
        factors = prob.unpack(theta)
        if zero_column:  # K^T K singular
            j = (i + 1) % n_modes
            factors[j][:, int(rng.integers(rank))] = 0.0
            theta = prob.pack(factors)
        K = _khatri_rao_others(factors, i)
        u = np.zeros(prob.partition.block_dims[i])
        x, _ = prob.minimize_block_surrogate(i, theta, u, 0.0, 1, 1e-8)
        new = theta.copy()
        new[prob.partition.slice_of(i)] = x
        scale = np.linalg.norm(prob.tensor) * np.linalg.norm(K)
        assert np.linalg.norm(prob.grad_g_block(i, new)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    def test_rank_deficient_solve_is_minimum_norm_least_squares(self, n_modes):
        # a zero column in another factor zeroes a column of K; the block
        # solve returns lstsq(K, T_(i)^T)'s minimum-norm solution
        rng = np.random.default_rng(20 + n_modes)
        shape = (5, 6, 4, 3)[:n_modes]
        prob = cp_problem(rng.standard_normal(shape), 4, seed=n_modes)
        for i in range(n_modes):
            factors = prob.unpack(prob.initial_point())
            factors[(i + 1) % n_modes][:, 2] = 0.0
            theta = prob.pack(factors)
            K = _khatri_rao_others(factors, i)
            want = np.linalg.lstsq(K, _unfold(prob.tensor, i).T, rcond=None)[0].T
            x, _ = prob.minimize_block_surrogate(i, theta, np.zeros(want.size),
                                                 0.0, 1, 1e-8)
            np.testing.assert_allclose(x.reshape(want.shape), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_hadamard_gram_is_k_transpose_k(self, n_modes, rank, grid, seed):
        # the normal-equation matrix from the r x r Grams of the factors,
        # against K^T K: each sums the same products, over the N <= 64 rows
        # of K or over each factor's m_j <= 4 rows and then n - 2 <= 2
        # products, so each lies within (N + sum m_j + n) 2^-53 < 9e-15 of
        # the exact entry on the scale of the largest diagonal entry, which
        # bounds |K|^T |K| (Cauchy-Schwarz).  Measured worst: 9.8e-16.
        factors = build_instance(np.random.default_rng(seed), n_modes, rank,
                                 grid).factors
        for i in range(n_modes):
            K = _khatri_rao_others(factors, i)
            assert_near(_hadamard_gram(factors, i), K.T @ K, 2e-14, "block %d" % i)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.booleans(),
           st.sampled_from([0.0, 0.5, 2.0]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @example(3, 3, False, 0.0, True, 0)  # an all-zero M
    @example(4, 4, True, 0.0, False, 1)
    def test_block_solve_is_least_squares_on_k(
            self, n_modes, rank, grid, rho, zero_others, seed):
        # The eigh solve of the normal equations against lstsq on the
        # stacked system [K; sqrt(rho) I] F^T = [T_(i)^T; sqrt(rho)
        # theta_i^T + u^T / sqrt(rho)], whose normal equations they are:
        # build_instance zeroes a factor column (a singular M at rho = 0),
        # grid draws tie values, and zero_others zeroes every other factor.
        # The normal equations square the condition number of A, so a
        # singular value of A below 1e-3 of the largest but above lstsq's
        # cutoff reaches the solve as rounding times up to 1e6, or falls
        # under the eigh cutoff of eps r w_max once below about 3e-8 of the
        # largest, and the two solves part by design; such draws (45 of
        # 136,425 systems measured) are skipped.  Otherwise the difference
        # is rounding times at most 1e6, about 2e-10, on the scale of the
        # solution plus ||B|| / ||A||, the residual's share in the
        # least-squares perturbation bound; 1e-8 leaves a factor of 45 (the
        # measured worst was 1.1e-10).
        rng = np.random.default_rng(seed)
        prob = CpProblem(build_instance(rng, n_modes, rank, grid))
        i = int(rng.integers(n_modes))
        factors = prob.unpack(prob.initial_point())
        if zero_others:
            factors = [F if j == i else np.zeros_like(F) for j, F in enumerate(factors)]
        theta = prob.pack(factors)
        u = rng.choice(GRID, size=factors[i].size) if rho else np.zeros(factors[i].size)
        A = _khatri_rao_others(factors, i)
        B = _unfold(prob.tensor, i).T
        if rho:
            A = np.vstack([A, np.sqrt(rho) * np.eye(rank)])
            B = np.vstack([B, np.sqrt(rho) * factors[i].T
                           + u.reshape(factors[i].shape).T / np.sqrt(rho)])
        s = np.linalg.svd(A, compute_uv=False)
        assume(not np.any((s > EPS * max(A.shape) * s[0]) & (s < 1e-3 * s[0])))
        want = np.linalg.lstsq(A, B, rcond=None)[0].T
        got = prob.minimize_block_surrogate(i, theta, u, rho, 1, 0)[0]
        size = np.linalg.norm(A)
        scale = np.max(np.abs(want)) + (np.linalg.norm(B) / size if size else 0.0)
        assert_near(got.reshape(want.shape), want, 1e-8, zeros=False, scale=scale)

    def test_min_norm_solve_drops_eigenvalues_at_or_below_the_lstsq_cutoff(self):
        # r = 5 and w_max = 1, so the cutoff eps r w_max is 5 eps: 1e-14
        # stays; 5 eps itself and 1e-16 go, as lstsq drops those singular
        # values, and so does a negative eigenvalue, which in a positive
        # semidefinite M is rounding even where it passes the cutoff in size
        w = np.array([1.0, 1e-14, 5 * EPS, 1e-16, -2e-15])
        rhs = np.random.default_rng(3).standard_normal((4, 5))
        want = rhs * np.array([1.0, 1e14, 0.0, 0.0, 0.0])
        assert_near(_min_norm_solve(np.diag(w), rhs), want, 1e-15)
        psd = np.diag(np.maximum(w, 0.0))
        assert_near(np.linalg.lstsq(psd, rhs.T, rcond=None)[0].T, want, 1e-15,
                    zeros=False)

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

    def test_negative_regression_labels_raise(self):
        # the task keeps its labels as given; the problem rejects them
        rng = np.random.default_rng(16)
        x = rng.standard_normal((15, 1))
        y = rng.standard_normal(15) - 5.0
        net = relu.random_params((1, 4, 1), rng)
        task = MlpTask(inputs=x, labels=y, net=net, loss="mse")
        assert task.labels is y
        with pytest.raises(ValueError, match="labels must be >= 0; shift labels "
                                             "and outputs by a common constant"):
            MlpTaskProblem(task)

    def test_failed_build_leaves_the_arrays_writable(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((15, 1))
        y = rng.standard_normal(15) - 5.0
        net = relu.random_params((1, 4, 1), rng)
        with pytest.raises(ValueError, match="labels must be >= 0"):
            MlpTaskProblem(MlpTask(x, y, net, "mse"))
        assert x.flags.writeable and y.flags.writeable
        x[0, 0] = 0.0
        prob = MlpTaskProblem(MlpTask(x, y - y.min(), net, "mse"))
        assert not (x.flags.writeable or prob.labels.flags.writeable)

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
            y = y - (1.0 if case == "negative mse label" else np.nan)
            return MlpTask(inputs=x, labels=y, net=mse_net, loss="mse")
        elif case == "unknown loss":
            return MlpTask(inputs=x, labels=y, net=ce_net, loss="hinge")
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
        ("unknown loss", "loss must be 'mse' or 'ce'"),
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
        assert len(prob.sample(rng, 1).indices) == 1
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            prob.sample(rng, 0)

    def test_solver_run_descends(self):
        prob = blobs(40, 4, (2, 8, 3), 17)
        trace = run(prob, SolverConfig(n_iters=30, rho=1.0, seed=5,
                                       inner_budget=10))
        assert trace.final_f < trace.records[0].f
