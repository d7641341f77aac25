import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bdcopt.blocks import BlockPartition
from bdcopt.model import (BallProductDomain, BdcProblem, InnerSolverDivergence,
                          SampleHandle)
from bdcopt.problems.sdl import (SdlInstance, SdlProblem,
                                 inner_frank_wolfe_ball_product,
                                 inner_prox_gradient, sdl_synthetic)
from bdcopt.problems.synthetic import QuadraticDcProblem, QuadraticMinusL1Problem
from bdcopt.solvers import (SolverConfig, audit_step_bound, bdca_step,
                            compute_E, gap_L, plan_rho, rho_from, run,
                            smoothness_estimate, substream)
from cases import assert_same, blobs


def identity_quadratic(part, c):
    """g = 0.5 ||theta - c||^2, h = 0."""
    d = part.total_dim
    return QuadraticDcProblem(part, np.eye(d), np.asarray(c, dtype=float))


class TestBdcaStep:
    def test_quadratic_block_reaches_center_in_one_step(self):
        part = BlockPartition([2, 3])
        c = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        prob = identity_quadratic(part, c)
        theta = np.zeros(5)
        theta, inner = bdca_step(prob, theta, 0)
        assert inner == 1
        np.testing.assert_allclose(theta[:2], c[:2], atol=1e-12)
        theta, _ = bdca_step(prob, theta, 1)
        np.testing.assert_allclose(theta, c, atol=1e-12)

    def test_scalar_soft_threshold(self):
        # min 0.5 (x - 1)^2 + |x| has the closed form soft(1, 1) = 0; the
        # forward step at L = 1 is x - (x - 1)
        def forward(x):
            return np.array([x[0] - (x[0] - 1.0)])

        def prox(x, t):
            return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

        x, _ = inner_prox_gradient(forward, prox, np.array([0.7]), 200, 1e-12,
                                   lipschitz=1.0)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_divergent_inner_solver_aborts(self):
        class Broken(QuadraticDcProblem):
            def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
                sl = self.partition.slice_of(i)
                return np.asarray(theta)[sl] + 10.0, 1

        part = BlockPartition([2])
        prob = Broken(part, np.eye(2), np.zeros(2))
        with pytest.raises(InnerSolverDivergence):
            bdca_step(prob, np.ones(2), 0)

    def test_non_finite_surrogate_is_not_descent(self):
        # NaN compares false both ways, so a NaN surrogate must fail the check
        class Broken(QuadraticDcProblem):
            def minimize_block_surrogate(self, i, theta, u, rho, budget, tol):
                return np.full(self.partition.block_dims[i], np.nan), 1

        prob = Broken(BlockPartition([2]), np.eye(2), np.zeros(2))
        with pytest.raises(InnerSolverDivergence,
                           match=r"on block 0 \(\S+ -> nan\)"):
            bdca_step(prob, np.ones(2), 0)

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_below_one_rejected(self, budget):
        prob = identity_quadratic(BlockPartition([2]), [1.0, 1.0])
        with pytest.raises(ValueError,
                           match=r"inner budget must be >= 1, got %d" % budget):
            bdca_step(prob, np.zeros(2), 0, budget=budget)


class TestProxStep:
    def test_scalar_balance(self):
        # min 0.5 x^2 + 0.5 (x - 1)^2 = 0.5 at x = 1/2
        part = BlockPartition([1])
        prob = identity_quadratic(part, [0.0])
        theta, _ = bdca_step(prob, np.array([1.0]), 0, rho=1.0)
        assert theta[0] == pytest.approx(0.5, abs=1e-12)

    def test_huge_rho_freezes_iterate(self):
        part = BlockPartition([3])
        prob = identity_quadratic(part, [1.0, 2.0, 3.0])
        theta0 = np.array([5.0, -5.0, 0.0])
        theta, _ = bdca_step(prob, theta0, 0, rho=1e12)
        assert np.linalg.norm(theta - theta0) <= 1e-9

    def test_rho_must_be_positive(self):
        # rho = 0 is the plain step; only a negative weight is rejected
        part = BlockPartition([1])
        prob = identity_quadratic(part, [0.0])
        with pytest.raises(ValueError, match="rho must be >= 0, got -1.0"):
            bdca_step(prob, np.zeros(1), 0, rho=-1.0)

    def test_step_bound_on_sdl_prox_run(self):
        Y, D, X = sdl_synthetic(6, 8, 10, 3, seed=1)
        inst = SdlInstance(Y=Y, D=D, X=np.zeros_like(X), alpha=0.15, Q=3,
                           variant="l1_lq")
        prob = SdlProblem(inst)
        rho = 0.8
        trace = run(prob, SolverConfig(n_iters=40, rho=rho, seed=2,
                                       inner_budget=30))
        assert audit_step_bound(trace, rho) >= 0.0


class TestStepBoundAudit:
    @staticmethod
    def trace(*step_norms):
        """Records with gap 1 and no noise: each bound is 2 / rho."""
        return SimpleNamespace(records=[
            SimpleNamespace(block_grad_gap=1.0, noise_norm=None, step_norm=s)
            for s in step_norms])

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_rho_must_be_positive_and_finite(self, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite, "
                                             "got %r" % rho):
            audit_step_bound(self.trace(0.5), rho)

    def test_worst_margin(self):
        assert audit_step_bound(self.trace(0.5, 2.5), 1.0) == pytest.approx(-0.5)

    def test_subnormal_rho_with_zero_gap(self):
        # 2 / rho overflows here; a zero gap must still bound the step by 1e-9
        rec = SimpleNamespace(block_grad_gap=0.0, noise_norm=None, step_norm=0.0)
        worst = audit_step_bound(SimpleNamespace(records=[rec]), 2.2e-309)
        assert worst == pytest.approx(1e-9)

    def test_nan_margin_fails(self):
        worst = audit_step_bound(self.trace(0.5, float("nan"), 0.5), 1.0)
        assert not worst >= 0.0


class TestStochasticStep:
    def test_full_batch_handle_matches_deterministic_step(self):
        prob = blobs(24, 3, (2, 5, 3), 4)
        theta = prob.initial_point()
        full = SampleHandle(key=0, indices=range(prob.n_data))
        det, _ = bdca_step(prob, theta, 1, rho=2.0, budget=20, tol=1e-10)
        sto, _ = bdca_step(prob.on(full), theta, 1, rho=2.0, budget=20, tol=1e-10)
        np.testing.assert_allclose(sto, det, atol=1e-12)

    def test_requires_stochastic_oracle(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [0.0, 0.0])
        cfg = SolverConfig(n_iters=2, rho=1.0, batch_size=4, seed=0)
        with pytest.raises(NotImplementedError):
            run(prob, cfg)

    def test_stochastic_replay_on_shared_problem_object(self):
        prob = blobs(24, 3, (2, 5, 3), 4)
        cfg = SolverConfig(n_iters=10, rho=1.5, seed=9, batch_size=8,
                           inner_budget=8)
        t1 = run(prob, cfg)
        t2 = run(prob, cfg)  # same object: no hidden state may leak between runs
        for a, b in zip(t1.records, t2.records):
            assert a.sample_key == b.sample_key
            assert a.f == b.f and a.step_norm == b.step_norm


class TestRunReplay:
    """``run`` is a loop over ``bdca_step``: feeding a trace's recorded blocks
    (and minibatches) back through the step reproduces the run exactly."""

    def test_deterministic_prox_run_replays(self):
        rng = np.random.default_rng(12)
        part = BlockPartition([2, 3, 1])
        prob = QuadraticMinusL1Problem(part, rng.standard_normal((9, 6)),
                                       rng.standard_normal(9), 0.15)
        cfg = SolverConfig(n_iters=30, rho=0.7, seed=4)
        trace = run(prob, cfg)
        theta = prob.initial_point()
        for r in trace.records:
            theta, inner = bdca_step(prob, theta, r.block, cfg.rho,
                                     cfg.inner_budget, cfg.inner_tol)
            assert inner == r.inner_iters
        assert_same(theta, trace.final_theta)

    def test_stochastic_mlp_run_replays(self):
        prob = blobs(24, 3, (2, 5, 3), 4)
        cfg = SolverConfig(n_iters=12, rho=1.5, seed=7, batch_size=6,
                           inner_budget=8)
        trace = run(prob, cfg)
        batches = substream(cfg.seed, "minibatches")
        theta = prob.initial_point()
        for r in trace.records:
            handle = prob.sample(batches, cfg.batch_size)
            assert handle.key == r.sample_key
            theta, _ = bdca_step(prob.on(handle), theta, r.block, cfg.rho,
                                 cfg.inner_budget, cfg.inner_tol)
        assert_same(theta, trace.final_theta)


class TestRun:
    def test_zero_iterations_gives_empty_trace(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [1.0, 1.0])
        trace = run(prob, SolverConfig(n_iters=0, seed=0))
        assert len(trace) == 0
        assert trace.final_f == pytest.approx(prob.eval_f(prob.initial_point()))

    def test_single_iteration_single_record(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [1.0, 1.0])
        trace = run(prob, SolverConfig(n_iters=1, seed=0))
        assert len(trace) == 1

    def test_fixed_seed_replay_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        part = BlockPartition([2, 2, 2])
        prob = QuadraticMinusL1Problem(part, rng.standard_normal((9, 6)),
                                       rng.standard_normal(9), 0.15)
        cfg = SolverConfig(n_iters=25, rho=0.7, seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(prob, cfg).write_csv(p1)
        run(prob, cfg).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_monotone_descent_deterministic(self):
        rng = np.random.default_rng(6)
        part = BlockPartition([3, 3])
        prob = QuadraticMinusL1Problem(part, rng.standard_normal((10, 6)),
                                       rng.standard_normal(10), 0.2)
        cfg = SolverConfig(n_iters=60, seed=1, inner_tol=1e-10)
        trace = run(prob, cfg)
        fs = np.append(trace.column("f"), trace.final_f)
        assert np.all(np.diff(fs) <= 2 * cfg.inner_tol + 1e-12)

    def test_non_finite_f_names_iteration_block_and_value(self):
        class NanAwayFromStart(QuadraticDcProblem):
            # h, which the step never reads, turns NaN once the iterate
            # leaves the zero start
            def eval_h(self, i, theta):
                return np.nan if np.any(theta) else super().eval_h(i, theta)

        part = BlockPartition([1, 1])
        prob = NanAwayFromStart(part, np.eye(2), np.array([1.0, 2.0]))
        cfg = SolverConfig(n_iters=3, seed=0)
        # seed 0 draws block 0, then block 1
        with pytest.raises(ValueError, match=r"non-finite f at k=1, block 1: nan"):
            run(prob, cfg)

    def test_non_finite_final_f_names_the_iteration_and_value(self):
        class NanAwayFromStart(QuadraticDcProblem):
            # f, which the step never reads, turns NaN once the iterate
            # leaves the zero start
            def eval_f(self, theta):
                return np.nan if np.any(theta) else super().eval_f(theta)

        prob = NanAwayFromStart(BlockPartition([1, 1]), np.eye(2),
                                np.array([1.0, 2.0]))
        # the one record reads f at the start; the final f is past the step
        with pytest.raises(ValueError, match=r"^non-finite final f at k=1: nan$"):
            run(prob, SolverConfig(n_iters=1, seed=0))

    def test_trace_csv_columns(self, tmp_path):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [1.0, 1.0])
        trace = run(prob, SolverConfig(n_iters=3, seed=0))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("k,block,f,g_block,h_block,residual_upper,"
                          "step_norm,inner_iters")


class TestInnerProxGradient:
    def test_least_squares_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        L = float(np.linalg.norm(A, 2)) ** 2

        def forward(x):
            return x - A.T @ (A @ x - b) / L

        x, _ = inner_prox_gradient(forward, lambda x, t: x, np.zeros(5), 3000,
                                   1e-12, lipschitz=L)
        want = np.linalg.solve(A.T @ A, A.T @ b)
        np.testing.assert_allclose(x, want, atol=1e-8)

    def test_projection_onto_unit_ball(self):
        z = np.array([3.0, 4.0])

        def forward(x):  # x - grad(x) at L = 1, with grad(x) = x - z
            return x - (x - z)

        def project(x, t):
            n = np.linalg.norm(x)
            return x / max(1.0, n)

        x, _ = inner_prox_gradient(forward, project, np.zeros(2), 500, 1e-12,
                                   lipschitz=1.0)
        np.testing.assert_allclose(x, z / 5.0, atol=1e-10)


    def test_stops_at_the_first_small_mapping_norm(self):
        # f = 0.5 x^2 at L = 2: each forward step halves x, so the mapping
        # norm L |z - x| is 1, 0.5, 0.25, ... (exact in binary); the first
        # at most 0.3 is the third, while |z - x| alone is 0.25 at the second
        _, iters = inner_prox_gradient(lambda x: x - x / 2.0, lambda v, t: v,
                                       np.array([1.0]), 10, 0.3, lipschitz=2.0)
        assert iters == 3

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, float("nan")])
    def test_nonpositive_lipschitz_rejected(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz must be > 0"):
            inner_prox_gradient(lambda x: x, lambda x, t: x, np.ones(2), 5, 1e-12,
                                lipschitz=lipschitz)

    def test_zero_dictionary_code_step(self):
        # D = 0 and rho = 0 leave the code surrogate linear plus l1; the
        # step still runs and keeps the codes at the soft-threshold fixpoint
        Y, _, _ = sdl_synthetic(4, 6, 8, 2, seed=1)
        inst = SdlInstance(Y=Y, D=np.zeros((4, 6)), X=np.zeros((6, 8)),
                           alpha=0.1, Q=2)
        prob = SdlProblem(inst)
        theta, inner = bdca_step(prob, prob.initial_point(), 1, budget=5)
        assert inner >= 1
        np.testing.assert_array_equal(theta, prob.initial_point())


def frank_wolfe_gap(Y, D):
    """The Frank-Wolfe gap of ``0.5 ||Y - D||_F^2`` over the unit column
    balls at ``D``: ``<G, D - S>`` with ``G`` the gradient and ``S`` the
    columnwise minimizer ``-G / ||G||`` of ``<G, .>``."""
    G = D - Y
    norms = np.linalg.norm(G, axis=0)
    S = D.copy()
    nz = norms > 0
    S[:, nz] = -G[:, nz] / norms[nz]
    return float(np.sum(G * (D - S)))


class TestFrankWolfe:
    def test_identity_codes_recover_targets(self):
        # separable projection; the boundary optimum makes the rate sublinear,
        # so assert convergence rather than machine precision
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, 6))
        Y /= np.linalg.norm(Y, axis=0)
        D0 = rng.standard_normal((4, 6))
        D0 /= np.linalg.norm(D0, axis=0) * 1.5
        err0 = np.linalg.norm(D0 - Y)
        D, _ = inner_frank_wolfe_ball_product(Y, np.eye(6), D0, 400)
        assert np.linalg.norm(D - Y) <= min(1e-3, 1e-2 * err0)
        assert frank_wolfe_gap(Y, D) <= frank_wolfe_gap(Y, D0)

    def test_matches_projected_gradient_long_run(self):
        rng = np.random.default_rng(9)
        m, l, n = 4, 5, 7
        Y = 0.15 * rng.standard_normal((m, n))  # interior optimum: linear rate
        X = rng.standard_normal((l, n))
        D0 = np.zeros((m, l))
        D_fw, *_ = inner_frank_wolfe_ball_product(Y, X, D0, 4000)

        # oracle: projected gradient descent on the same objective
        dom = BallProductDomain(m, l)
        L = np.linalg.norm(X @ X.T, 2)
        D = D0.copy()
        for _ in range(4000):
            G = (D @ X - Y) @ X.T
            D = dom.project((D - G / L).ravel()).reshape(m, l)
        f_fw = 0.5 * np.sum((Y - D_fw @ X) ** 2)
        f_pg = 0.5 * np.sum((Y - D @ X) ** 2)
        assert abs(f_fw - f_pg) <= 1e-6 * (1 + abs(f_pg))

    def test_zero_gradient_column_keeps_current(self):
        # code row of zeros makes one dictionary column irrelevant
        Y = np.zeros((2, 3))
        X = np.vstack([np.zeros((1, 3)), np.ones((1, 3))])
        D0 = np.array([[0.3, 0.0], [0.1, -0.5]])
        D, *_ = inner_frank_wolfe_ball_product(Y, X, D0, 50)
        np.testing.assert_allclose(D[:, 0], D0[:, 0])


class TestPlanner:
    def test_constant_growth_closed_form(self):
        G, L0 = 2.5, 3.0
        E = compute_E(lambda u: L0, G)
        assert E == pytest.approx(np.sqrt(2 * L0 * G), rel=1e-8)

    def test_affine_growth_closed_form(self):
        G, a, c = 1.7, 0.8, 0.6
        E = compute_E(lambda u: a + c * u, G)
        want = 2 * G * c + np.sqrt(4 * G * G * c * c + 2 * a * G)
        assert E == pytest.approx(want, rel=1e-8)

    def test_zero_lipschitz_h_gives_twice_smoothness(self):
        plan = plan_rho(lambda u: 4.0, 1.0, 0.0)
        assert plan.rho_min == pytest.approx(2 * plan.L_eff)

    def test_fixed_point_residual(self):
        ell, G = (lambda u: 1.0 + 0.3 * u), 2.0
        plan = plan_rho(ell, G, 0.5)
        assert abs(plan.E ** 2 - 2 * ell(2 * plan.E) * G) <= 1e-8 * (1 + plan.E ** 2)

    def test_plan_holds_only_what_it_computes(self):
        plan = plan_rho(lambda u: 2.0, 1.0, 0.5)
        assert [f.name for f in fields(plan)] == ["E", "L_eff", "rho_min"]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           st.floats(1e-3, 1e3), st.sampled_from(["zero", "sub-ulp", "ordinary"]),
           st.floats(0.0, 1.0, exclude_max=True))
    @example(2.685929571083754, 0.0, 8.66639402116857, "zero", 0.0)
    def test_invariants_hold_without_slack(self, a, c, G, kind, frac):
        # E * E is the product compute_E tested (``E ** 2`` goes through pow,
        # which can round it an ulp differently)
        assume(a > 0 or c > 0)
        ell = lambda u: a + c * u
        E = compute_E(ell, G)
        R = {"zero": 0.0, "sub-ulp": frac * math.ulp(E),
             "ordinary": 10.0 * frac * E}[kind]
        plan = plan_rho(ell, G, R)
        assert plan.E * plan.E <= 2 * plan.L_eff * G
        assert plan.rho_min >= 2 * plan.L_eff

    def test_quadratic_growth_rejected(self):
        with pytest.raises(ValueError, match="subquadratic"):
            compute_E(lambda u: 1.0 + u * u, 1.0)

    def test_huge_slope_exceeds_float_range(self):
        # affine is subquadratic; its E lies beyond where 2 ell(2u) G is finite
        with pytest.raises(ValueError, match="E exceeds the float range"):
            compute_E(lambda u: 1.0 + 1e300 * u, 1.0)
        with pytest.raises(ValueError, match="subquadratic"):
            compute_E(lambda u: 1.0 + u ** 3, 1.0)

    @pytest.mark.parametrize("ell", [lambda u: 0.0, lambda u: 0.0 + 0.0 * u],
                             ids=["constant", "affine"])
    def test_zero_growth_has_no_positive_solution(self, ell):
        with pytest.raises(ValueError, match="no positive solution"):
            compute_E(ell, 1.0)

    def test_tiny_slope_puts_E_below_the_float_range(self):
        # E = 4e-300 solves u^2 = 4e-300 u, but u^2 underflows long before
        with pytest.raises(ValueError, match="E lies below the float range"):
            compute_E(lambda u: 1e-300 * u, 1.0)

    def test_rho_from_requires_positive_E(self):
        with pytest.raises(ValueError):
            rho_from(0.0, 1.0, 1.0)


class TestSmoothnessEstimate:
    def test_quadratic_is_gamma_independent(self):
        rng = np.random.default_rng(10)
        part = BlockPartition([3, 2])
        prob = QuadraticDcProblem.random(part, rng, concave=False)
        theta = rng.standard_normal(5)
        theta_next = theta.copy()
        d = rng.standard_normal(3)
        theta_next[:3] += d
        Q = prob.A[:, :3].T @ prob.A[:, :3]
        want = np.linalg.norm(Q @ d) / np.linalg.norm(d)
        got = smoothness_estimate(prob, theta, theta_next, 0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quartic_scalar_example(self):
        class Quartic(BdcProblem):
            partition = BlockPartition([1])

            def eval_f(self, theta):
                return float(theta[0] ** 4)

            def eval_g(self, i, theta):
                return float(theta[0] ** 4)

            def eval_h(self, i, theta):
                return 0.0

            def grad_g_block(self, i, theta):
                points.append(float(theta[0]))
                return np.array([4.0 * theta[0] ** 3])

            def subgrad_h_block(self, i, theta):
                return np.zeros(1)

        points = []
        prob = Quartic()
        # g' = 4t^3 at the probes t + gamma d, gamma = 0.25, 0.5, 0.75, 1, of
        # t = 1, d = 1: 7.8125, 13.5, 21.4375, 32, so the secants from
        # g'(1) = 4 are 15.25, 19, 23.25 and 28, largest on the last probe
        assert smoothness_estimate(prob, np.array([1.0]), np.array([2.0]), 0) == 28.0
        assert points == [1.0, 1.25, 1.5, 1.75, 2.0]
        # from t = 2 back to 1 the secants from g'(2) = 32 are 42.25, 37,
        # 32.25 and 28, largest on the first probe
        points.clear()
        assert smoothness_estimate(prob, np.array([2.0]), np.array([1.0]), 0) == 42.25
        assert points == [2.0, 1.75, 1.5, 1.25, 1.0]

    def test_zero_update_gives_zero(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [0.0, 0.0])
        theta = np.ones(2)
        assert smoothness_estimate(prob, theta, theta, 0) == 0.0

    def test_non_finite_probe_gradient_names_block_gamma_and_value(self):
        class NanAwayFromStart(QuadraticMinusL1Problem):
            # grad g turns NaN once the iterate leaves the zero start
            def grad_g_block(self, i, theta):
                grad = super().grad_g_block(i, theta)
                return grad * np.nan if np.any(theta) else grad

        rng = np.random.default_rng(13)
        prob = NanAwayFromStart(BlockPartition([2, 1]), rng.standard_normal((4, 3)),
                                rng.standard_normal(4), 0.1)
        message = r"^non-finite smoothness ratio for block 0 at gamma=0.25: nan$"
        with pytest.raises(ValueError, match=message):
            smoothness_estimate(prob, np.zeros(3), np.array([1.0, 0.0, 0.0]), 0)


class TestGapL:
    def test_unconstrained_closed_form(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [0.0, 0.0])
        val = gap_L(prob, np.zeros(2), np.array([3.0, 4.0]), 1.0)
        assert val == pytest.approx(12.5)

    def test_zero_residual_gives_zero(self):
        part = BlockPartition([2])
        prob = identity_quadratic(part, [0.0, 0.0])
        assert gap_L(prob, np.ones(2), np.zeros(2), 2.0) == 0.0

    def test_ball_constraint_shrinks_gap(self):
        class BallProblem(QuadraticDcProblem):
            def block_domain(self, i):
                return BallProductDomain(self.partition.total_dim, 1)

        part = BlockPartition([3])
        prob = BallProblem(part, np.eye(3), np.zeros(3))
        theta = np.array([1.0, 0.0, 0.0])
        z = 3.0 * theta  # outward normal, strong enough to hit the far side
        L = 1.0
        got = gap_L(prob, theta, z, L)
        # analytic 1-D maximization along the diameter: max_t 3t - t^2/2, t in [0, 2]
        want = 3.0 * 2.0 - 0.5 * L * 4.0
        assert got == pytest.approx(want)
        assert got < np.dot(z, z) / (2 * L)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4),
       st.integers(0, 2 ** 16), st.floats(0.05, 1.0), st.floats(0.0, 3.0))
def test_descent_and_step_bound_hold_on_random_problems(dims, seed, mu, rho):
    rng = np.random.default_rng(seed)
    part = BlockPartition(dims)
    d = part.total_dim
    prob = QuadraticMinusL1Problem(part, rng.standard_normal((d + 3, d)),
                                   rng.standard_normal(d + 3), mu)
    cfg = SolverConfig(n_iters=15, rho=rho, seed=seed)
    trace = run(prob, cfg, theta0=rng.standard_normal(d))
    fs = np.append(trace.column("f"), trace.final_f)
    assert np.all(np.diff(fs) <= 1e-9 * (1 + np.abs(fs[:-1])))
    if rho > 0:
        assert audit_step_bound(trace, rho) >= 0.0


def test_substreams_are_independent_and_replayable():
    a1 = substream(7, "blocks").integers(0, 100, size=5)
    a2 = substream(7, "blocks").integers(0, 100, size=5)
    b = substream(7, "minibatches").integers(0, 100, size=5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
