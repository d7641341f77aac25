import warnings

import numpy as np
import pytest

from bdcopt.relu import (MlpParams, block_grad_g, ce_bdc, forward_split,
                         forward_standard, load_params_csv, log_sum_exp,
                         mse_bdc, random_params, save_params_csv)


def tiny_net():
    return MlpParams([(np.array([[1.0]]), np.array([0.0])),
                      (np.array([[-1.0]]), np.array([0.0]))])


class TestForwardSplit:
    def test_hand_computed_two_layer(self):
        st = forward_split(tiny_net(), np.array([1.0]))
        np.testing.assert_array_equal(st.z_plus[0], [[1.0]])
        np.testing.assert_array_equal(st.z_minus[0], [[0.0]])
        np.testing.assert_array_equal(st.a_out, [[0.0]])
        np.testing.assert_array_equal(st.b_out, [[1.0]])
        np.testing.assert_array_equal(st.output, [[-1.0]])
        np.testing.assert_array_equal(forward_standard(tiny_net(), [1.0]), [[-1.0]])

    def test_nonnegative_weights_put_everything_in_a(self):
        rng = np.random.default_rng(0)
        layers = []
        dims = (3, 5, 4, 2)
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            layers.append((np.abs(rng.standard_normal((d_out, d_in))),
                           np.abs(rng.standard_normal(d_out))))
        p = MlpParams(layers)
        x = np.abs(rng.standard_normal((6, 3)))
        st = forward_split(p, x)
        np.testing.assert_array_equal(st.b_out, np.zeros_like(st.b_out))
        np.testing.assert_allclose(st.a_out, forward_standard(p, x), atol=1e-12)

    def test_matches_standard_forward_on_random_nets(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            depth = int(rng.integers(2, 5))
            dims = [int(rng.integers(1, 17)) for _ in range(depth + 1)]
            p = random_params(dims, rng)
            x = rng.standard_normal((5, dims[0]))
            st = forward_split(p, x)
            np.testing.assert_allclose(st.output, forward_standard(p, x), atol=1e-10)
            a = x
            for l, (W, b) in enumerate(p.layers[:-1]):
                a = np.maximum(a @ W.T + b, 0.0)
                np.testing.assert_allclose(st.z_plus[l] - st.z_minus[l], a, atol=1e-10)

    def test_split_parts_nonnegative(self):
        rng = np.random.default_rng(2)
        p = random_params((4, 9, 7, 3), rng)
        st = forward_split(p, rng.standard_normal((20, 4)))
        for z in st.z_plus + st.z_minus + [st.a_out, st.b_out]:
            assert np.all(z >= 0)
        for zp, zm in zip(st.z_plus, st.z_minus):
            assert np.all(zp >= zm - 1e-12)

    def test_positive_homogeneity_with_zero_biases(self):
        rng = np.random.default_rng(3)
        p = random_params((3, 6, 1), rng)
        p = MlpParams([(W, np.zeros_like(b)) for W, b in p.layers])
        x = rng.standard_normal((4, 3))
        st1 = forward_split(p, x)
        st2 = forward_split(p, 2.5 * x)
        np.testing.assert_allclose(st2.z_plus[0], 2.5 * st1.z_plus[0], atol=1e-12)
        np.testing.assert_allclose(st2.z_minus[0], 2.5 * st1.z_minus[0], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            forward_split(tiny_net(), np.ones(3))


@pytest.mark.parametrize("dims, message", [
    ((2, 0, 3), "layer 1 has width 0"),
    ((2, -3, 3), "layer 1 has width -3"),
])
def test_random_params_rejects_nonpositive_width(dims, message):
    # checked before any draw: no divide-by-zero warning, no numpy error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            random_params(dims, np.random.default_rng(0))


class TestLossSplits:
    def test_mse_zero_case(self):
        p = MlpParams([(np.zeros((2, 1)), np.zeros(2)), (np.zeros((1, 2)), np.zeros(1))])
        g, h = mse_bdc(p, np.array([[0.0]]), np.array([0.0]))
        assert g == 0.0 and h == 0.0

    def test_mse_hand_example(self):
        # A=2, B=1, y=1: g = 2 (4 + 4) = 16, h = (2 + 1 + 1)^2 = 16, loss 0
        g_expect = 2 * (2.0 ** 2 + (1.0 + 1.0) ** 2)
        h_expect = (2.0 + 1.0 + 1.0) ** 2
        assert g_expect == 16.0 and h_expect == 16.0
        assert g_expect - h_expect == (1.0 - 1.0) ** 2  # F = A - B = 1

    def test_mse_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_params((3, 7, 1), rng)
            x = rng.standard_normal((9, 3))
            y = np.abs(rng.standard_normal(9))
            g, h = mse_bdc(p, x, y)
            want = float(np.sum((forward_standard(p, x)[:, 0] - y) ** 2))
            assert g - h == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_mse_rejects_negative_labels(self):
        p = random_params((2, 4, 1), np.random.default_rng(5))
        with pytest.raises(ValueError, match="shift"):
            mse_bdc(p, np.zeros((1, 2)), np.array([-1.0]))

    def test_ce_uniform_logits(self):
        # both logits zero: loss = log 2 regardless of the class
        p = MlpParams([(np.zeros((2, 1)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))])
        g, h = ce_bdc(p, np.array([[1.0]]), np.array([0]))
        assert g - h == pytest.approx(np.log(2.0))

    def test_ce_sharp_logits(self):
        p = MlpParams([(np.array([[1.0]]), np.array([0.0])),
                       (np.array([[10.0], [0.0]]), np.array([0.0, 0.0]))])
        g, h = ce_bdc(p, np.array([[1.0]]), np.array([0]))
        assert g - h == pytest.approx(np.log(1 + np.exp(-10.0)), rel=1e-12)

    def test_ce_identity_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params((3, 6, 4), rng)
            x = rng.standard_normal((9, 3))
            y = rng.integers(0, 4, size=9)
            g, h = ce_bdc(p, x, y)
            F = forward_standard(p, x)
            want = float(np.sum(log_sum_exp(F) - F[np.arange(9), y]))
            assert g - h == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_ce_rejects_bad_class(self):
        p = random_params((2, 4, 3), np.random.default_rng(7))
        with pytest.raises(ValueError):
            ce_bdc(p, np.zeros((1, 2)), np.array([3]))


class TestBlockGradients:
    def test_zero_input_zero_bias_gives_zero_first_layer_gradient(self):
        rng = np.random.default_rng(9)
        p = random_params((3, 5, 1), rng)
        p = MlpParams([(W, np.zeros_like(b)) for W, b in p.layers])
        dW, db = block_grad_g(p, np.zeros((2, 3)), np.array([1.0, 2.0]), "mse", 0)
        np.testing.assert_array_equal(dW, np.zeros_like(dW))
        np.testing.assert_array_equal(db, np.zeros_like(db))

    def test_blockwise_midpoint_convexity_of_outputs(self):
        rng = np.random.default_rng(11)
        p = random_params((3, 6, 5, 2), rng)
        x = rng.standard_normal((3, 3))
        theta = p.to_vector()
        part = p.partition()
        for _ in range(60):
            block = int(rng.integers(p.n_layers))
            sl = part.slice_of(block)
            t1, t2 = theta.copy(), theta.copy()
            t1[sl] += rng.standard_normal(sl.stop - sl.start)
            t2[sl] += rng.standard_normal(sl.stop - sl.start)
            mid = theta.copy()
            mid[sl] = 0.5 * (t1[sl] + t2[sl])
            s1 = forward_split(p.with_vector(t1), x)
            s2 = forward_split(p.with_vector(t2), x)
            sm = forward_split(p.with_vector(mid), x)
            for get in (lambda s: s.a_out, lambda s: s.b_out):
                violation = get(sm) - 0.5 * (get(s1) + get(s2))
                assert np.max(violation) <= 1e-9


def test_checkpoint_round_trip(tmp_path):
    p = random_params((3, 5, 2), np.random.default_rng(12))
    path = tmp_path / "net.csv"
    save_params_csv(p, path)
    q = load_params_csv(path)
    for (W1, b1), (W2, b2) in zip(p.layers, q.layers):
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(b1, b2)
