"""Tensor engine: forward values, backward rules, and the finite-difference check."""

from __future__ import annotations

import time

import numpy as np
import pytest

from l2x import autodiff as ad


def scalar_net(rng, sizes=(4, 3, 2)):
    """Small MLP-shaped scalar function with every op class on the tape."""
    params = ad.ParameterSet()
    w0 = params.add("w0", rng.normal(size=(sizes[0], sizes[1])))
    b0 = params.add("b0", rng.normal(size=(sizes[1],)))
    w1 = params.add("w1", rng.normal(size=(sizes[1], sizes[2])))
    b1 = params.add("b1", rng.normal(size=(sizes[2],)))
    x = rng.normal(size=(5, sizes[0]))

    def f():
        h = ad.relu(ad.add_bias(ad.matmul(ad.constant(x), w0), b0))
        z = ad.add_bias(ad.matmul(h, w1), b1)
        p = ad.softmax(z, temperature=0.7)
        p = ad.maximum(p, ad.constant(np.full(p.shape, 1e-12)))
        return ad.neg(ad.reduce_mean(ad.reduce_sum(ad.log(p), axis=1)))

    return f, params


class TestForwardValues:
    def test_softmax_known_row(self):
        out = ad.softmax(ad.constant([2.0, 0.0]))
        np.testing.assert_allclose(
            out.data, [0.8807970779778823, 0.11920292202211755], rtol=0, atol=1e-15
        )

    def test_softmax_temperature_sharpens(self):
        hot = ad.softmax(ad.constant([1.0, 0.0]), temperature=0.1).data
        mild = ad.softmax(ad.constant([1.0, 0.0]), temperature=1.0).data
        assert hot[0] > mild[0] > 0.5

    def test_softmax_rows_sum_to_one_under_extreme_inputs(self):
        z = np.array([[1000.0, 0.0, -1000.0], [-1e8, -1e8, -1e8]])
        out = ad.softmax(ad.constant(z)).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_sigmoid_known_values_and_extremes(self):
        x = ad.constant([0.0, 1.0, -1000.0, 1000.0])
        out = ad.sigmoid(x).data
        assert out[0] == 0.5
        np.testing.assert_allclose(out[1], 0.7310585786300049, atol=1e-16)
        assert np.all(np.isfinite(out))
        assert out[2] >= 0.0 and out[3] <= 1.0

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        out = ad.log(ad.exp(ad.constant(x)))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_array_equal(ad.matmul(ad.constant(a), ad.constant(b)).data, a @ b)

    def test_expand_repeats_along_new_axis(self):
        x = ad.constant([[1.0, 2.0]])
        out = ad.expand(x, axis=1, reps=3)
        assert out.shape == (1, 3, 2)
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0]] * 3])

    def test_float64_everywhere(self):
        out = ad.softmax(ad.constant(np.arange(3, dtype=np.float32)))
        assert out.data.dtype == np.float64


class TestShapeAndDomainErrors:
    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_matmul_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="rank-2"):
            ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))))

    def test_no_implicit_broadcasting(self):
        with pytest.raises(ValueError, match="shapes disagree"):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))
        with pytest.raises(ValueError, match="shapes disagree"):
            ad.mul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 1))))

    def test_add_bias_shape_contract(self):
        with pytest.raises(ValueError, match="add_bias"):
            ad.add_bias(ad.constant(np.ones((2, 3))), ad.constant(np.ones(2)))

    def test_log_rejects_non_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ad.log(ad.constant([1.0, 0.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            ad.log(ad.constant([-1.0]))

    def test_softmax_rejects_bad_temperature(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                ad.softmax(ad.constant([1.0, 2.0]), temperature=t)

    def test_reduce_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            ad.reduce_sum(ad.constant(np.ones((2, 3))), axis=2)

    def test_backward_rejects_non_scalar_root(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))


class TestBackwardRules:
    def test_gradient_accumulates_when_tensor_reused(self):
        x = ad.parameter([3.0])
        y = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        ad.backward(y)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-15)

    def test_unused_parameter_gets_zeros(self):
        params = ad.ParameterSet()
        a = params.add("a", [1.0])
        params.add("b", np.ones((2, 2)))
        grads = ad.backward(ad.reduce_sum(ad.mul(a, a)), params)
        np.testing.assert_array_equal(grads["b"], np.zeros((2, 2)))
        np.testing.assert_allclose(grads["a"], [2.0])

    def test_relu_gradient_is_zero_at_zero(self):
        x = ad.parameter([-1.0, 0.0, 2.0])
        ad.backward(ad.reduce_sum(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_maximum_tie_routes_to_first_argument(self):
        a = ad.parameter([1.0, 5.0])
        b = ad.parameter([1.0, 2.0])
        ad.backward(ad.reduce_sum(ad.maximum(a, b)))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 0.0])

    def test_reduce_max_tie_routes_to_lowest_index(self):
        x = ad.parameter([[2.0, 7.0, 7.0, 1.0]])
        ad.backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_abs_gradient_sign_and_zero(self):
        x = ad.parameter([-2.0, 0.0, 3.0])
        ad.backward(ad.reduce_sum(ad.absolute(x)))
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_each_node_backward_rule_runs_once(self):
        x = ad.parameter([1.0, 2.0])
        h = ad.mul(x, x)
        calls = {"n": 0}
        inner = h._vjp

        def counting(g):
            calls["n"] += 1
            return inner(g)

        h._vjp = counting
        # diamond: h feeds two consumers that rejoin at the root
        root = ad.reduce_sum(ad.add(ad.mul(h, ad.constant([2.0, 2.0])), h))
        ad.backward(root)
        assert calls["n"] == 1
        np.testing.assert_allclose(x.grad, 2.0 * x.data * 3.0)

    def test_backward_replaces_stale_grads(self):
        params = ad.ParameterSet()
        x = params.add("x", [2.0])
        ad.backward(ad.reduce_sum(ad.mul(x, x)), params)
        first = x.grad.copy()
        x.grad = None
        ad.backward(ad.reduce_sum(ad.mul(x, x)), params)
        np.testing.assert_array_equal(x.grad, first)

    def test_gradients_come_from_this_sweep_alone(self):
        params = ad.ParameterSet()
        a = params.add("a", [1.0, 2.0])
        params.add("b", [3.0, 4.0])
        ad.backward(ad.reduce_sum(ad.mul(a, params["b"])), params)
        # b.grad still holds a from the first graph; the second does not use b
        grads = ad.backward(ad.reduce_sum(ad.mul(a, ad.constant([1.0, 1.0]))), params)
        np.testing.assert_array_equal(grads["b"], [0.0, 0.0])
        np.testing.assert_array_equal(grads["a"], [1.0, 1.0])

    def test_backward_visits_only_nodes_leading_to_the_parameters(self):
        params = ad.ParameterSet()
        w = params.add("w", [1.0, 2.0])
        other = ad.parameter([3.0, 4.0])
        side = ad.mul(other, other)  # requires a gradient, but leads only to `other`
        calls = []
        inner = side._vjp
        side._vjp = lambda g: calls.append(g) or inner(g)
        root = ad.reduce_sum(ad.mul(side, w))
        grads = ad.backward(root, params)
        assert calls == []
        assert other.grad is None
        np.testing.assert_array_equal(grads["w"], side.data)
        ad.backward(root)  # without parameters every node is visited
        assert len(calls) == 1
        np.testing.assert_array_equal(other.grad, 2.0 * other.data * w.data)

    def test_backward_is_bit_deterministic(self):
        rng = np.random.default_rng(7)
        f, params = scalar_net(rng)
        g1 = ad.backward(f(), params)
        for _, t in params.items():
            t.grad = None
        g2 = ad.backward(f(), params)
        for name in params.names():
            assert np.array_equal(g1[name], g2[name])


class TestDense:
    """The fused layer against the three ops it replaces, bit for bit."""

    @staticmethod
    def _inputs(seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(6, 5))
        h[0] = 0.0  # row 0's pre-activations are the bias itself
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=(4,))
        b[1] = 0.0  # so the pre-activation at (0, 1) is an exact zero
        return h, w, b

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("taped_h", [True, False], ids=["taped-h", "constant-h"])
    def test_value_and_gradients_match_unfused_ops_bitwise(self, relu, taped_h):
        for seed in range(5):
            h, w, b = self._inputs(seed)
            upstream = np.random.default_rng(50 + seed).normal(size=(6, 4))
            results = []
            for fused in (True, False):
                params = ad.ParameterSet()
                hh = params.add("h", h) if taped_h else ad.constant(h)
                ww, bb = params.add("w", w), params.add("b", b)
                if fused:
                    out = ad.dense(hh, ww, bb, relu)
                else:
                    z = ad.add_bias(ad.matmul(hh, ww), bb)
                    out = ad.relu(z) if relu else z
                root = ad.reduce_sum(ad.mul(out, ad.constant(upstream)))
                results.append((out.data, ad.backward(root, params)))
            (out, grads), (ref_out, ref_grads) = results
            assert (ref_out == 0.0).any() and (np.signbit(ref_out) if relu else ref_out < 0).any()
            assert out.tobytes() == ref_out.tobytes()  # the sign of every zero too
            assert grads.keys() == ref_grads.keys() == ({"h", "w", "b"} if taped_h else {"w", "b"})
            for name in grads:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_plain_array_kernel_is_the_node_value(self):
        h, w, b = self._inputs(1)
        node = ad.dense(ad.constant(h), ad.parameter(w), ad.parameter(b), True)
        assert ad.dense_array(h, w, b, True).tobytes() == node.data.tobytes()

    def test_constant_input_gets_no_gradient(self):
        h, w, b = self._inputs(2)
        node = ad.dense(ad.constant(h), ad.parameter(w), ad.parameter(b), True)
        g_h, g_w, g_b = node._vjp(np.ones(node.shape))
        assert g_h is None and g_w.shape == w.shape and g_b.shape == b.shape

    def test_shape_contract(self):
        h, w, b = self._inputs(3)
        for args in ((h, w.T, b), (h, w, b[:3]), (h[0], w, b), (h, w, b[None, :])):
            with pytest.raises(ValueError, match="dense"):
                ad.dense(*map(ad.constant, args), True)

    def test_gradients_match_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            params = ad.ParameterSet()
            h = params.add("h", rng.normal(size=(3, 4)))
            w = params.add("w", rng.normal(size=(4, 5)))
            b = params.add("b", rng.normal(size=(5,)))
            w2, b2 = ad.constant(rng.normal(size=(5, 2))), ad.constant(rng.normal(size=(2,)))

            def f():
                y = ad.dense(ad.dense(h, w, b, True), w2, b2, False)
                return ad.reduce_sum(ad.mul(y, y))

            report = ad.finite_diff_check(f, params)
            assert report.n_checked > 0
            assert report.max_rel_error < 1e-5, (seed, report)


class TestFiniteDifferenceAgreement:
    """Central-difference oracle over many random graphs and every op."""

    def test_mlp_graphs_many_seeds(self):
        worst = 0.0
        for seed in range(30):
            f, params = scalar_net(np.random.default_rng(seed))
            report = ad.finite_diff_check(f, params, step=1e-6)
            worst = max(worst, report.max_rel_error)
            assert report.n_checked > 0
        assert worst < 1e-4

    @pytest.mark.parametrize(
        "name,build",
        [
            ("sigmoid", lambda x: ad.reduce_sum(ad.sigmoid(x))),
            ("exp", lambda x: ad.reduce_sum(ad.exp(x))),
            ("neg", lambda x: ad.reduce_sum(ad.neg(ad.mul(x, x)))),
            ("softmax_t", lambda x: ad.reduce_max(ad.softmax(x, temperature=0.3))),
            ("mean", lambda x: ad.reduce_mean(ad.mul(x, x))),
            ("mean_axis", lambda x: ad.reduce_sum(ad.reduce_mean(ad.mul(x, x), axis=0))),
            ("expand", lambda x: ad.reduce_sum(ad.mul(e := ad.expand(x, 0, 3), e))),
        ],
    )
    def test_single_op_graphs(self, name, build):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            params = ad.ParameterSet()
            x = params.add("x", rng.normal(size=(4,)) if name != "mean_axis" else rng.normal(size=(3, 4)))
            report = ad.finite_diff_check(lambda: build(x), params)
            assert report.max_rel_error < 1e-5, (name, seed, report)

    def test_log_of_positive_input(self):
        rng = np.random.default_rng(3)
        params = ad.ParameterSet()
        x = params.add("x", rng.uniform(0.5, 2.0, size=(6,)))
        report = ad.finite_diff_check(lambda: ad.reduce_sum(ad.log(x)), params)
        assert report.max_rel_error < 1e-6

    def test_kink_coordinate_excluded_not_failed(self):
        params = ad.ParameterSet()
        x = params.add("x", [0.0, 1.0])  # coordinate 0 sits exactly on the relu kink
        report = ad.finite_diff_check(lambda: ad.reduce_sum(ad.relu(x)), params)
        assert ("x", 0) in report.excluded
        assert report.n_checked == 1
        assert report.max_rel_error < 1e-8

    def test_rejects_non_positive_step(self):
        params = ad.ParameterSet()
        x = params.add("x", [1.0])
        with pytest.raises(ValueError, match="step"):
            ad.finite_diff_check(lambda: ad.reduce_sum(x), params, step=0.0)


class TestScaling:
    def test_backward_cost_scales_about_linearly_with_batch(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(64, 64))

        def run(batch: int) -> float:
            x = rng.normal(size=(batch, 64))
            params = ad.ParameterSet()
            wt = params.add("w", w)
            t0 = time.perf_counter()
            for _ in range(8):
                y = ad.reduce_mean(ad.relu(ad.matmul(ad.constant(x), wt)))
                ad.backward(y, params)
            return time.perf_counter() - t0

        run(256)  # warm up
        t1 = min(run(256) for _ in range(3))
        t2 = min(run(512) for _ in range(3))
        assert t2 < 4.0 * t1 + 0.05  # roughly linear, generous bound for CI noise
