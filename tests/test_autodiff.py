"""Tensor engine: forward values, backward rules, and the finite-difference check."""

from __future__ import annotations

import inspect
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
            ad.backward(ad.mul(x, x), ad.ParameterSet(x=x))


class TestBackwardRules:
    def test_gradient_accumulates_when_tensor_reused(self):
        x = ad.parameter([3.0])
        y = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_allclose(ad.backward(y, ad.ParameterSet(x=x))["x"], [7.0], atol=1e-15)

    def test_unused_parameter_gets_zeros(self):
        params = ad.ParameterSet()
        a = params.add("a", [1.0])
        params.add("b", np.ones((2, 2)))
        grads = ad.backward(ad.reduce_sum(ad.mul(a, a)), params)
        np.testing.assert_array_equal(grads["b"], np.zeros((2, 2)))
        np.testing.assert_allclose(grads["a"], [2.0])

    def test_relu_gradient_is_zero_at_zero(self):
        x = ad.parameter([-1.0, 0.0, 2.0])
        grads = ad.backward(ad.reduce_sum(ad.relu(x)), ad.ParameterSet(x=x))
        np.testing.assert_array_equal(grads["x"], [0.0, 0.0, 1.0])

    def test_maximum_tie_routes_to_first_argument(self):
        a = ad.parameter([1.0, 5.0])
        b = ad.parameter([1.0, 2.0])
        grads = ad.backward(ad.reduce_sum(ad.maximum(a, b)), ad.ParameterSet(a=a, b=b))
        np.testing.assert_array_equal(grads["a"], [1.0, 1.0])
        np.testing.assert_array_equal(grads["b"], [0.0, 0.0])

    def test_reduce_max_tie_routes_to_lowest_index(self):
        x = ad.parameter([[2.0, 7.0, 7.0, 1.0]])
        grads = ad.backward(ad.reduce_sum(ad.reduce_max(x, axis=1)), ad.ParameterSet(x=x))
        np.testing.assert_array_equal(grads["x"], [[0.0, 1.0, 0.0, 0.0]])

    def test_abs_gradient_sign_and_zero(self):
        x = ad.parameter([-2.0, 0.0, 3.0])
        grads = ad.backward(ad.reduce_sum(ad.absolute(x)), ad.ParameterSet(x=x))
        np.testing.assert_array_equal(grads["x"], [-1.0, 0.0, 1.0])

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
        grads = ad.backward(root, ad.ParameterSet(x=x))
        assert calls["n"] == 1
        np.testing.assert_allclose(grads["x"], 2.0 * x.data * 3.0)

    def test_two_calls_return_independent_arrays(self):
        params = ad.ParameterSet()
        x = params.add("x", [2.0])
        first = ad.backward(ad.reduce_sum(ad.mul(x, x)), params)
        second = ad.backward(ad.reduce_sum(ad.mul(x, x)), params)
        assert first["x"] is not second["x"]
        np.testing.assert_array_equal(second["x"], [4.0])
        second["x"][0] = 0.0
        np.testing.assert_array_equal(first["x"], [4.0])

    def test_gradients_come_from_this_sweep_alone(self):
        params = ad.ParameterSet()
        a = params.add("a", [1.0, 2.0])
        params.add("b", [3.0, 4.0])
        ad.backward(ad.reduce_sum(ad.mul(a, params["b"])), params)
        # the first graph reached b; the second does not use it
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
        assert list(grads) == ["w"]
        np.testing.assert_array_equal(grads["w"], side.data)
        both = ad.backward(root, ad.ParameterSet(w=w, other=other))
        assert len(calls) == 1
        np.testing.assert_array_equal(both["other"], 2.0 * other.data * w.data)
        np.testing.assert_array_equal(both["w"], grads["w"])

    def test_backward_is_bit_deterministic(self):
        rng = np.random.default_rng(7)
        f, params = scalar_net(rng)
        g1 = ad.backward(f(), params)
        g2 = ad.backward(f(), params)
        for name in params.names():
            assert np.array_equal(g1[name], g2[name])


class TestParameterSet:
    def test_add_rejects_a_duplicate_name(self):
        params = ad.ParameterSet()
        params.add("w", [1.0])
        with pytest.raises(ValueError, match="duplicate parameter name 'w'"):
            params.add("w", [2.0])
        np.testing.assert_array_equal(params["w"].data, [1.0])

    def test_insertion_order_is_kept(self):
        params = ad.ParameterSet()
        for name in ("w1", "b0", "w0", "b1"):
            params.add(name, [0.0])
        assert params.names() == list(params) == ["w1", "b0", "w0", "b1"]
        assert len(params) == 4 and "b0" in params and "w2" not in params

    def test_merge_prefixes_names_and_shares_tensors(self):
        inner = ad.ParameterSet()
        w = inner.add("w", [1.0])
        inner.add("b", [2.0])
        outer = ad.ParameterSet()
        outer.add("v", [3.0])
        outer.merge("net", inner)
        assert outer.names() == ["v", "net.w", "net.b"]
        assert outer["net.w"] is w
        w.data[0] = 5.0
        np.testing.assert_array_equal(outer["net.w"].data, [5.0])

    def test_merge_rejects_a_duplicate_name(self):
        inner = ad.ParameterSet()
        inner.add("w", [1.0])
        outer = ad.ParameterSet()
        outer.add("net.w", [0.0])
        with pytest.raises(ValueError, match="duplicate parameter name 'net.w'"):
            outer.merge("net", inner)


def _layers(seed, widths=(5, 4), batch=6):
    """An input and a layer list (w0, b0, w1, b1, ...) with exact-zero and negative pre-activations."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(batch, widths[0]))
    h[0] = 0.0  # row 0's first pre-activations are the bias itself
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        b = rng.normal(size=(fan_out,))
        b[0] = 0.0  # so the pre-activation at (0, 0) of the first layer is an exact zero
        params += [rng.normal(size=(fan_in, fan_out)), b]
    if len(widths) > 2:
        params[1][-1] = -1e3  # a unit dead on every row
    return h, params


def _unfused(h, params):
    """The per-op chain the fused node replaces: matmul, add_bias and relu, layer by layer."""
    n = len(params) // 2
    for i in range(n):
        h = ad.add_bias(ad.matmul(h, params[2 * i]), params[2 * i + 1])
        if i < n - 1:
            h = ad.relu(h)
    return h


def _value_and_grads(h, params, fused, taped_h, upstream, dtype=np.float64):
    taped = ad.ParameterSet()
    hh = taped.add("h", h) if taped_h else ad.constant(h)
    layer_params = [taped.add(f"p{i}", p) for i, p in enumerate(params)]
    out = ad.dense(hh, layer_params, dtype) if fused else _unfused(hh, layer_params)
    root = ad.reduce_sum(ad.mul(out, ad.constant(upstream)))
    return out.data, ad.backward(root, taped)


class TestDense:
    """The fused network node against the per-layer ops it replaces, bit for bit."""

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("taped_h", [True, False], ids=["taped-h", "constant-h"])
    def test_value_and_gradients_match_unfused_ops_bitwise(self, relu, taped_h):
        widths = (5, 4, 3) if relu else (5, 4)  # with a hidden relu layer, or one linear layer
        for seed in range(5):
            h, params = _layers(seed, widths)
            upstream = np.random.default_rng(50 + seed).normal(size=(6, widths[-1]))
            (out, grads), (ref_out, ref_grads) = (
                _value_and_grads(h, params, fused, taped_h, upstream) for fused in (True, False)
            )
            assert out.tobytes() == ref_out.tobytes()
            assert grads.keys() == ref_grads.keys()
            assert len(grads) == len(params) + taped_h
            for name in grads:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("widths", [(3, 1, 2), (10, 7, 7, 3), (4, 8, 8, 8, 1), (10, 64, 64, 2)])
    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_widths_and_batches_match_unfused_ops_bitwise(self, widths, batch):
        h, params = _layers(batch, widths, batch)
        upstream = np.random.default_rng(batch).normal(size=(batch, widths[-1]))
        (out, grads), (ref_out, ref_grads) = (
            _value_and_grads(h, params, fused, True, upstream) for fused in (True, False)
        )
        assert out.tobytes() == ref_out.tobytes()
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_dead_units_keep_negative_zero(self):
        h, params = _layers(4, (5, 6, 6, 3))
        kept = []
        out = ad.dense_array(h, params, kept)
        hidden = ad.relu(ad.add_bias(ad.matmul(ad.constant(h), ad.constant(params[0])), ad.constant(params[1])))
        assert kept[1][0].tobytes() == hidden.data.tobytes()  # the sign of every zero too
        zeros = np.signbit(hidden.data[hidden.data == 0.0])
        assert zeros.any() and not zeros.all()  # relu of a negative is -0.0, of +0.0 is +0.0
        assert not kept[0][1][:, -1].any()  # the dead unit's mask
        assert kept[2][1] is None and out.shape == (6, 3)
        assert [k[0].shape for k in kept] == [(6, 5), (6, 6), (6, 6)]

    def test_plain_array_kernel_is_the_node_value(self):
        h, params = _layers(1, (5, 4, 4, 3))
        node = ad.dense(ad.constant(h), list(map(ad.parameter, params)))
        assert ad.dense_array(h, params).tobytes() == node.data.tobytes()

    def test_constant_input_gets_no_gradient(self):
        h, params = _layers(2, (5, 4, 3))
        node = ad.dense(ad.constant(h), list(map(ad.parameter, params)))
        g_h, *g_params = node._vjp(np.ones(node.shape))
        assert g_h is None and [g.shape for g in g_params] == [p.shape for p in params]

    def test_vjp_leaves_its_incoming_gradient_and_earlier_results_alone(self):
        h, params = _layers(3, (5, 4, 4, 3))
        node = ad.dense(ad.parameter(h), list(map(ad.parameter, params)))
        g = np.random.default_rng(3).normal(size=node.shape)
        g_before = g.copy()
        first = node._vjp(g)
        first_bytes = [a.tobytes() for a in first]
        second = node._vjp(g)
        assert g.tobytes() == g_before.tobytes()
        assert [a.tobytes() for a in first] == first_bytes == [a.tobytes() for a in second]
        assert not any(np.shares_memory(a, b) for a, b in zip(first, second))

    def test_shape_contract(self):
        h, (w, b) = _layers(3)
        for args in ((h, [w.T, b]), (h, [w, b[:3]]), (h[0], [w, b]), (h, [w, b[None, :]]), (h, [w]), (h, [])):
            with pytest.raises(ValueError, match="dense"):
                ad.dense(ad.constant(args[0]), list(map(ad.constant, args[1])))

    def test_gradients_match_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            params = ad.ParameterSet()
            h = params.add("h", rng.normal(size=(3, 4)))
            w = params.add("w", rng.normal(size=(4, 5)))
            b = params.add("b", rng.normal(size=(5,)))
            w2, b2 = ad.constant(rng.normal(size=(5, 2))), ad.constant(rng.normal(size=(2,)))

            def f():
                y = ad.dense(h, [w, b, w2, b2])
                return ad.reduce_sum(ad.mul(y, y))

            report = ad.finite_diff_check(f, params)
            assert report.n_checked > 0
            assert report.max_rel_error < 1e-5, (seed, report)

    @pytest.mark.parametrize("widths", [(5, 4), (5, 4, 3), (3, 1, 2), (10, 7, 7, 3), (4, 8, 8, 8, 1), (10, 64, 64, 2)])
    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_float32_node_matches_float64_node(self, widths, batch):
        # float32 rounding over dot products of at most 64 terms: within 64 float32
        # epsilons of each array's largest float64 magnitude (observed: under 5)
        tol = 64 * np.finfo(np.float32).eps
        h, params = _layers(batch, widths, batch)
        upstream = np.random.default_rng(batch).normal(size=(batch, widths[-1]))
        (out32, grads32), (out64, grads64) = (
            _value_and_grads(h, params, True, True, upstream, dtype) for dtype in (np.float32, np.float64)
        )
        assert np.abs(out32 - out64).max() <= tol * np.abs(out64).max()
        assert grads32.keys() == grads64.keys() and len(grads64) == len(params) + 1
        for name, ref in grads64.items():
            assert np.abs(grads32[name] - ref).max() <= tol * np.abs(ref).max(), name

    def test_float32_node_takes_and_returns_float64_and_keeps_float32(self):
        h, params = _layers(5, (5, 4, 4, 3))
        node = ad.dense(ad.parameter(h), list(map(ad.parameter, params)), np.float32)
        kept = inspect.getclosurevars(node._vjp).nonlocals["kept"]
        assert [a.dtype for a, _ in kept] == [np.float32] * 3
        assert [m is None or m.dtype == bool for _, m in kept] == [True] * 3
        assert node.data.dtype == np.float64
        g = np.random.default_rng(5).normal(size=node.shape)
        g_before = g.copy()
        grads = node._vjp(g)
        assert g.tobytes() == g_before.tobytes()
        assert [a.dtype for a in grads] == [np.float64] * (len(params) + 1)
        assert [a.shape for a in grads] == [h.shape] + [p.shape for p in params]

    def test_float32_cast_flushes_would_be_subnormals_to_zero(self):
        # normal in float64 but subnormal in float32 (below about 1.18e-38): the node
        # treats such inputs and incoming gradients as zeros; 2e-38 is normal and kept
        h, params = _layers(7, (5, 4, 4, 3))
        g = np.random.default_rng(7).normal(size=(6, 3))
        small_h, small_g, zero_h, zero_g = h.copy(), g.copy(), h.copy(), g.copy()
        small_h[1, 2], small_h[3, 0], small_g[2, 1] = 1e-40, -1.1e-38, 5e-42
        zero_h[1, 2] = zero_h[3, 0] = zero_g[2, 1] = 0.0
        small_h[5, 1] = zero_h[5, 1] = 2e-38
        small, zero = (ad.dense(ad.parameter(x), list(map(ad.parameter, params)), np.float32)
                       for x in (small_h, zero_h))
        assert small.data.tobytes() == zero.data.tobytes()
        assert [a.tobytes() for a in small._vjp(small_g)] == [a.tobytes() for a in zero._vjp(zero_g)]
        kept = inspect.getclosurevars(small._vjp).nonlocals["kept"]
        assert kept[0][0][1, 2] == kept[0][0][3, 0] == 0.0 and kept[0][0][5, 1] == np.float32(2e-38)
        assert small_h[1, 2] == 1e-40 and small_g[2, 1] == 5e-42  # the caller's arrays are left alone

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_constant_weights_get_no_gradient_and_change_nothing_else(self, dtype):
        h, params = _layers(6, (5, 4, 4, 3))
        g = np.random.default_rng(6).normal(size=(6, 3))
        taped = ad.dense(ad.parameter(h), list(map(ad.parameter, params)), dtype)
        frozen = ad.dense(ad.parameter(h), list(map(ad.constant, params)), dtype)
        assert frozen.data.tobytes() == taped.data.tobytes()
        g_h, *g_params = frozen._vjp(g)
        assert g_params == [None] * len(params)
        assert g_h.tobytes() == taped._vjp(g)[0].tobytes()
        # frozen weights and a constant input: nothing to differentiate, no vjp
        assert ad.dense(ad.constant(h), list(map(ad.constant, params)), dtype)._vjp is None


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
