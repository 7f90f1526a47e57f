"""Tensor engine: forward values, backward rules, and the finite-difference check."""

from __future__ import annotations

import time

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x.training import TRAIN_DTYPE, cast_array


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

    def test_softmax_kernel_works_in_place_with_the_reference_bits(self):
        z = np.random.default_rng(1).normal(size=(7, 3, 5)) * 30.0
        z[0, 0, :2] = z[0, 0].max()  # a tie at the max
        shifted = z - z.max(axis=-1, keepdims=True)
        expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        out = ad.softmax_array(z)
        assert out is z and out.tobytes() == expected.tobytes()

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

    def test_subset_gradients_equal_those_of_every_parameter_bitwise(self):
        rng = np.random.default_rng(11)
        f, params = scalar_net(rng)
        root = f()
        every = ad.backward(root, params)
        for names in (["w0"], ["b1"], ["w1", "b0"], ["b1", "w0"]):
            subset = ad.ParameterSet((name, params[name]) for name in names)
            grads = ad.backward(root, subset)
            assert list(grads) == names
            for name in names:
                assert grads[name].tobytes() == every[name].tobytes(), (names, name)

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


def _chain(h, params):
    """The taped per-op chain of a relu MLP: matmul, add_bias and relu, layer by layer."""
    n = len(params) // 2
    for i in range(n):
        h = ad.add_bias(ad.matmul(h, params[2 * i]), params[2 * i + 1])
        if i < n - 1:
            h = ad.relu(h)
    return h


def _chain_value_and_grads(h, params, taped_h, upstream):
    """The chain's value and the ``backward`` gradients of its dot with ``upstream``: h (if taped), p0, p1, ..."""
    taped = ad.ParameterSet()
    hh = taped.add("h", h) if taped_h else ad.constant(h)
    layer_params = [taped.add(f"p{i}", p) for i, p in enumerate(params)]
    out = _chain(hh, layer_params)
    root = ad.reduce_sum(ad.mul(out, ad.constant(upstream)))
    return out.data, ad.backward(root, taped)


def _cast32(a: np.ndarray) -> np.ndarray:
    """``a`` cast to ``TRAIN_DTYPE`` by ``training.cast_array``, as the training step casts its input and gradient."""
    return cast_array(a, np.empty(a.shape, TRAIN_DTYPE))


def _kernel_value_and_grads(h, params, need_input, upstream, dtype=np.float64):
    """``dense_array``, then ``dense_backward`` from ``upstream``, in ``dtype``; in float64, named as the chain's.

    In float32 the input and ``upstream`` are cast by :func:`_cast32` and
    the parameters by ``astype``, as the training step casts them.
    """
    cast = (lambda a: a) if dtype == np.float64 else _cast32
    values = [p.astype(dtype) for p in params]
    kept: list = []
    out = ad.dense_array(cast(h), values, kept)
    grads = [np.empty(p.shape, np.float64 if i % 2 else dtype) for i, p in enumerate(params)]
    g_h = ad.dense_backward(cast(upstream), values[::2], kept, grads, need_input)
    named = {"h": g_h} if need_input else {}
    named.update((f"p{i}", g) for i, g in enumerate(grads))
    return out.astype(np.float64), {name: g.astype(np.float64) for name, g in named.items()}


class TestDense:
    """The layer kernels, ``dense_array`` and ``dense_backward``, against the per-op chain, bit for bit.

    A "node" here is one pass of the kernels, forward and backward, as
    the training step and the gradient baselines run them.
    """

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("taped_h", [True, False], ids=["taped-h", "constant-h"])
    def test_value_and_gradients_match_unfused_ops_bitwise(self, relu, taped_h):
        widths = (5, 4, 3) if relu else (5, 4)  # with a hidden relu layer, or one linear layer
        for seed in range(5):
            h, params = _layers(seed, widths)
            upstream = np.random.default_rng(50 + seed).normal(size=(6, widths[-1]))
            out, grads = _kernel_value_and_grads(h, params, taped_h, upstream)
            ref_out, ref_grads = _chain_value_and_grads(h, params, taped_h, upstream)
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
        out, grads = _kernel_value_and_grads(h, params, True, upstream)
        ref_out, ref_grads = _chain_value_and_grads(h, params, True, upstream)
        assert out.tobytes() == ref_out.tobytes()
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_dead_units_keep_negative_zero(self):
        h, params = _layers(4, (5, 6, 6, 3))
        kept = []
        out = ad.dense_array(h, params, kept)
        pre = ad.add_bias(ad.matmul(ad.constant(h), ad.constant(params[0])), ad.constant(params[1]))
        hidden = ad.relu(pre)
        assert kept[1][0].tobytes() == hidden.data.tobytes()  # the sign of every zero too
        zeros = np.signbit(hidden.data[hidden.data == 0.0])
        assert zeros.any() and not zeros.all()  # relu of a negative is -0.0, of +0.0 is +0.0
        assert pre.data[0, 0] == 0.0 and not kept[0][1][0, 0]  # relu'(0) = 0
        assert not kept[0][1][:, -1].any()  # the dead unit's mask
        assert kept[2][1] is None and out.shape == (6, 3)
        assert [k[0].shape for k in kept] == [(6, 5), (6, 6), (6, 6)]

    def test_plain_array_kernel_is_the_node_value(self):
        # the pass that keeps nothing, as inference runs it, against one that keeps each layer for the backward
        h, params = _layers(1, (5, 4, 4, 3))
        chain = _chain(ad.constant(h), list(map(ad.parameter, params)))
        assert ad.dense_array(h, params).tobytes() == ad.dense_array(h, params, []).tobytes() == chain.data.tobytes()

    def test_constant_input_gets_no_gradient(self):
        h, params = _layers(2, (5, 4, 3))
        kept = []
        ad.dense_array(h, params, kept)
        grads = [np.full(p.shape, np.nan) for p in params]
        assert ad.dense_backward(np.ones((6, 3)), params[::2], kept, grads, need_input=False) is None
        assert all(np.isfinite(g).all() for g in grads)

    def test_vjp_leaves_its_incoming_gradient_and_earlier_results_alone(self):
        h, params = _layers(3, (5, 4, 4, 3))
        kept = []
        ad.dense_array(h, params, kept)
        kept_before = [(a.tobytes(), m.tobytes() if m is not None else None) for a, m in kept]
        g = np.random.default_rng(3).normal(size=(6, 3))
        g_before = g.copy()
        results = []
        for _ in range(2):
            grads = [np.empty(p.shape) for p in params]
            results.append([ad.dense_backward(g, params[::2], kept, grads, True), *grads])
        first, second = results
        assert g.tobytes() == g_before.tobytes()
        assert [(a.tobytes(), m.tobytes() if m is not None else None) for a, m in kept] == kept_before
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]
        assert not any(np.shares_memory(a, b) for a, b in zip(first, second))

    def test_gradients_match_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            params = ad.ParameterSet()
            h = params.add("h", rng.normal(size=(3, 4)))
            w = params.add("w", rng.normal(size=(4, 5)))
            b = params.add("b", rng.normal(size=(5,)))
            w2, b2 = ad.constant(rng.normal(size=(5, 2))), ad.constant(rng.normal(size=(2,)))

            def f():
                y = _chain(h, [w, b, w2, b2])
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
        out32, grads32 = _kernel_value_and_grads(h, params, True, upstream, np.float32)
        out64, grads64 = _chain_value_and_grads(h, params, True, upstream)
        assert np.abs(out32 - out64).max() <= tol * np.abs(out64).max()
        assert grads32.keys() == grads64.keys() and len(grads64) == len(params) + 1
        for name, ref in grads64.items():
            assert np.abs(grads32[name] - ref).max() <= tol * np.abs(ref).max(), name

    def test_float32_node_takes_and_returns_float64_and_keeps_float32(self):
        # float64 values cast in, float32 activations and weight gradients, float64 bias sums
        h, params = _layers(5, (5, 4, 4, 3))
        values = [p.astype(np.float32) for p in params]
        kept = []
        out = ad.dense_array(_cast32(h), values, kept)
        assert out.dtype == np.float32
        assert [a.dtype for a, _ in kept] == [np.float32] * 3
        assert [m is None or m.dtype == bool for _, m in kept] == [True] * 3
        g = _cast32(np.random.default_rng(5).normal(size=out.shape))
        grads = [np.empty(p.shape, np.float64 if i % 2 else np.float32) for i, p in enumerate(params)]
        g_h = ad.dense_backward(g.copy(), values[::2], kept, grads, True)
        assert g_h.dtype == np.float32
        assert [a.dtype for a in grads] == [np.float32, np.float64] * 3
        # the last layer's bias gradient is the incoming gradient's column sums, taken in float64
        assert grads[-1].tobytes() == g.sum(axis=0, dtype=np.float64).tobytes()

    def test_float32_cast_flushes_would_be_subnormals_to_zero(self):
        # normal in float64 but subnormal in float32 (below about 1.18e-38): the cast
        # treats such inputs and incoming gradients as zeros; 2e-38 is normal and kept
        h, params = _layers(7, (5, 4, 4, 3))
        g = np.random.default_rng(7).normal(size=(6, 3))
        small_h, small_g, zero_h, zero_g = h.copy(), g.copy(), h.copy(), g.copy()
        small_h[1, 2], small_h[3, 0], small_g[2, 1] = 1e-40, -1.1e-38, 5e-42
        zero_h[1, 2] = zero_h[3, 0] = zero_g[2, 1] = 0.0
        small_h[5, 1] = zero_h[5, 1] = 2e-38
        small, zero = (_kernel_value_and_grads(x, params, True, up, np.float32)
                       for x, up in ((small_h, small_g), (zero_h, zero_g)))
        assert small[0].tobytes() == zero[0].tobytes()
        assert [a.tobytes() for a in small[1].values()] == [a.tobytes() for a in zero[1].values()]
        cast = _cast32(small_h)
        assert cast[1, 2] == cast[3, 0] == 0.0 and cast[5, 1] == np.float32(2e-38)
        assert small_h[1, 2] == 1e-40 and small_g[2, 1] == 5e-42  # the caller's arrays are left alone

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_constant_weights_get_no_gradient_and_change_nothing_else(self, dtype):
        h, params = _layers(6, (5, 4, 4, 3))
        g = np.random.default_rng(6).normal(size=(6, 3))
        _, taped = _kernel_value_and_grads(h, params, True, g, dtype)
        cast = (lambda a: a) if dtype == np.float64 else _cast32
        values = [p.astype(dtype) for p in params]
        kept = []
        ad.dense_array(cast(h), values, kept)
        g_h = ad.dense_backward(cast(g), values[::2], kept, [None] * len(params), True)
        assert g_h.astype(np.float64).tobytes() == taped["h"].tobytes()
        # frozen weights and a constant input on the tape: nothing to differentiate, no vjp
        assert _chain(ad.constant(h), list(map(ad.constant, params)))._vjp is None


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
