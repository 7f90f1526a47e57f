"""Gumbel noise, Concrete vectors, soft subset masks, and hard top-k selection."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import sampling as sp
from l2x.errors import NumericError


class TestGumbelNoise:
    def test_formula_at_half(self):
        # u = 0.5 -> G = -log(log 2)
        g = sp.gumbel_from_uniform(np.array([0.5]))
        np.testing.assert_allclose(g, [-math.log(math.log(2.0))], atol=1e-15)
        np.testing.assert_allclose(g, [0.36651292058166435], atol=1e-15)

    def test_clamp_keeps_values_finite(self):
        g = sp.gumbel_from_uniform(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g[0], -math.log(-math.log(1e-12)), atol=1e-12)
        assert g[1] > 25.0  # -log(-log(1 - 1e-12)) is large but finite

    def test_in_place_kernel_is_the_formula_bit_for_bit_and_leaves_u_alone(self):
        u = np.random.default_rng(31).uniform(size=(1000, 5, 10))
        u.flat[:3] = [0.0, 1.0, 1e-300]  # all three clamped
        before = u.copy()
        g = sp.gumbel_from_uniform(u)
        assert g.tobytes() == (-np.log(-np.log(np.clip(before, 1e-12, 1.0 - 1e-12)))).tobytes()
        assert u.tobytes() == before.tobytes() and not np.shares_memory(g, u)

    def test_out_may_be_u(self):
        u = np.random.default_rng(2).uniform(size=(4, 3))
        u[0, :2] = 0.0, 1.0 - 1e-15  # both clamps
        fresh = sp.gumbel_from_uniform(u)
        assert sp.gumbel_from_uniform(u, out=u) is u and u.tobytes() == fresh.tobytes()

    def test_same_seed_reproduces_exactly(self):
        a = sp.sample_gumbel(123, 4, 6)
        b = sp.sample_gumbel(123, 4, 6)
        np.testing.assert_array_equal(a.values, b.values)
        # an integer seed draws what a generator seeded with it draws
        assert a.values.tobytes() == sp.sample_gumbel(np.random.default_rng(123), 4, 6).values.tobytes()

    def test_empirical_mean_is_euler_mascheroni(self):
        noise = sp.sample_gumbel(np.random.default_rng(2024), 1000, 1000)
        assert abs(noise.values.mean() - 0.5772156649) < 0.01

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError, match="positive"):
            sp.sample_gumbel(0, 0, 3)


class TestConcreteVector:
    def test_uniform_under_equal_weights_and_zero_noise(self):
        lw = ad.constant(np.zeros(4))
        c = sp.concrete_vector(lw, np.zeros(4), temperature=0.5)
        np.testing.assert_allclose(c.data, 0.25, atol=1e-15)

    def test_known_value_d3(self):
        c = sp.concrete_vector(ad.constant([1.0, 0.0, 0.0]), np.zeros(3), temperature=1.0)
        expected = np.exp([1.0, 0.0, 0.0])
        expected /= expected.sum()
        np.testing.assert_allclose(c.data, expected, atol=1e-15)
        np.testing.assert_allclose(
            c.data, [0.5761168847658291, 0.21194155761708544, 0.21194155761708544], atol=1e-15
        )

    def test_low_temperature_concentrates_on_argmax(self):
        rng = np.random.default_rng(8)
        lw = rng.normal(size=6)
        g = sp.sample_gumbel(rng, 1, 6).values[0]
        c = sp.concrete_vector(ad.constant(lw), g, temperature=1e-4)
        assert c.data.max() > 0.999
        assert int(c.data.argmax()) == int((lw + g).argmax())

    def test_simplex_membership(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lw = rng.normal(size=8) * 5
            g = sp.sample_gumbel(rng, 1, 8).values[0]
            c = sp.concrete_vector(ad.constant(lw), g, temperature=0.1).data
            assert abs(c.sum() - 1.0) < 1e-9
            assert np.all(c > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        lw = rng.normal(size=5)
        g = sp.sample_gumbel(rng, 1, 5).values[0]
        a = sp.concrete_vector(ad.constant(lw), g, temperature=0.1).data
        b = sp.concrete_vector(ad.constant(lw + 7.25), g, temperature=0.1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_argmax_invariance_across_temperatures(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lw = rng.normal(size=7)
            g = sp.sample_gumbel(rng, 1, 7).values[0]
            target = int((lw + g).argmax())
            for t in (1e-3, 0.1, 1.0, 10.0):
                c = sp.concrete_vector(ad.constant(lw), g, temperature=t)
                assert int(c.data.argmax()) == target

    def test_rejects_bad_temperature_and_shape(self):
        lw = ad.constant(np.zeros(3))
        with pytest.raises(ValueError, match="temperature"):
            sp.concrete_vector(lw, np.zeros(3), temperature=0.0)
        with pytest.raises(ValueError, match="shape"):
            sp.concrete_vector(lw, np.zeros(4), temperature=0.1)


class TestRelaxedSubsetMask:
    def test_k1_equals_single_concrete(self):
        rng = np.random.default_rng(12)
        lw = rng.normal(size=6)
        noise = sp.sample_gumbel(rng, 1, 6)
        mask = sp.relaxed_subset_mask(ad.constant(lw), noise, temperature=0.1)
        single = sp.concrete_vector(ad.constant(lw), noise.values[0], temperature=0.1)
        np.testing.assert_array_equal(mask.V.data, single.data)

    def test_entries_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lw = rng.normal(size=9) * 3
            noise = sp.sample_gumbel(rng, 4, 9)
            # at tau=0.1 saturated entries may round to the boundary in float64
            v = sp.relaxed_subset_mask(ad.constant(lw), noise, temperature=0.1).V.data
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
            # at moderate temperature the mask is strictly interior
            v1 = sp.relaxed_subset_mask(ad.constant(lw), noise, temperature=1.0).V.data
            assert np.all(v1 > 0.0) and np.all(v1 < 1.0)

    def test_at_most_k_entries_dominate_at_low_temperature(self):
        # k=2, d=5, tau=0.1: entries above 0.5 never exceed k, over 1000 seeds
        lw = ad.constant(np.array([1.0, 0.5, 0.0, -0.5, -1.0]))
        for seed in range(1000):
            noise = sp.sample_gumbel(seed, 2, 5)
            v = sp.relaxed_subset_mask(lw, noise, temperature=0.1).V.data
            assert int((v > 0.5).sum()) <= 2

    def test_k_equals_d_low_temperature_all_near_one(self):
        d = 4
        # rig each row's noise so row j's argmax lands on feature j
        noise_vals = np.full((d, d), -5.0)
        np.fill_diagonal(noise_vals, 5.0)
        mask = sp.relaxed_subset_mask(
            ad.constant(np.zeros(d)), sp.GumbelNoise(noise_vals), temperature=1e-4
        )
        assert np.all(mask.V.data > 0.999)

    @pytest.mark.parametrize("d,k", [(0, 1), (5, 0), (5, 6)])
    def test_k_outside_1_to_d_rejected(self, d, k):
        with pytest.raises(ValueError, match="k must"):
            sp.relaxed_subset_mask(ad.constant(np.zeros(d)), sp.GumbelNoise(np.zeros((k, d))), temperature=0.1)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            sp.relaxed_subset_mask(
                ad.constant(np.zeros(4)), sp.sample_gumbel(0, 2, 3), temperature=0.1
            )

    def test_monotone_argmax_frequency(self):
        # P(feature i attains the row max) is nondecreasing in its log-weight
        lw = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        rng = np.random.default_rng(99)
        counts = np.zeros(5)
        draws = 20000
        g = sp.sample_gumbel(rng, draws, 5).values
        winners = (lw + g).argmax(axis=1)
        for w in winners:
            counts[w] += 1
        freq = counts / draws
        assert np.all(np.diff(freq) > 0)

    def test_gradient_matches_finite_differences_at_fixed_noise(self):
        # tau=0.1 saturates many draws below finite-difference resolution;
        # aggregate over seeds so plenty of coordinates remain certifiable
        total_checked, worst = 0, 0.0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            noise = sp.sample_gumbel(rng, 3, 6)
            params = ad.ParameterSet()
            lw = params.add("lw", rng.normal(size=6))

            def f():
                return ad.reduce_sum(sp.relaxed_subset_mask(lw, noise, temperature=0.1).V)

            report = ad.finite_diff_check(f, params, step=1e-6)
            total_checked += report.n_checked
            worst = max(worst, report.max_rel_error)
            grads = ad.backward(f(), params)
            assert np.any(grads["lw"] != 0.0)
        assert total_checked >= 50
        assert worst < 1e-4


class TestBatchedMask:
    def test_matches_per_example_masks_bitwise(self):
        rng = np.random.default_rng(31)
        b, k, d = 7, 3, 5
        scores = rng.normal(size=(b, d))
        noise = sp.gumbel_from_uniform(rng.uniform(size=(b, k, d)))
        batched, _ = sp.batched_relaxed_mask(scores, noise, temperature=0.1)
        for i in range(b):
            single = sp.relaxed_subset_mask(
                ad.constant(scores[i]), sp.GumbelNoise(noise[i]), temperature=0.1
            )
            assert batched[i].tobytes() == single.V.data.tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        noise = sp.gumbel_from_uniform(rng.uniform(size=(4, 2, 5)))
        params = ad.ParameterSet()
        scores = params.add("s", rng.normal(size=(4, 5)))

        def f():  # the kernel's value and vjp as one node
            v, vjp = sp.batched_relaxed_mask(scores.data, noise, temperature=0.1)
            return ad.reduce_sum(ad.node(v, "relaxed_mask", (scores,), lambda g: (vjp(g),)))

        report = ad.finite_diff_check(f, params, step=1e-6)
        assert report.max_rel_error < 1e-4

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="noise"):
            sp.batched_relaxed_mask(np.zeros((2, 4)), np.zeros((3, 1, 4)), 0.1)
        with pytest.raises(ValueError, match="temperature"):
            sp.batched_relaxed_mask(np.zeros((2, 4)), np.zeros((2, 1, 4)), 0.0)

    @staticmethod
    def _value_and_grad(scores, noise, temperature, how):
        """The mask and the gradient of a weighted sum of it: from the kernel, the op chain or ``relaxed_mask_graph``."""
        upstream = np.random.default_rng(scores.size).normal(size=scores.shape)
        if how == "kernel":
            v, vjp = sp.batched_relaxed_mask(scores, noise, temperature)
            return v, vjp(upstream)
        params = ad.ParameterSet()
        lw = params.add("s", scores)
        if how == "graph":
            v = sp.relaxed_mask_graph(lw, noise, temperature)
        else:
            axis = scores.ndim - 1
            tiled = ad.expand(lw, axis=axis, reps=noise.shape[axis])
            concrete = ad.softmax(ad.add(tiled, ad.constant(noise)), temperature=temperature)
            v = ad.reduce_max(concrete, axis=axis)
        grads = ad.backward(ad.reduce_sum(ad.mul(v, ad.constant(upstream))), params)
        return v.data, grads["s"]

    # (score rows, k, d); None rows is a single (d,) score vector
    @pytest.mark.parametrize("shape", [(1, 1, 5), (1, 5, 10), (7, 3, 5), (64, 4, 10), (3, 10, 10), (None, 4, 6)],
                             ids=str)
    @pytest.mark.parametrize("temperature", [0.1, 0.7])
    def test_value_and_gradient_match_the_op_chain_bitwise(self, shape, temperature):
        rows, k, d = shape
        rng = np.random.default_rng([k, d])
        scores = rng.normal(size=(d,) if rows is None else (rows, d))
        noise = sp.gumbel_from_uniform(rng.uniform(size=(*scores.shape[:-1], k, d)))
        ref_v, ref_g = self._value_and_grad(scores, noise, temperature, "chain")
        for how in ("kernel", "graph"):
            v, g = self._value_and_grad(scores, noise, temperature, how)
            assert v.tobytes() == ref_v.tobytes(), how
            assert g.tobytes() == ref_g.tobytes(), how

    def test_exact_ties_between_rows_go_to_the_lowest_index(self):
        # at temperature 1 and zero scores, a row of 0s and -1000s softmaxes exactly
        # to 0.5 and 0.0 entries, so rows tie exactly on every feature both or neither hold
        noise = np.full((2, 3, 4), -1000.0)
        noise[:, 0, [0, 1]] = noise[:, 1, [0, 2]] = noise[:, 2, [1, 3]] = 0.0
        scores = np.zeros((2, 4))
        (v, g), (ref_v, ref_g) = (self._value_and_grad(scores, noise, 1.0, how) for how in ("kernel", "chain"))
        concrete = np.where(noise == 0.0, 0.5, 0.0)
        np.testing.assert_array_equal(v, concrete.max(axis=1))
        assert v.tobytes() == ref_v.tobytes() and g.tobytes() == ref_g.tobytes()
        # the gradient depends on which tied row wins: with the rows reordered it changes
        _, g_swapped = self._value_and_grad(scores, noise[:, ::-1].copy(), 1.0, "kernel")
        assert g.tobytes() != g_swapped.tobytes()
        _, ref_swapped = self._value_and_grad(scores, noise[:, ::-1].copy(), 1.0, "chain")
        assert g_swapped.tobytes() == ref_swapped.tobytes()

    def test_vjp_leaves_its_incoming_gradient_and_earlier_results_alone(self):
        rng = np.random.default_rng(33)
        v, vjp = sp.batched_relaxed_mask(rng.normal(size=(5, 6)), sp.gumbel_from_uniform(rng.uniform(size=(5, 3, 6))), 0.1)
        g = rng.normal(size=v.shape)
        g_before = g.copy()
        first, second = vjp(g), vjp(g)
        assert g.tobytes() == g_before.tobytes() and first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)


TINY_ENTRY_POINTS = {
    "batched_relaxed_mask": lambda s, g: sp.batched_relaxed_mask(s, g, 1e-310),
    "relaxed_mask_graph": lambda s, g: sp.relaxed_mask_graph(ad.parameter(s), g, 1e-310),
    "relaxed_subset_mask": lambda s, g: sp.relaxed_subset_mask(ad.parameter(s[0]), sp.GumbelNoise(g[0]), 1e-310),
    "concrete_vector": lambda s, g: sp.concrete_vector(ad.parameter(s[0]), g[0, 0], 1e-310),
}


@pytest.mark.parametrize("entry", TINY_ENTRY_POINTS)
def test_tiny_temperature_is_a_numeric_error_without_numpy_warnings(entry):
    # (scores + noise) / 1e-310 overflows; every entry point refuses the NaN samples in one place
    rng = np.random.default_rng(40)
    scores, noise = rng.normal(size=(3, 5)), sp.gumbel_from_uniform(rng.uniform(size=(3, 2, 5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^relaxed mask became non-finite \(temperature 1e-310\)$"):
            TINY_ENTRY_POINTS[entry](scores, noise)


class TestHardTopK:
    def test_basic_selection(self):
        assert sp.hard_top_k(np.array([0.1, 0.9, 0.5]), 2) == (1, 2)

    def test_ties_go_to_lower_index(self):
        assert sp.hard_top_k(np.zeros(5), 2) == (0, 1)
        assert sp.hard_top_k(np.array([1.0, 2.0, 2.0, 2.0]), 2) == (1, 2)

    def test_k_equals_d(self):
        assert sp.hard_top_k(np.array([3.0, 1.0, 2.0]), 3) == (0, 1, 2)

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="k must"):
                sp.hard_top_k(np.zeros(3), k)

    def test_matrix_rows_match_vector_calls(self):
        # small integer scores make ties common
        scores = np.random.default_rng(33).integers(0, 4, size=(200, 7)).astype(float)
        top = sp.hard_top_k(scores, 3)
        assert top.shape == (200, 3)
        assert [tuple(row) for row in top.tolist()] == [sp.hard_top_k(row, 3) for row in scores]

    def test_rejects_higher_rank_scores(self):
        with pytest.raises(ValueError, match="vector or a matrix"):
            sp.hard_top_k(np.zeros((2, 3, 4)), 1)
