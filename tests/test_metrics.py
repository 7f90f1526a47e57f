"""Rank/fidelity metrics and the exact discrete information oracles."""

from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np
import pytest

from l2x import metrics as mt
from l2x import oracle as oc


def double_sum_mi(joint: oc.DiscreteJoint, S) -> float:
    """Independent MI implementation: plain dict-grouped double summation."""
    S = tuple(S)
    p_vy: dict = {}
    p_v: dict = {}
    c = joint.n_classes
    for i in range(joint.xs.shape[0]):
        v = tuple(joint.xs[i, list(S)].tolist())
        p_v[v] = p_v.get(v, 0.0) + joint.px[i]
        for y in range(c):
            p_vy[(v, y)] = p_vy.get((v, y), 0.0) + joint.px[i] * joint.py_given_x[i, y]
    p_y = [sum(p_vy.get((v, y), 0.0) for v in p_v) for y in range(c)]
    total = 0.0
    for (v, y), pvy in p_vy.items():
        if pvy > 0.0:
            total += pvy * math.log(pvy / (p_v[v] * p_y[y]))
    return total


def rule_value(joint: oc.DiscreteJoint, rule) -> float:
    """Objective of an arbitrary per-atom subset rule, computed from scratch."""
    conds = {}
    total = 0.0
    log_py = np.log(joint.py())
    for i in range(joint.xs.shape[0]):
        if joint.px[i] <= 0.0:
            continue
        S = rule[i]
        if S not in conds:
            conds[S] = oc.exact_conditional(joint, S)
        key = tuple(joint.xs[i, list(S)].tolist())
        q = conds[S][key]
        for y in range(joint.n_classes):
            p = joint.py_given_x[i, y]
            if p > 0.0:
                total += joint.px[i] * p * (math.log(q[y]) - log_py[y])
    return total


def group_conditionals(joint: oc.DiscreteJoint, S) -> dict:
    """P(X_S = v) and P(Y | X_S = v) per subvector value v with mass, by a plain loop over atoms."""
    mass: dict = {}
    for i in range(joint.xs.shape[0]):
        v = tuple(joint.xs[i, list(S)].tolist())
        p_v, p_vy = mass.get(v, (0.0, np.zeros(joint.n_classes)))
        mass[v] = (p_v + joint.px[i], p_vy + joint.px[i] * joint.py_given_x[i])
    return {v: (p_v, p_vy / p_v) for v, (p_v, p_vy) in mass.items() if p_v > 0.0}


def double_loop_gap_and_ell(joint: oc.DiscreteJoint, S, q: dict) -> tuple[float, float]:
    """Jensen gap and E[log Q(Y|X_S)] by a per-group, per-class double loop."""
    gap = ell = 0.0
    for v, (p_v, cond) in group_conditionals(joint, S).items():
        for y in range(joint.n_classes):
            if cond[y] <= 0.0:
                continue
            if q[v][y] <= 0.0:
                return math.inf, -math.inf
            gap += p_v * cond[y] * (math.log(cond[y]) - math.log(q[v][y]))
            ell += p_v * cond[y] * math.log(q[v][y])
    return gap, ell


def small_joint(seed=0, d=3, c=2):
    return oc.random_binary_joint(np.random.default_rng(seed), d, c)


class TestDiscreteJoint:
    def test_validation(self):
        xs = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="px"):
            oc.DiscreteJoint(xs, np.array([0.5, 0.6]), np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="simplex"):
            oc.DiscreteJoint(xs, np.array([0.5, 0.5]), np.array([[0.7, 0.5], [0.5, 0.5]]))

    def test_marginal(self):
        j = oc.DiscreteJoint(
            np.array([[0.0], [1.0]]),
            np.array([0.25, 0.75]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        np.testing.assert_allclose(j.py(), [0.25, 0.75])


class TestEntropy:
    def test_uniform_and_point_mass(self):
        assert abs(oc.entropy(np.full(4, 0.25)) - math.log(4)) < 1e-15
        assert oc.entropy(np.array([1.0, 0.0, 0.0])) == 0.0


class TestExactMutualInformation:
    def test_independent_is_zero(self):
        xs = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        px = np.full(8, 1.0 / 8)
        pyx = np.tile([0.3, 0.7], (8, 1))
        j = oc.DiscreteJoint(xs, px, pyx)
        for size in (1, 2, 3):
            for S in itertools.combinations(range(3), size):
                assert abs(oc.exact_mutual_information(j, S)) < 1e-12

    def test_identity_channel_gives_log2(self):
        j = oc.DiscreteJoint(
            np.array([[0.0], [1.0]]),
            np.array([0.5, 0.5]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        assert abs(oc.exact_mutual_information(j, (0,)) - math.log(2)) < 1e-15

    def test_empty_subset_is_zero(self):
        assert oc.exact_mutual_information(small_joint(), ()) == 0.0

    def test_matches_double_summation(self):
        worst = 0.0
        for seed in range(20):
            j = small_joint(seed, d=3, c=2 + seed % 2)
            for S in itertools.combinations(range(3), 2):
                worst = max(worst, abs(oc.exact_mutual_information(j, S) - double_sum_mi(j, S)))
        assert worst < 1e-10

    def test_monotone_under_nesting(self):
        for seed in range(10):
            j = small_joint(seed + 100, d=4, c=3)
            for S in [(0,), (1, 3), (0, 2)]:
                for extra in range(4):
                    if extra in S:
                        continue
                    T = tuple(sorted(S + (extra,)))
                    assert (
                        oc.exact_mutual_information(j, T)
                        >= oc.exact_mutual_information(j, S) - 1e-12
                    )

    def test_invalid_subsets_rejected(self):
        j = small_joint()
        with pytest.raises(ValueError, match="duplicate"):
            oc.exact_mutual_information(j, (0, 0))
        with pytest.raises(ValueError, match="range"):
            oc.exact_mutual_information(j, (5,))


class TestBruteForce:
    def xor_joint(self, d=4, flip=0.1):
        xs = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        px = np.full(len(xs), 1.0 / len(xs))
        parity = (xs[:, 0] != xs[:, 1]).astype(float)
        pyx = np.stack([1.0 - flip - parity * (1.0 - 2 * flip), flip + parity * (1.0 - 2 * flip)], axis=1)
        return oc.DiscreteJoint(xs, px, pyx)

    def test_xor_structure_recovered(self):
        res = oc.brute_force_best_subset(self.xor_joint(), 2)
        assert res.best_subset == (0, 1)
        assert res.best_mi > 0.3
        # the per-x rule aligns with the structural optimum everywhere
        assert all(s == (0, 1) for s in res.per_x_subsets)

    def test_k_equals_d_gives_full_information(self):
        j = small_joint(3, d=3, c=3)
        res = oc.brute_force_best_subset(j, 3)
        assert res.best_subset == (0, 1, 2)
        assert abs(res.best_mi - oc.exact_mutual_information(j, (0, 1, 2))) < 1e-12

    def test_internal_consistency_on_random_joints(self):
        for seed in range(15):
            j = small_joint(seed, d=4, c=2)
            res = oc.brute_force_best_subset(j, 2)
            assert res.rule_value >= res.best_mi - 1e-10
            assert abs(rule_value(j, res.per_x_subsets) - res.rule_value) < 1e-12

    def test_deviating_from_per_x_rule_strictly_loses(self):
        j = small_joint(7, d=4, c=2)
        res = oc.brute_force_best_subset(j, 2)
        base = res.per_x_subsets
        rng = np.random.default_rng(0)
        found_strict = False
        for _ in range(10):
            i = int(rng.integers(len(base)))
            alternatives = [
                S for S in itertools.combinations(range(4), 2) if S != base[i]
            ]
            deviated = list(base)
            deviated[i] = alternatives[int(rng.integers(len(alternatives)))]
            v = rule_value(j, deviated)
            assert v <= res.rule_value + 1e-12
            if v < res.rule_value - 1e-9:
                found_strict = True
        assert found_strict

    def test_per_x_subsets_are_the_per_atom_argmin(self):
        for seed in range(10):
            j = small_joint(seed + 30, d=4, c=3)
            subsets = list(itertools.combinations(range(4), 2))
            conds = [group_conditionals(j, S) for S in subsets]
            res = oc.brute_force_best_subset(j, 2)
            for i in range(len(j.px)):
                codes = [
                    -sum(j.py_given_x[i, y] * math.log(cond[tuple(j.xs[i, list(S)].tolist())][1][y])
                         for y in range(3) if j.py_given_x[i, y] > 0.0)
                    for S, cond in zip(subsets, conds)
                ]
                assert res.per_x_subsets[i] == subsets[int(np.argmin(codes))]

    def test_resource_cap(self):
        # C(16, 8) = 12,870 subsets; refused before any is enumerated
        j = small_joint(0, d=16, c=2)
        with pytest.raises(ValueError, match=r"resource cap: C\(16,8\) = 12870 subsets exceeds limit 10000"):
            oc.brute_force_best_subset(j, 8)
        assert oc.MAX_SUBSETS == 10_000 >= math.comb(15, 7)  # every d the oracle suite allows fits


class TestJensenGap:
    def test_exact_conditional_gives_zero_gap(self):
        for seed in range(10):
            j = small_joint(seed, d=3, c=3)
            for S in [(0,), (0, 2)]:
                q = oc.exact_conditional(j, S)
                assert abs(oc.jensen_gap(j, S, q)) < 1e-12

    def test_tightness_equals_negative_conditional_entropy(self):
        j = small_joint(11, d=3, c=2)
        S = (0, 1)
        q = oc.exact_conditional(j, S)
        h_y_given_s = oc.entropy(j.py()) - oc.exact_mutual_information(j, S)
        assert abs(oc.expected_log_likelihood(j, S, q) - (-h_y_given_s)) < 1e-12

    def test_perturbed_conditional_gives_positive_gap(self):
        j = small_joint(5, d=3, c=2)
        S = (0, 1)
        q = oc.exact_conditional(j, S)
        key = next(iter(q))
        row = q[key].copy()
        row[0] = min(1.0, row[0] + 0.05)
        q[key] = row / row.sum()
        assert oc.jensen_gap(j, S, q) > 1e-6

    def test_nonnegative_for_random_q(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            j = small_joint(seed + 50, d=3, c=2)
            S = (1, 2)
            q = {key: rng.dirichlet(np.ones(2)) for key in oc.exact_conditional(j, S)}
            assert oc.jensen_gap(j, S, q) >= -1e-12

    def test_gap_equals_average_kl(self):
        rng = np.random.default_rng(13)
        j = small_joint(21, d=3, c=3)
        S = (0, 2)
        cond = oc.exact_conditional(j, S)
        q = {key: rng.dirichlet(np.ones(3)) for key in cond}
        gap = oc.jensen_gap(j, S, q)
        # direct computation: weighted KL between conditionals and q
        _, w, c_rows, keys = oc._groups(j, S)
        kl_total = 0.0
        for g, key in enumerate(keys):
            if w[g] <= 0:
                continue
            p = c_rows[g]
            pos = p > 0
            kl_total += w[g] * float((p[pos] * np.log(p[pos] / q[key][pos])).sum())
        assert abs(gap - kl_total) < 1e-12

    def test_zero_q_on_mass_gives_infinite_gap(self):
        j = oc.DiscreteJoint(
            np.array([[0.0], [1.0]]),
            np.array([0.5, 0.5]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
        )
        q = {(0.0,): np.array([1.0, 0.0]), (1.0,): np.array([0.5, 0.5])}
        assert oc.jensen_gap(j, (0,), q) == float("inf")

    def test_kernels_match_a_double_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d, c = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            j = oc.random_binary_joint(rng, d, c)
            S = tuple(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()))
            q = {v: rng.dirichlet(np.ones(c)) for v in group_conditionals(j, S)}
            gap, ell = double_loop_gap_and_ell(j, S, q)
            assert abs(oc.jensen_gap(j, S, q) - gap) <= 1e-12
            assert abs(oc.expected_log_likelihood(j, S, q) - ell) <= 1e-12
        # a zero of Q on an outcome with mass, and a Q missing a subvector value
        v = next(iter(q))
        q[v] = np.eye(c)[int(np.argmin(group_conditionals(j, S)[v][1]))]
        assert double_loop_gap_and_ell(j, S, q) == (math.inf, -math.inf)
        assert oc.jensen_gap(j, S, q) == math.inf
        assert oc.expected_log_likelihood(j, S, q) == -math.inf
        del q[v]
        for kernel in (oc.jensen_gap, oc.expected_log_likelihood):
            with pytest.raises(ValueError, match="missing"):
                kernel(j, S, q)

    def test_invalid_q_rejected(self):
        j = small_joint(2)
        S = (0,)
        good = oc.exact_conditional(j, S)
        missing = dict(list(good.items())[1:])
        with pytest.raises(ValueError, match="missing"):
            oc.jensen_gap(j, S, missing)
        bad = {key: np.array([0.9, 0.9]) for key in good}
        with pytest.raises(ValueError, match="simplex"):
            oc.jensen_gap(j, S, bad)


class TestRanks:
    def test_rank_one_is_largest(self):
        np.testing.assert_array_equal(mt.ranks_of(np.array([0.1, 0.9, 0.5])), [3, 1, 2])

    def test_ties_to_lower_index(self):
        np.testing.assert_array_equal(mt.ranks_of(np.array([0.5, 0.5, 0.1])), [1, 2, 3])

    def test_matrix_rows_match_vector_calls(self):
        scores = np.random.default_rng(0).integers(0, 3, size=(50, 6)).astype(float)
        np.testing.assert_array_equal(mt.ranks_of(scores), [mt.ranks_of(row) for row in scores])


class TestIndexSets:
    """The one check every boundary runs on truth sets and selections."""

    def test_valid_sets_come_back_as_int64_rows(self):
        out = mt.index_sets([(3, 0), (1, 2)], 4, "selection")
        assert out.dtype == np.int64 and out.tolist() == [[3, 0], [1, 2]]

    def test_repeats_match_a_sorted_reference(self):
        # every column pair is compared: a repeat anywhere in any row is found, and only a repeat
        rng = np.random.default_rng(8)
        for t in range(1, 7):
            rows = rng.integers(0, 8, size=(300, t))
            has_repeat = (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)
            if has_repeat.any():
                first = rows[has_repeat.argmax()].tolist()
                with pytest.raises(ValueError, match=rf"selection {re.escape(str(first))} repeats an index"):
                    mt.index_sets(rows, 8, "selection")
            distinct = rows[~has_repeat]
            assert mt.index_sets(distinct, 8, "selection").tolist() == distinct.tolist()

    @pytest.mark.parametrize("rows, message", [
        ([(0, 1), (0, 1, 2), ()], r"\[0, 1, 2\] differs in size from the first, \[0, 1\]"),
        ([(), ()], r"\[\] is empty"),
        ([(0, 1), (4, 4)], r"\[4, 4\] holds an index outside \[0, 4\)"),
        ([(0, 1), (-1, 2)], r"\[-1, 2\] holds an index outside"),
        ([(0, 1), (1, 2**63)], r"\[1, 9223372036854775808\] holds an index outside"),
        ([(2, 2), (0, 9)], r"\[0, 9\] holds an index outside"),
        ([(0, 1), (3, 3)], r"\[3, 3\] repeats an index"),
        ([(0, 1), (0.9, 1.9)], r"\[0.9, 1.9\] holds an index that is not an integer"),
        ([(True, False)], r"\[True, False\] holds an index that is not an integer"),
        (np.array([[0.0, 1.0]]), r"\[0.0, 1.0\] holds an index that is not an integer"),
        ([(0, 1), (2.0, 9)], r"\[2.0, 9\] holds an index that is not an integer"),
    ], ids=["ragged", "empty", "past-d", "negative", "past-int64", "range-before-repeat", "repeated",
            "float", "bool", "float-array", "type-before-range"])
    def test_first_broken_rule_names_its_set(self, rows, message):
        with pytest.raises(ValueError, match=f"truth set {message}"):
            mt.index_sets(rows, 4, "truth set")


class TestMedianRank:
    def test_spec_examples(self):
        # true features at ranks 1 and 2 -> 1.5
        scores = np.array([9.0, 8.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0])
        report = mt.median_rank([scores], [(0, 1)], d=10)
        assert report.per_sample[0] == 1.5
        assert report.optimal_median == 1.5
        # four true features at ranks 1..4 -> 2.5
        scores4 = np.array([9.0, 8, 7, 6, 0, 0, 0, 0, 0, 0])
        assert mt.median_rank([scores4], [(0, 1, 2, 3)], d=10).per_sample[0] == 2.5
        # true features at ranks 1 and 3 -> 2.0
        scores13 = np.array([9.0, 0.0, 8.5, 7.0, 0, 0, 0, 0, 0, 0])
        assert mt.median_rank([scores13], [(0, 3)], d=10).per_sample[0] == 2.0

    def test_summary_consistent_with_list(self):
        rng = np.random.default_rng(1)
        scores = [rng.normal(size=6) for _ in range(40)]
        truths = [(0, 1) for _ in range(40)]
        report = mt.median_rank(scores, truths, d=6)
        assert report.summary["min"] == report.per_sample.min()
        assert report.summary["max"] == report.per_sample.max()
        assert report.summary["median"] == np.median(report.per_sample)
        assert 1.0 <= report.summary["min"] and report.summary["max"] <= 6.0

    def test_uniform_scores_concentrate_at_center(self):
        rng = np.random.default_rng(2)
        d, n = 10, 10_000
        scores = [rng.uniform(size=d) for _ in range(n)]
        truths = [(0, 1)] * n
        report = mt.median_rank(scores, truths, d=d)
        assert abs(report.summary["median"] - (d + 1) / 2) <= 0.5

    def test_array_input_matches_per_sample_definition(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 5, size=(300, 8)).astype(float)
        truths = np.where(rng.uniform(size=(300, 1)) < 0.5, (0, 1, 2), (0, 5, 6))
        report = mt.median_rank(scores, truths, d=8)
        expected = [np.median(mt.ranks_of(s)[t]) for s, t in zip(scores, truths)]
        np.testing.assert_array_equal(report.per_sample, expected)
        assert report.optimal_median == 2.0

    def test_errors(self):
        with pytest.raises(ValueError, match=r"truth set \[4\] holds an index outside \[0, 4\)"):
            mt.median_rank([np.zeros(4)], [(4,)], d=4)
        with pytest.raises(ValueError, match="score vectors vs"):
            mt.median_rank([np.zeros(4)], [(0,), (1,)], d=4)
        with pytest.raises(ValueError, match=r"truth set \[0, 1\] differs in size from the first, \[0\]"):
            mt.median_rank([np.zeros(4), np.zeros(4)], [(0,), (0, 1)], d=4)
        with pytest.raises(ValueError, match=r"truth set \[\] is empty"):
            mt.median_rank([np.zeros(4), np.zeros(4)], [(), ()], d=4)
        with pytest.raises(ValueError, match=r"truth set \[1, 1\] repeats an index"):  # not counted twice
            mt.median_rank([np.zeros(4), np.zeros(4)], [(0, 1), (1, 1)], d=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_refused_naming_the_row(self, value):
        # a NaN used to sort last and rank: [NaN, 1.0, 2.0, 0.5] against truth (0, 1) gave 3.0
        scores = np.array([[4.0, 3.0, 2.0, 1.0], [value, 1.0, 2.0, 0.5]])
        with pytest.raises(ValueError, match=rf"^non-finite score {value!r} \(row 1, column 0\)$"):
            mt.median_rank(scores, [(0, 1), (0, 1)], d=4)

    def test_non_integer_truth_set_rejected(self):
        # truncated, [0.9, 1.9] would score the truth {0, 1}
        with pytest.raises(ValueError, match=r"truth set \[0.9, 1.9\] holds an index that is not an integer"):
            mt.median_rank([np.arange(10.0)], [[0.9, 1.9]], d=10)


class FixedClassifier:
    """Stub black box: argmax decided by x0's sign; constant alternative."""

    def __init__(self, constant=False):
        self.constant = constant

    def predict_proba(self, x):
        x = np.asarray(x)
        if self.constant:
            return np.tile([0.8, 0.2], (x.shape[0], 1))
        p1 = 1.0 / (1.0 + np.exp(-x[:, 0]))
        return np.stack([1.0 - p1, p1], axis=1)


class TestAccuracy:
    def test_fraction_of_rows_whose_argmax_is_the_label(self):
        x = np.array([[1.0], [-1.0], [2.0], [-2.0], [3.0]])  # FixedClassifier predicts class 1 where x0 > 0
        assert mt.accuracy(FixedClassifier(), x, [1, 0, 1, 1, 0]) == 0.6
        assert mt.accuracy(FixedClassifier(), x, np.array([1, 0, 1, 0, 1], dtype=np.int8)) == 1.0

    @pytest.mark.parametrize("y, message", [
        ([0], r"labels must be 5 integers, got int64 array of shape \(1,\)"),
        ([0, 1, 0, 1], "labels must be 5 integers"),
        ([[0, 1, 0, 1, 0]], "labels must be 5 integers"),
        ([0.7, 1.0, 0.0, 1.0, 0.0], "labels must be 5 integers, got float64"),
        ([True, False, True, False, True], "labels must be 5 integers, got bool"),
    ], ids=["one-label", "too-few", "nested", "fraction", "bool"])
    def test_labels_must_be_n_integers(self, y, message):
        # one label used to broadcast (0.4 here) and 0.7 to read as 0
        x = np.array([[1.0], [-1.0], [2.0], [-2.0], [3.0]])
        with pytest.raises(ValueError, match=message):
            mt.accuracy(FixedClassifier(), x, y)

    def test_empty_input_refused_without_warnings(self):
        # it used to return NaN with two RuntimeWarnings
        with pytest.raises(ValueError, match="need at least one sample"):
            mt.accuracy(FixedClassifier(), np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_non_finite_feature_refused(self):
        x = np.zeros((5, 3))
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite feature value nan \(row 2, column 1\)"):
            mt.accuracy(FixedClassifier(), x, np.zeros(5, dtype=int))

    def test_a_single_row_is_not_a_matrix(self):
        with pytest.raises(ValueError, match=r"x must be \(n, d\), got shape \(5,\)"):
            mt.accuracy(FixedClassifier(), np.zeros(5), [0])


class TestPostHocAccuracy:
    def test_full_selection_is_perfect(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 4))
        report = mt.post_hoc_accuracy(FixedClassifier(), x, [(0, 1, 2, 3)] * 50)
        assert report == mt.PostHocReport(accuracy=1.0)

    def test_constant_classifier_is_perfect(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4))
        report = mt.post_hoc_accuracy(FixedClassifier(constant=True), x, [(3,)] * 30)
        assert report.accuracy == 1.0

    def test_dropping_the_deciding_feature_hurts(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 4))
        x[:, 0] += np.sign(x[:, 0])  # keep x0 away from 0 so its sign decides
        with_x0 = mt.post_hoc_accuracy(FixedClassifier(), x, [(0, 1)] * 200)
        without_x0 = mt.post_hoc_accuracy(FixedClassifier(), x, [(1, 2)] * 200)
        assert with_x0.accuracy == 1.0
        # zeroing x0 makes p exactly 0.5; argmax falls to class 0 always
        assert without_x0.accuracy < 0.8

    def test_matches_per_row_masking(self):
        from l2x.networks import build_classifier

        rng = np.random.default_rng(6)
        clf = build_classifier(5, 3, rng, hidden=(8, 8, 8))
        x = rng.normal(size=(100, 5))
        sel = np.sort(np.argsort(rng.uniform(size=(100, 5)), axis=1)[:, :2], axis=1)
        masked = np.zeros_like(x)
        for i, row in enumerate(sel):
            masked[i, row] = x[i, row]
        agree = (clf.predict_proba(masked).argmax(axis=1) == clf.predict_proba(x).argmax(axis=1))
        report = mt.post_hoc_accuracy(clf, x, sel)
        assert report.accuracy == agree.mean()

    def test_misalignment_rejected(self):
        with pytest.raises(ValueError, match="selections"):
            mt.post_hoc_accuracy(FixedClassifier(), np.zeros((3, 4)), [(0,)] * 2)

    def test_out_of_range_selection_rejected(self):
        with pytest.raises(ValueError, match=r"selection \[7\] holds an index outside \[0, 4\)"):
            mt.post_hoc_accuracy(FixedClassifier(), np.zeros((1, 4)), [(7,)])

    def test_repeated_selection_index_rejected(self):
        # one feature kept where k=2 are claimed
        with pytest.raises(ValueError, match=r"selection \[3, 3\] repeats an index"):
            mt.post_hoc_accuracy(FixedClassifier(), np.ones((2, 4)), [(0, 3), (3, 3)])

    def test_empty_selections_rejected(self):
        # every input fully masked: an accuracy that says nothing of any selection
        with pytest.raises(ValueError, match=r"selection \[\] is empty"):
            mt.post_hoc_accuracy(FixedClassifier(), np.ones((3, 4)), np.zeros((3, 0), np.int64))

    def test_boolean_selection_rejected(self):
        # read as indices, [[True, False]] would keep feature 1 and then feature 0
        with pytest.raises(ValueError, match=r"selection \[True, False\] holds an index that is not an integer"):
            mt.post_hoc_accuracy(FixedClassifier(), np.ones((1, 4)), np.array([[True, False]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, value):
        x = np.ones((5, 4))
        x[3, 2] = value
        with pytest.raises(ValueError, match=rf"non-finite feature value {value!r} \(row 3, column 2\)"):
            mt.post_hoc_accuracy(FixedClassifier(), x, [(0,)] * 5)


class TestRanksCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ranks.csv"
        mt.write_ranks_csv({"l2x": np.array([1.5]), "saliency": np.array([3.0])}, "xor", path)
        assert path.read_bytes() == b"method,dataset,median_rank\r\nl2x,xor,1.5\r\nsaliency,xor,3.0\r\n"

    def test_bytes_match_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        ranks = {method: rng.choice([1.5, 2.0, 3.25, 5e-324, 1e16, 0.1], size)
                 for method, size in (("taylor-abs", 200), ('q"uote', 3), ("co,mma", 1), ("l2x", 50))}
        path = tmp_path / "ranks.csv"
        for dataset in ("xor", "orange skin", "line\nbreak", 'q"uote'):
            buffer = io.StringIO(newline="")
            writer = csv.writer(buffer)
            writer.writerow(["method", "dataset", "median_rank"])
            rows = [(method, dataset, float(value)) for method, values in ranks.items() for value in values]
            for method, _, value in rows:
                writer.writerow([method, dataset, repr(value)])
            mt.write_ranks_csv(ranks, dataset, path)
            assert path.read_bytes() == buffer.getvalue().encode()
            # csv.reader gives back every row, each value by repr, so exactly
            with open(path, newline="") as fh:
                back = list(csv.reader(fh))
            assert back[0] == ["method", "dataset", "median_rank"]
            assert [(method, name, float(value)) for method, name, value in back[1:]] == rows

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "ranks.csv"
        mt.write_ranks_csv({}, "xor", path)
        assert path.read_bytes() == b"method,dataset,median_rank\r\n"
        mt.write_ranks_csv({"l2x": np.array([])}, "xor", path)
        assert path.read_bytes() == b"method,dataset,median_rank\r\n"
