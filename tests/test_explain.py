"""Explanation interface: learned selector plus the gradient baselines."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import explain as ex
from l2x import files
from l2x.errors import JsonlFormatError
from l2x.networks import BLOCK_ROWS, Mlp, MlpSpec, build_classifier, build_explainer
from l2x.pipeline import explain_dataset, posthoc_for, ranks_for


def linear_classifier(w):
    """Net that is exactly linear on |x| < 1000: logits = x @ w.

    The hidden layer forwards x + 1000 through an always-active relu and
    the output bias cancels the shift, so input gradients equal w.
    """
    w = np.asarray(w, dtype=np.float64)
    d, c = w.shape
    spec = MlpSpec((d, d, c), head="softmax")
    buffer = np.concatenate([np.eye(d).ravel(), np.full(d, 1000.0), w.ravel(), -1000.0 * w.sum(axis=0)])
    return Mlp("classifier", spec, buffer)


def one_row(method, clf, x, k):
    """The explanation of the single row ``x`` by a gradient baseline, through the batched path."""
    return explain_dataset(method, x[None, :], k, classifier=clf)[0]


class TestExplainL2x:
    def test_selects_top_scores(self):
        rng = np.random.default_rng(0)
        explainer = build_explainer(6, rng, hidden=(8, 8))
        x = rng.normal(size=6)
        e = ex.explain_l2x(explainer, x, k=2, sample_id=7)
        assert e.sample_id == 7 and e.method == "l2x"
        assert len(e.selected) == 2
        order = np.argsort(-e.scores, kind="stable")
        assert set(e.selected) == set(int(i) for i in order[:2])

    def test_k_equals_d_selects_everything(self):
        explainer = build_explainer(5, np.random.default_rng(1), hidden=(6, 6))
        e = ex.explain_l2x(explainer, np.ones(5), k=5)
        assert e.selected == (0, 1, 2, 3, 4)

    def test_k_out_of_range_rejected(self):
        explainer = build_explainer(4, np.random.default_rng(2), hidden=(5, 5))
        with pytest.raises(ValueError, match="k must"):
            ex.explain_l2x(explainer, np.ones(4), k=5)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        explainer = build_explainer(6, rng, hidden=(8, 8))
        x = rng.normal(size=6)
        a = ex.explain_l2x(explainer, x, k=3)
        b = ex.explain_l2x(explainer, x, k=3)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.selected == b.selected

    def test_zero_classifier_evaluations(self):
        rng = np.random.default_rng(4)
        clf = build_classifier(6, 2, rng, hidden=(8, 8, 8))
        explainer = build_explainer(6, rng, hidden=(8, 8))
        clf.reset_eval_count()
        for _ in range(20):
            ex.explain_l2x(explainer, rng.normal(size=6), k=2)
        assert clf.eval_count == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, value):
        # without the check, a NaN row scores all NaN and selects (0, 1) silently
        explainer = build_explainer(10, np.random.default_rng(6), hidden=(8, 8))
        x = np.ones(10)
        x[3] = value
        with pytest.raises(ValueError, match=rf"non-finite feature value {value!r} \(row 0, column 3\)"):
            ex.explain_l2x(explainer, x, 2)
        assert explainer.eval_count == 0

    def test_under_one_millisecond_per_sample(self):
        rng = np.random.default_rng(5)
        explainer = build_explainer(10, rng, hidden=(200, 200))
        xs = rng.normal(size=(200, 10))
        walls = [ex.explain_l2x(explainer, x, k=4).wall_ns for x in xs]
        assert np.median(walls) < 1_000_000


class TestExplainSaliency:
    def test_linear_model_recovers_weight_magnitudes(self):
        w = np.array([[2.0, -2.0], [-0.5, 0.5], [3.0, -3.0], [0.0, 0.0]])
        clf = linear_classifier(w)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        e = one_row("saliency", clf, x, k=2)
        cls = int(np.argmax(clf.predict_proba(x)))
        np.testing.assert_allclose(e.scores, np.abs(w[:, cls]), atol=1e-12)
        assert e.selected == (0, 2)
        assert e.method == "saliency"
        batch = np.random.default_rng(1).uniform(-1, 1, size=(40, 4))
        scores = explain_dataset("saliency", batch, 2, classifier=clf).scores
        np.testing.assert_allclose(scores, np.abs(w[:, clf.predict_proba(batch).argmax(axis=1)].T), atol=1e-12)

    def test_ignored_feature_scores_zero(self):
        w = np.array([[1.0, -1.0], [0.0, 0.0]])
        clf = linear_classifier(w)
        e = one_row("saliency", clf, np.array([5.0, 123.0]), k=1)
        assert e.scores[1] == 0.0
        assert e.selected == (0,)
        batch = np.random.default_rng(2).uniform(-100, 100, size=(30, 2))
        record = explain_dataset("saliency", batch, 1, classifier=clf)
        assert (record.scores[:, 1] == 0.0).all() and (record.selected == 0).all()

    def test_counts_classifier_evaluations(self):
        clf = build_classifier(4, 2, np.random.default_rng(6), hidden=(5, 5, 5))
        clf.reset_eval_count()
        one_row("saliency", clf, np.ones(4), k=1)
        assert clf.eval_count == 1
        explain_dataset("saliency", np.ones((9, 4)), 1, classifier=clf)
        assert clf.eval_count == 10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        clf = build_classifier(5, 3, rng, hidden=(8, 8, 8))
        xs = rng.normal(size=(3, 5))
        batched = explain_dataset("saliency", xs, 2, classifier=clf).scores

        def logit(v, cls):
            h = v[None, :]
            n = len(clf.spec.layer_widths) - 1
            for i in range(n):
                z = h @ clf.params[f"w{i}"].data + clf.params[f"b{i}"].data
                h = z * (z > 0) if i < n - 1 else z
            return h[0, cls]

        step = 1e-6
        for x, row_scores in zip(xs, batched):
            scores = one_row("saliency", clf, x, k=2).scores
            np.testing.assert_allclose(row_scores, scores, rtol=0, atol=1e-12)
            cls = int(np.argmax(clf.predict_proba(x)))
            for i in range(5):
                up, down = x.copy(), x.copy()
                up[i] += step
                down[i] -= step
                numeric = (logit(up, cls) - logit(down, cls)) / (2 * step)
                assert abs(abs(numeric) - scores[i]) < 1e-5 * (1 + abs(numeric))


class TestExplainTaylor:
    def test_linear_model_gives_signed_products(self):
        w = np.array([[2.0, -2.0], [-1.0, 1.0], [0.5, -0.5]])
        clf = linear_classifier(w)
        x = np.array([1.0, -2.0, 4.0])
        e = one_row("taylor", clf, x, k=2)
        cls = int(np.argmax(clf.predict_proba(x)))
        np.testing.assert_allclose(e.scores, x * w[:, cls], atol=1e-12)
        assert e.method == "taylor"
        batch = np.random.default_rng(3).uniform(-5, 5, size=(40, 3))
        scores = explain_dataset("taylor", batch, 2, classifier=clf).scores
        np.testing.assert_allclose(scores, batch * w[:, clf.predict_proba(batch).argmax(axis=1)].T, atol=1e-12)

    def test_absolute_variant(self):
        w = np.array([[2.0, -2.0], [-1.0, 1.0], [0.5, -0.5]])
        clf = linear_classifier(w)
        x = np.array([1.0, -2.0, 4.0])
        signed = one_row("taylor", clf, x, k=2)
        unsigned = one_row("taylor-abs", clf, x, k=2)
        np.testing.assert_allclose(unsigned.scores, np.abs(signed.scores))
        assert unsigned.method == "taylor-abs"
        batch = np.random.default_rng(4).uniform(-5, 5, size=(20, 3))
        np.testing.assert_array_equal(explain_dataset("taylor-abs", batch, 2, classifier=clf).scores,
                                      np.abs(explain_dataset("taylor", batch, 2, classifier=clf).scores))

    def test_zero_input_ties_break_to_lowest_indices(self):
        clf = build_classifier(6, 2, np.random.default_rng(8), hidden=(5, 5, 5))
        e = one_row("taylor", clf, np.zeros(6), k=3)
        np.testing.assert_array_equal(e.scores, np.zeros(6))
        assert e.selected == (0, 1, 2)
        record = explain_dataset("taylor", np.zeros((4, 6)), 3, classifier=clf)
        np.testing.assert_array_equal(record.scores, np.zeros((4, 6)))
        np.testing.assert_array_equal(record.selected, np.tile([0, 1, 2], (4, 1)))

    def test_selected_always_k_distinct_in_range(self):
        rng = np.random.default_rng(9)
        clf = build_classifier(7, 2, rng, hidden=(6, 6, 6))
        explainer = build_explainer(7, rng, hidden=(6, 6))
        for k in (1, 3, 7):
            xs = rng.normal(size=(5, 7))
            rows = [ex.explain_l2x(explainer, xs[0], k), one_row("saliency", clf, xs[0], k),
                    one_row("taylor", clf, xs[0], k)]
            for method in ("l2x", "saliency", "taylor"):
                rows += list(explain_dataset(method, xs, k, explainer=explainer, classifier=clf))
            for e in rows:
                assert len(e.selected) == k == len(set(e.selected))
                assert all(0 <= i < 7 for i in e.selected)


def row_gradient(clf, x):
    """Top-class logit gradient of one row by hand-written backpropagation."""
    n_layers = len(clf.spec.layer_widths) - 1
    h, pre = x[None, :], []
    for i in range(n_layers):
        z = h @ clf.params[f"w{i}"].data + clf.params[f"b{i}"].data
        pre.append(z)
        h = z * (z > 0.0) if i < n_layers - 1 else z
    g = np.zeros_like(h)
    g[0, int(np.argmax(h[0]))] = 1.0
    for i in reversed(range(n_layers)):
        g = g @ clf.params[f"w{i}"].data.T
        if i > 0:
            g = g * (pre[i - 1] > 0.0)
    return g[0]


def one_tape(clf, x):
    """Input gradients from one tape over every row, every weight on it as a parameter.

    The reference for ``input_gradient``, which runs the layers' kernels
    over a block of rows at a time and forms no weight gradient.
    """
    leaf = ad.ParameterSet()
    logits = clf.logits_tensor(leaf.add("x", x))
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(x)), logits.data.argmax(axis=1)] = 1.0
    return ad.backward(ad.reduce_sum(ad.mul(logits, ad.constant(onehot))), leaf)["x"]


class TestBatchedExplanations:
    """Every row of one batched pass against the one-row-at-a-time path."""

    @pytest.mark.parametrize("width", [64, 200])
    def test_gradient_baselines_match_per_row(self, width):
        rng = np.random.default_rng(width)
        clf = build_classifier(10, 2, rng, hidden=(width, width, width))
        x = rng.normal(size=(500, 10))
        k, tol = 4, 1e-12
        for method in ("saliency", "taylor"):
            clf.reset_eval_count()
            batched = explain_dataset(method, x, k, classifier=clf)
            assert clf.eval_count == 500
            for i, e in enumerate(batched):
                grad = row_gradient(clf, x[i])
                by_hand = np.abs(grad) if method == "saliency" else x[i] * grad
                one = one_row(method, clf, x[i], k)
                assert np.abs(e.scores - by_hand).max() <= tol
                assert np.abs(e.scores - one.scores).max() <= tol
                if e.selected != one.selected:
                    top = np.sort(one.scores)[::-1]
                    assert top[k - 1] - top[k] <= tol, f"row {i} differs without a tie"

    def test_input_gradient_computes_no_weight_gradient_and_is_unchanged(self, monkeypatch):
        rng = np.random.default_rng(16)
        clf = build_classifier(10, 2, rng, hidden=(32, 32, 32))
        x = rng.normal(size=(50, 10))
        ref = one_tape(clf, x)

        calls, dense_backward = [], ad.dense_backward

        def recorded(g, weights, kept, grads, need_input, **options):
            calls.append((list(grads), need_input, options))
            return dense_backward(g, weights, kept, grads, need_input, **options)

        def forbidden(*args, **kwargs):
            raise AssertionError("the gradient baselines build no graph")

        monkeypatch.setattr(ad, "dense_backward", recorded)
        monkeypatch.setattr(ad, "dense", forbidden)
        monkeypatch.setattr(ad, "backward", forbidden)
        clf.reset_eval_count()
        assert ex.input_gradient(clf, x).tobytes() == ref.tobytes()
        assert clf.eval_count == 50
        # one backward pass of the layers: no weight gradient, the input's, into fresh arrays
        assert calls == [([None] * 8, True, {})]

    @pytest.mark.parametrize("method", ex.ALL_METHODS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, method, value):
        # a NaN row would otherwise be scored all zeros, NaN or partly NaN, and its top k picked silently
        rng = np.random.default_rng(20)
        clf = build_classifier(10, 2, rng, hidden=(8, 8))
        explainer = build_explainer(10, rng, hidden=(8, 8))
        x = rng.normal(size=(6, 10))
        x[4, 7] = value
        with pytest.raises(ValueError, match=rf"non-finite feature value {value!r} \(row 4, column 7\)"):
            explain_dataset(method, x, 2, explainer=explainer, classifier=clf)
        assert clf.eval_count == explainer.eval_count == 0

    @pytest.mark.parametrize("hidden", [(200, 200, 200), (64, 64)], ids=["default", "64x64"])
    def test_blocked_input_gradient_matches_one_tape(self, hidden):
        rng = np.random.default_rng(17)
        clf = build_classifier(10, 2, rng, hidden=hidden)
        weights = [t.data.copy() for t in clf.params.values()]
        block = BLOCK_ROWS
        x = rng.normal(size=(5 * block // 2, 10))
        grad = ex.input_gradient(clf, x)
        assert clf.eval_count == len(x)
        # a block runs other BLAS kernels than the whole matrix, so only the last bits may move
        np.testing.assert_allclose(grad, one_tape(clf, x), rtol=1e-12, atol=1e-12)
        for start in range(0, len(x), block):  # each block is one tape over its own rows
            assert grad[start : start + block].tobytes() == one_tape(clf, x[start : start + block]).tobytes()
        assert all(t.data.tobytes() == w.tobytes() for t, w in zip(clf.params.values(), weights))
        assert ex.input_gradient(clf, np.empty((0, 10))).shape == (0, 10)

    def test_input_gradient_traced_peak_stays_within_a_few_blocks(self):
        # one tape over 20k rows held 165.6 MiB of activations and gradients; blocks need about 10
        clf = build_classifier(10, 2, np.random.default_rng(18), (200, 200, 200))  # the default widths
        x = np.random.default_rng(19).normal(size=(20_000, 10))
        tracemalloc.start()
        try:
            ex.input_gradient(clf, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_l2x_matches_per_row(self):
        rng = np.random.default_rng(12)
        explainer = build_explainer(10, rng, hidden=(16, 16))
        x = rng.normal(size=(300, 10))
        for i, e in enumerate(explain_dataset("l2x", x, 3, explainer=explainer)):
            one = ex.explain_l2x(explainer, x[i], 3, sample_id=i)
            assert e.sample_id == i and e.selected == one.selected
            np.testing.assert_allclose(e.scores, one.scores, rtol=0, atol=1e-12)

    def test_taylor_abs_method_name(self):
        clf = build_classifier(4, 2, np.random.default_rng(13), hidden=(5, 5, 5))
        x = np.random.default_rng(14).normal(size=(6, 4))
        signed = explain_dataset("taylor", x, 2, classifier=clf)
        unsigned = explain_dataset("taylor-abs", x, 2, classifier=clf)
        assert {e.method for e in unsigned} == {"taylor-abs"}
        for a, b in zip(signed, unsigned):
            np.testing.assert_array_equal(np.abs(a.scores), b.scores)

    def test_zero_rows_rejected(self):
        explainer = build_explainer(4, np.random.default_rng(15), hidden=(5, 5))
        with pytest.raises(ValueError, match="at least one sample"):
            explain_dataset("l2x", np.zeros((0, 4)), 2, explainer=explainer)


def record_of(rows) -> ex.Explanations:
    """Row explanations of one method stacked into a record."""
    return ex.Explanations(
        rows[0].method,
        np.array([e.sample_id for e in rows], dtype=np.int64),
        np.stack([e.scores for e in rows]),
        np.array([e.selected for e in rows], dtype=np.int64),
        np.array([e.wall_ns for e in rows], dtype=np.int64),
    )


def rows_of(record: ex.Explanations, rows) -> ex.Explanations:
    """The record restricted to ``rows`` (an index array or a slice)."""
    return ex.Explanations(record.method, record.ids[rows], record.scores[rows],
                           record.selected[rows], record.ns[rows])


def assert_records_equal(a: ex.Explanations, b: ex.Explanations) -> None:
    """Same method, and every column with the same dtype and the same bytes."""
    assert a.method == b.method
    for column in ("ids", "scores", "selected", "ns"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape, column
        assert x.tobytes() == y.tobytes(), column


class TestRecord:
    """The columnar record and the row views it hands out."""

    def test_columns_and_row_views(self):
        rng = np.random.default_rng(30)
        explainer = build_explainer(10, rng, hidden=(16, 16))
        x = rng.normal(size=(50, 10))
        record = explain_dataset("l2x", x, 3, explainer=explainer)
        assert len(record) == 50
        assert record.ids.dtype == record.selected.dtype == record.ns.dtype == np.int64
        assert record.scores.dtype == np.float64
        assert (record.ids.shape, record.scores.shape, record.selected.shape) == ((50,), (50, 10), (50, 3))
        np.testing.assert_array_equal(record.ids, np.arange(50))
        assert len(set(record.ns.tolist())) == 1
        views = list(record)
        assert len(views) == 50
        for i, e in enumerate(views):
            one = ex.explain_l2x(explainer, x[i], 3)
            assert type(e.sample_id) is int and e.sample_id == i
            assert type(e.selected) is tuple and all(type(j) is int for j in e.selected)
            assert e.selected == one.selected == record[i].selected
            assert type(e.wall_ns) is int and e.method == "l2x"
            assert e.scores.tobytes() == record.scores[i].tobytes()
        assert record[-1].sample_id == 49

    def test_mismatched_columns_rejected(self):
        ids, scores, sel, ns = np.arange(3), np.zeros((3, 4)), np.zeros((3, 2), np.int64), np.zeros(3, np.int64)
        ex.Explanations("l2x", ids, scores, sel, ns)
        for bad in ((ids[:2], scores, sel, ns), (ids, scores[0], sel, ns),
                    (ids, scores, sel[:2], ns), (ids, scores, sel, ns[:1])):
            with pytest.raises(ValueError, match="explanations need"):
                ex.Explanations("l2x", *bad)

    def test_frozen(self):
        record = record_of([ex.Explanation(0, "l2x", np.ones(3), (0,), 1)])
        with pytest.raises(AttributeError):
            record.method = "saliency"

    def test_concatenate(self):
        record = explain_dataset("l2x", np.eye(6), 2, explainer=build_explainer(
            6, np.random.default_rng(31), hidden=(5, 5)))
        parts = [rows_of(record, slice(0, 2)), rows_of(record, slice(2, 3)), rows_of(record, slice(3, 6))]
        assert_records_equal(ex.Explanations.concatenate(parts), record)
        assert ex.Explanations.concatenate([record]) is record
        other = rows_of(record, slice(0, 2))
        other = ex.Explanations("l2x", other.ids, other.scores, other.selected[:, :1], other.ns)
        with pytest.raises(ValueError):
            ex.Explanations.concatenate([record, other])


class TestIdAlignment:
    """Ranks and post-hoc accuracy of a record do not depend on its row order."""

    @pytest.mark.parametrize("method", ["l2x", "saliency", "taylor", "taylor-abs"])
    def test_shuffled_ids_equal_sorted(self, method):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(200, 10))
        truths = np.tile(np.arange(4), (200, 1))
        clf = build_classifier(10, 2, rng, hidden=(8, 8, 8))
        record = explain_dataset(method, x, 4, explainer=build_explainer(10, rng, hidden=(8, 8)),
                                 classifier=clf)
        shuffled = rows_of(record, rng.permutation(200))
        assert not (shuffled.ids[1:] >= shuffled.ids[:-1]).all()
        sorted_ranks = ranks_for(record, truths, d=10)
        shuffled_ranks = ranks_for(shuffled, truths, d=10)
        assert shuffled_ranks.per_sample.tobytes() == sorted_ranks.per_sample.tobytes()
        assert shuffled_ranks.summary == sorted_ranks.summary
        assert posthoc_for(clf, x, shuffled) == posthoc_for(clf, x, record)

    def test_ids_not_covering_the_rows_rejected(self):
        rng = np.random.default_rng(33)
        clf = build_classifier(4, 2, rng, hidden=(5, 5, 5))
        x = rng.normal(size=(5, 4))
        record = explain_dataset("saliency", x, 2, classifier=clf)
        truths = np.zeros((5, 1), np.int64)
        for ids in ([0, 1, 2, 3, 3], [0, 1, 2, 3, 5], [-1, 0, 1, 2, 3]):
            bad = ex.Explanations("saliency", np.array(ids), record.scores, record.selected, record.ns)
            with pytest.raises(ValueError, match="do not cover the dataset exactly once"):
                ranks_for(bad, truths, d=4)
            with pytest.raises(ValueError, match="do not cover the dataset exactly once"):
                posthoc_for(clf, x, bad)
        partial = rows_of(record, slice(0, 3))
        for check in (lambda: ranks_for(partial, truths, d=4), lambda: posthoc_for(clf, x, partial)):
            with pytest.raises(ValueError, match="do not cover the dataset exactly once"):
                check()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        explainer = build_explainer(4, rng, hidden=(5, 5))
        record = explain_dataset("l2x", rng.normal(size=(5, 4)), 2, explainer=explainer)
        path = tmp_path / "explanations.jsonl"
        ex.write_jsonl(record, path)
        back = ex.read_jsonl(path)
        assert list(back) == ["l2x"]
        assert len(back["l2x"]) == 5
        assert_records_equal(back["l2x"], record)
        for a, b in zip(record, back["l2x"]):
            assert (a.sample_id, a.method, a.selected, a.wall_ns) == (b.sample_id, b.method, b.selected, b.wall_ns)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_record_schema(self, tmp_path):
        explainer = build_explainer(3, np.random.default_rng(11), hidden=(4, 4))
        path = tmp_path / "one.jsonl"
        ex.write_jsonl(record_of([ex.explain_l2x(explainer, np.ones(3), 2, sample_id=9)]), path)
        record = json.loads(path.read_text().strip())
        assert list(record) == ["id", "method", "scores", "selected", "ns"]
        assert record["id"] == 9 and len(record["scores"]) == 3 and len(record["selected"]) == 2


def reference_jsonl(records) -> bytes:
    """The per-record writer the column kernel replaced: ``json.dumps`` per row."""
    return "".join(
        json.dumps({
            "id": e.sample_id,
            "method": e.method,
            "scores": [float(s) for s in e.scores],
            "selected": list(e.selected),
            "ns": e.wall_ns,
        }) + "\n"
        for record in records
        for e in record
    ).encode()


EDGE_SCORES = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 1.0, 0.1, -7.25e-300, 2.0**60, 1 / 3]


def mixed_explanations() -> list[ex.Explanations]:
    """A record of every method, then one more l2x record of edge, NaN and infinite scores."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 10))
    clf = build_classifier(10, 2, rng, hidden=(6, 6))
    explainer = build_explainer(10, rng, hidden=(6, 6))
    records = [explain_dataset(method, x, 3, explainer=explainer, classifier=clf)
               for method in ex.ALL_METHODS]
    special = [EDGE_SCORES, [np.nan] * 10, [np.inf, -np.inf, *EDGE_SCORES[2:]]]
    records.append(record_of([ex.Explanation(900 + i, "l2x", np.array(s), (0, 1, 2), 5)
                              for i, s in enumerate(special)]))
    return records


class TestJsonlColumnKernel:
    """The whole-column writer and reader against the per-record path they replace."""

    @pytest.mark.parametrize("method", ex.ALL_METHODS)
    def test_one_record_bytes_match_json_dumps(self, tmp_path, method):
        record = next(r for r in mixed_explanations() if r.method == method)
        ex.write_jsonl(record, tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == reference_jsonl([record])

    def test_integer_scores_written_as_json_floats(self, tmp_path):
        record = record_of([ex.Explanation(0, "l2x", np.array([3, 1, 2]), (0, 2), 7)])
        ex.write_jsonl(record, tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == reference_jsonl([record])

    def test_bytes_match_json_dumps_per_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 16)  # several blocks and a partial last one
        records = mixed_explanations()
        assert {r.method for r in records} == {"l2x", "saliency", "taylor", "taylor-abs"}
        ex.write_jsonl(records, tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == reference_jsonl(records)

    def test_round_trip_bitwise_including_non_finite(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 16)
        records = mixed_explanations()
        ex.write_jsonl(records, tmp_path / "e.jsonl")
        back = ex.read_jsonl(tmp_path / "e.jsonl")
        assert list(back) == ["l2x", "saliency", "taylor", "taylor-abs"]
        assert_records_equal(back["l2x"], ex.Explanations.concatenate([records[0], records[-1]]))
        for record in records[1:-1]:
            assert_records_equal(back[record.method], record)

    def test_interleaved_methods_group_in_order_of_first_appearance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 7)
        records = mixed_explanations()[:2]
        pieces = [rows_of(r, slice(i, i + 5)) for i in range(0, 40, 5) for r in records[::-1]]
        ex.write_jsonl(pieces, tmp_path / "e.jsonl")
        back = ex.read_jsonl(tmp_path / "e.jsonl")
        assert list(back) == ["saliency", "l2x"]
        for record in records:
            assert_records_equal(back[record.method], record)

    def test_empty_list_writes_empty_file(self, tmp_path):
        ex.write_jsonl([], tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == b""
        assert ex.read_jsonl(tmp_path / "e.jsonl") == {}

    def test_writer_rejects_scores_of_different_widths(self, tmp_path):
        records = [record_of([ex.Explanation(0, "l2x", np.zeros(3), (0,), 1)]),
                   record_of([ex.Explanation(1, "l2x", np.zeros(4), (0,), 1)])]
        with pytest.raises(ValueError, match="one width"):
            ex.write_jsonl(records, tmp_path / "e.jsonl")
        assert not (tmp_path / "e.jsonl").exists()

    def test_blank_lines_skipped_and_crlf_accepted(self, tmp_path):
        lines = self._lines(tmp_path, n=3)
        (tmp_path / "f.jsonl").write_bytes(("\r\n".join(["", lines[0], "  ", *lines[1:]])).encode())
        back = ex.read_jsonl(tmp_path / "f.jsonl")
        assert back["l2x"].ids.tolist() == [0, 1, 2]

    def _lines(self, tmp_path, n=5):
        ex.write_jsonl(mixed_explanations(), tmp_path / "e.jsonl")
        return (tmp_path / "e.jsonl").read_text().splitlines()[:n]

    def _write(self, tmp_path, lines):
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        return tmp_path / "bad.jsonl"

    @pytest.mark.parametrize("line, edit, message", [
        (3, lambda t: t[: len(t) // 2], "bad JSON"),
        (2, lambda t: t.replace('"scores"', '"score"'), "lacks key 'scores'"),
        (4, lambda t: t.replace('"id": 3', '"id": "3"'), "'id' is not a JSON integer"),
        (1, lambda t: t.replace('"method": "l2x"', '"method": 7'), "'method' is not a JSON string"),
        (5, lambda t: t.replace('"selected": [', '"selected": ["a", '), "'selected' holds a non-integer"),
        (2, lambda t: t.replace('"scores": [', '"scores": [1.5, '), "width differs from the first record's 10"),
        (2, lambda t: t + " " + t, "bad JSON"),
        (3, lambda t: "[1, 2]", "exactly one JSON object"),
        (4, lambda t: t.replace('"id": 3', '"id": 99999999999999999999'), "'id' does not fit"),
        (2, lambda t: t.replace('"id": 1', '"id": -9223372036854775809'), "'id' does not fit"),
        (5, lambda t: t.rsplit('"ns": ', 1)[0] + '"ns": 99999999999999999999}', "'ns' does not fit"),
        (3, lambda t: json.dumps({**json.loads(t), "selected": [4, 1, 4]}), r"'selected' \[4, 1, 4\] repeats"),
        (2, lambda t: json.dumps({**json.loads(t), "selected": [0, 1, 10]}),
         r"'selected' \[0, 1, 10\] holds an index outside \[0, 10\)"),
        (4, lambda t: json.dumps({**json.loads(t), "selected": [0, 1, 2**64]}),
         r"'selected' \[0, 1, 18446744073709551616\] holds an index outside"),
    ])
    def test_malformed_line_names_its_number(self, tmp_path, line, edit, message):
        lines = self._lines(tmp_path)
        lines[line - 1] = edit(lines[line - 1])
        with pytest.raises(JsonlFormatError, match=f"{message}.*line {line}"):
            ex.read_jsonl(self._write(tmp_path, lines))

    @pytest.mark.parametrize("lines", [(1,), (1, 2, 3, 4, 5)], ids=["first", "every"])
    def test_empty_selection_rejected_with_line(self, tmp_path, lines):
        text = self._lines(tmp_path)
        for line in lines:
            text[line - 1] = json.dumps({**json.loads(text[line - 1]), "selected": []})
        with pytest.raises(JsonlFormatError, match=r"'selected' \[\] is empty.*line 1"):
            ex.read_jsonl(self._write(tmp_path, text))

    def test_selection_equal_to_an_earlier_one_is_still_type_checked(self, tmp_path):
        lines = self._lines(tmp_path, n=3)
        first = json.loads(lines[0])["selected"]
        lines[2] = json.dumps({**json.loads(lines[2]), "selected": [float(first[0]), *first[1:]]})
        with pytest.raises(JsonlFormatError, match="'selected' holds a non-integer.*line 3"):
            ex.read_jsonl(self._write(tmp_path, lines))

    def test_int64_extremes_read_back(self, tmp_path):
        lines = self._lines(tmp_path, n=2)
        lines[0] = lines[0].replace('"id": 0', f'"id": {-2**63}')
        lines[1] = lines[1].rsplit('"ns": ', 1)[0] + f'"ns": {2**63 - 1}}}'
        back = ex.read_jsonl(self._write(tmp_path, lines))["l2x"]
        assert back.ids.tolist() == [-2**63, 1] and back.ns[1] == 2**63 - 1

    @pytest.mark.parametrize("value", ["0.5", None, [1.0], {}])
    def test_non_number_score_rejected(self, tmp_path, value):
        lines = self._lines(tmp_path)
        record = json.loads(lines[2])
        record["scores"] = [value] * len(record["scores"])
        lines[2] = json.dumps(record)
        with pytest.raises(JsonlFormatError, match="non-number.*line 3"):
            ex.read_jsonl(self._write(tmp_path, lines))

    def test_errors_in_later_blocks_name_the_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 3)
        lines = self._lines(tmp_path, n=12)
        lines[9] = lines[9][:-5]
        with pytest.raises(JsonlFormatError, match="bad JSON.*line 11"):
            ex.read_jsonl(self._write(tmp_path, ["", *lines]))

    def test_non_utf8_byte_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 4)
        lines = self._lines(tmp_path, n=10)
        data = ("\n".join(lines) + "\n").encode()
        at = data.index(b'"method"', data.index(b"\n", data.index(b'"id": 6')))
        (tmp_path / "bad.jsonl").write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(JsonlFormatError, match="not UTF-8.*line 8"):
            ex.read_jsonl(tmp_path / "bad.jsonl")

    def test_utf8_method_names_read_back(self, tmp_path):
        record = mixed_explanations()[0]
        renamed = ex.Explanations("l2x-é", record.ids, record.scores, record.selected, record.ns)
        path = tmp_path / "e.jsonl"
        path.write_text(reference_jsonl([renamed]).decode().replace("\\u00e9", "é"), encoding="utf-8")
        assert_records_equal(ex.read_jsonl(path)["l2x-é"], renamed)
