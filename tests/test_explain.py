"""Explanation interface: learned selector plus the two gradient baselines."""

from __future__ import annotations

import json

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import explain as ex
from l2x.errors import JsonlFormatError
from l2x.networks import Classifier, MlpSpec, build_classifier, build_explainer, init_params
from l2x.pipeline import explain_dataset


def linear_classifier(w):
    """Net that is exactly linear on |x| < 1000: logits = x @ w.

    The hidden layer forwards x + 1000 through an always-active relu and
    the output bias cancels the shift, so input gradients equal w.
    """
    w = np.asarray(w, dtype=np.float64)
    d, c = w.shape
    spec = MlpSpec((d, d, c), head="softmax")
    params = init_params(spec, np.random.default_rng(0))
    params["w0"].data[...] = np.eye(d)
    params["b0"].data[...] = 1000.0
    params["w1"].data[...] = w
    params["b1"].data[...] = -1000.0 * w.sum(axis=0)
    return Classifier(spec, params)


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
        e = ex.explain_saliency(clf, x, k=2)
        cls = int(np.argmax(clf.predict_proba(x)))
        np.testing.assert_allclose(e.scores, np.abs(w[:, cls]), atol=1e-12)
        assert e.selected == (0, 2)
        assert e.method == "saliency"

    def test_ignored_feature_scores_zero(self):
        w = np.array([[1.0, -1.0], [0.0, 0.0]])
        clf = linear_classifier(w)
        e = ex.explain_saliency(clf, np.array([5.0, 123.0]), k=1)
        assert e.scores[1] == 0.0
        assert e.selected == (0,)

    def test_counts_classifier_evaluations(self):
        clf = build_classifier(4, 2, np.random.default_rng(6), hidden=(5, 5, 5))
        clf.reset_eval_count()
        ex.explain_saliency(clf, np.ones(4), k=1)
        assert clf.eval_count >= 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        clf = build_classifier(5, 3, rng, hidden=(8, 8, 8))
        x = rng.normal(size=5)
        e = ex.explain_saliency(clf, x, k=2)
        cls = int(np.argmax(clf.predict_proba(x)))

        def logit(v):
            h = v[None, :]
            n = len(clf.spec.layer_widths) - 1
            for i in range(n):
                z = h @ clf.params[f"w{i}"].data + clf.params[f"b{i}"].data
                h = z * (z > 0) if i < n - 1 else z
            return h[0, cls]

        step = 1e-6
        for i in range(5):
            up, down = x.copy(), x.copy()
            up[i] += step
            down[i] -= step
            numeric = (logit(up) - logit(down)) / (2 * step)
            assert abs(abs(numeric) - e.scores[i]) < 1e-5 * (1 + abs(numeric))


class TestExplainTaylor:
    def test_linear_model_gives_signed_products(self):
        w = np.array([[2.0, -2.0], [-1.0, 1.0], [0.5, -0.5]])
        clf = linear_classifier(w)
        x = np.array([1.0, -2.0, 4.0])
        e = ex.explain_taylor(clf, x, k=2)
        cls = int(np.argmax(clf.predict_proba(x)))
        np.testing.assert_allclose(e.scores, x * w[:, cls], atol=1e-12)
        assert e.method == "taylor"

    def test_absolute_variant(self):
        w = np.array([[2.0, -2.0], [-1.0, 1.0], [0.5, -0.5]])
        clf = linear_classifier(w)
        x = np.array([1.0, -2.0, 4.0])
        signed = ex.explain_taylor(clf, x, k=2)
        unsigned = ex.explain_taylor(clf, x, k=2, absolute=True)
        np.testing.assert_allclose(unsigned.scores, np.abs(signed.scores))
        assert unsigned.method == "taylor-abs"

    def test_zero_input_ties_break_to_lowest_indices(self):
        clf = build_classifier(6, 2, np.random.default_rng(8), hidden=(5, 5, 5))
        e = ex.explain_taylor(clf, np.zeros(6), k=3)
        np.testing.assert_array_equal(e.scores, np.zeros(6))
        assert e.selected == (0, 1, 2)

    def test_selected_always_k_distinct_in_range(self):
        rng = np.random.default_rng(9)
        clf = build_classifier(7, 2, rng, hidden=(6, 6, 6))
        explainer = build_explainer(7, rng, hidden=(6, 6))
        for k in (1, 3, 7):
            x = rng.normal(size=7)
            for e in (
                ex.explain_l2x(explainer, x, k),
                ex.explain_saliency(clf, x, k),
                ex.explain_taylor(clf, x, k),
            ):
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


class TestBatchedExplanations:
    """Every row of one batched pass against the one-row-at-a-time path."""

    @pytest.mark.parametrize("width", [64, 200])
    def test_gradient_baselines_match_per_row(self, width):
        rng = np.random.default_rng(width)
        clf = build_classifier(10, 2, rng, hidden=(width, width, width))
        x = rng.normal(size=(500, 10))
        k, tol = 4, 1e-12
        for method, single in (("saliency", ex.explain_saliency), ("taylor", ex.explain_taylor)):
            clf.reset_eval_count()
            batched = explain_dataset(method, x, k, classifier=clf)
            assert clf.eval_count == 500
            for i, e in enumerate(batched):
                grad = row_gradient(clf, x[i])
                by_hand = np.abs(grad) if method == "saliency" else x[i] * grad
                one = single(clf, x[i], k, sample_id=i)
                assert np.abs(e.scores - by_hand).max() <= tol
                assert np.abs(e.scores - one.scores).max() <= tol
                if e.selected != one.selected:
                    top = np.sort(one.scores)[::-1]
                    assert top[k - 1] - top[k] <= tol, f"row {i} differs without a tie"

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


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        explainer = build_explainer(4, rng, hidden=(5, 5))
        items = [ex.explain_l2x(explainer, rng.normal(size=4), 2, sample_id=i) for i in range(5)]
        path = tmp_path / "explanations.jsonl"
        ex.write_jsonl(items, path)
        back = ex.read_jsonl(path)
        assert len(back) == 5
        for a, b in zip(items, back):
            assert a.sample_id == b.sample_id
            assert a.method == b.method
            assert a.selected == b.selected
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.wall_ns == b.wall_ns

    def test_record_schema(self, tmp_path):
        import json

        explainer = build_explainer(3, np.random.default_rng(11), hidden=(4, 4))
        path = tmp_path / "one.jsonl"
        ex.write_jsonl([ex.explain_l2x(explainer, np.ones(3), 2, sample_id=9)], path)
        record = json.loads(path.read_text().strip())
        assert list(record) == ["id", "method", "scores", "selected", "ns"]
        assert record["id"] == 9 and len(record["scores"]) == 3 and len(record["selected"]) == 2


def reference_jsonl(explanations) -> bytes:
    """The per-record writer the column kernel replaced: ``json.dumps`` per record."""
    return "".join(
        json.dumps({
            "id": e.sample_id,
            "method": e.method,
            "scores": [float(s) for s in e.scores],
            "selected": list(e.selected),
            "ns": e.wall_ns,
        }) + "\n"
        for e in explanations
    ).encode()


EDGE_SCORES = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 1.0, 0.1, -7.25e-300, 2.0**60, 1 / 3]


def mixed_explanations():
    """Every method in one list, plus rows with edge, NaN and infinite scores."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 10))
    clf = build_classifier(10, 2, rng, hidden=(6, 6))
    explainer = build_explainer(10, rng, hidden=(6, 6))
    items = [
        *explain_dataset("l2x", x, 3, explainer=explainer),
        *explain_dataset("saliency", x, 3, classifier=clf),
        *explain_dataset("taylor", x, 3, classifier=clf),
        *explain_dataset("taylor-abs", x, 3, classifier=clf),
    ]
    special = [EDGE_SCORES, [np.nan] * 10, [np.inf, -np.inf, *EDGE_SCORES[2:]]]
    items += [ex.Explanation(900 + i, "l2x", np.array(s), (0, 1, 2), 5) for i, s in enumerate(special)]
    return items


class TestJsonlColumnKernel:
    """The whole-column writer and reader against the per-record path they replace."""

    def test_bytes_match_json_dumps_per_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ex, "_BLOCK", 16)  # several blocks and a partial last one
        items = mixed_explanations()
        assert {e.method for e in items} == {"l2x", "saliency", "taylor", "taylor-abs"}
        ex.write_jsonl(items, tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == reference_jsonl(items)

    def test_round_trip_bitwise_including_non_finite(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ex, "_BLOCK", 16)
        items = mixed_explanations()
        ex.write_jsonl(items, tmp_path / "e.jsonl")
        back = ex.read_jsonl(tmp_path / "e.jsonl")
        assert [(e.sample_id, e.method, e.selected, e.wall_ns) for e in back] == [
            (e.sample_id, e.method, e.selected, e.wall_ns) for e in items
        ]
        for a, b in zip(items, back):
            assert a.scores.tobytes() == b.scores.tobytes()

    def test_empty_list_writes_empty_file(self, tmp_path):
        ex.write_jsonl([], tmp_path / "e.jsonl")
        assert (tmp_path / "e.jsonl").read_bytes() == b""
        assert ex.read_jsonl(tmp_path / "e.jsonl") == []

    def test_writer_rejects_scores_of_different_widths(self, tmp_path):
        items = [ex.Explanation(0, "l2x", np.zeros(3), (0,), 1),
                 ex.Explanation(1, "l2x", np.zeros(4), (0,), 1)]
        with pytest.raises(ValueError, match="one width"):
            ex.write_jsonl(items, tmp_path / "e.jsonl")
        assert not (tmp_path / "e.jsonl").exists()

    def test_blank_lines_skipped_and_crlf_accepted(self, tmp_path):
        items = mixed_explanations()[:3]
        ex.write_jsonl(items, tmp_path / "e.jsonl")
        lines = (tmp_path / "e.jsonl").read_text().splitlines()
        (tmp_path / "f.jsonl").write_bytes(("\r\n".join(["", lines[0], "  ", *lines[1:]])).encode())
        back = ex.read_jsonl(tmp_path / "f.jsonl")
        assert [e.sample_id for e in back] == [e.sample_id for e in items]

    def _lines(self, tmp_path, n=5):
        items = mixed_explanations()[:n]
        ex.write_jsonl(items, tmp_path / "e.jsonl")
        return (tmp_path / "e.jsonl").read_text().splitlines()

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
    ])
    def test_malformed_line_names_its_number(self, tmp_path, line, edit, message):
        lines = self._lines(tmp_path)
        lines[line - 1] = edit(lines[line - 1])
        with pytest.raises(JsonlFormatError, match=f"{message}.*line {line}"):
            ex.read_jsonl(self._write(tmp_path, lines))

    @pytest.mark.parametrize("value", ["0.5", None, [1.0], {}])
    def test_non_number_score_rejected(self, tmp_path, value):
        lines = self._lines(tmp_path)
        record = json.loads(lines[2])
        record["scores"] = [value] * len(record["scores"])
        lines[2] = json.dumps(record)
        with pytest.raises(JsonlFormatError, match="non-number.*line 3"):
            ex.read_jsonl(self._write(tmp_path, lines))

    def test_errors_in_later_blocks_name_the_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ex, "_BLOCK", 3)
        lines = self._lines(tmp_path, n=12)
        lines[9] = lines[9][:-5]
        with pytest.raises(JsonlFormatError, match="bad JSON.*line 11"):
            ex.read_jsonl(self._write(tmp_path, ["", *lines]))
