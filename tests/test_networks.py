"""Network wrappers and the model byte format."""

from __future__ import annotations

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import networks as nw
from l2x import training
from l2x.errors import ModelFormatError, ModelVersionError


def small_classifier(seed=0, d=4, c=3):
    return nw.build_classifier(d, c, np.random.default_rng(seed), hidden=(8, 8, 8))


class TestMlpSpec:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden"):
            nw.MlpSpec((4, 2), head="softmax")

    def test_rejects_unknown_head_and_activation(self):
        with pytest.raises(ValueError, match="head"):
            nw.MlpSpec((4, 8, 2), head="tanh")
        with pytest.raises(ValueError, match="relu"):
            nw.MlpSpec.from_dict({"layer_widths": [4, 8, 2], "head": "softmax", "activation": "gelu"})

    def test_dict_round_trip(self):
        spec = nw.MlpSpec((10, 200, 200, 10), head="linear")
        assert spec.to_dict() == {"layer_widths": (10, 200, 200, 10), "head": "linear", "activation": "relu"}
        assert nw.MlpSpec.from_dict(spec.to_dict()) == spec


class TestInitialization:
    def test_glorot_bounds_and_zero_bias(self):
        spec = nw.MlpSpec((30, 20, 5), head="softmax")
        params = nw.init_params(spec, np.random.default_rng(1))
        a0 = np.sqrt(6.0 / (30 + 20))
        w0 = params["w0"].data
        assert w0.shape == (30, 20)
        assert np.all(np.abs(w0) < a0)
        np.testing.assert_array_equal(params["b0"].data, np.zeros(20))

    def test_seeded_init_is_reproducible(self):
        spec = nw.MlpSpec((6, 9, 2), head="softmax")
        p1 = nw.init_params(spec, np.random.default_rng(7))
        p2 = nw.init_params(spec, np.random.default_rng(7))
        for name in p1.names():
            np.testing.assert_array_equal(p1[name].data, p2[name].data)


class TestForward:
    def test_classifier_rows_on_simplex(self):
        clf = small_classifier()
        x = np.random.default_rng(2).normal(size=(17, 4))
        probs = clf.predict_proba(x)
        assert probs.shape == (17, 3)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_weight_classifier_is_uniform(self):
        clf = small_classifier()
        for _, t in clf.params.items():
            t.data[...] = 0.0
        probs = clf.predict_proba(np.ones((3, 4)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_zero_weight_explainer_scores_are_zero(self):
        ex = nw.build_explainer(5, np.random.default_rng(0), hidden=(6, 6))
        for _, t in ex.params.items():
            t.data[...] = 0.0
        np.testing.assert_array_equal(ex.scores(np.ones(5)), np.zeros(5))

    def test_forward_paths_agree(self):
        clf = small_classifier(3)
        x = np.random.default_rng(4).normal(size=(9, 4))
        taped = clf.forward_tensor(ad.constant(x)).data
        plain = clf.forward(x)
        np.testing.assert_array_equal(taped, plain)

    def test_logits_stop_before_the_head(self):
        clf = small_classifier(3)
        x = np.random.default_rng(4).normal(size=(9, 4))
        logits = clf.logits_tensor(ad.constant(x)).data
        assert clf.eval_count == 9
        np.testing.assert_array_equal(ad.softmax(ad.constant(logits)).data, clf.forward(x))
        assert clf.eval_count == 18  # forward counts its rows too

    @pytest.mark.parametrize("build", [
        lambda rng: nw.build_classifier(4, 3, rng, hidden=(8, 8, 8)),
        lambda rng: nw.build_explainer(4, rng, hidden=(8, 8)),
        lambda rng: nw.build_variational(4, 2, rng, hidden=(8, 8, 8)),
    ], ids=["classifier", "explainer", "variational"])
    def test_forward_is_the_taped_pass_bit_for_bit(self, build):
        rng = np.random.default_rng(11)
        net = build(rng)
        x = rng.normal(size=(20, 4))
        x[0] = 0.0
        logits = net.logits_tensor(ad.constant(x))
        taped = ad.softmax(logits).data if net.spec.head == "softmax" else logits.data
        assert net.forward(x).tobytes() == taped.tobytes()

    def test_single_row_convenience(self):
        clf = small_classifier(5)
        x = np.random.default_rng(6).normal(size=4)
        row = clf.forward(x)
        batch = clf.forward(x[None, :])
        assert row.shape == (3,)
        np.testing.assert_array_equal(row, batch[0])

    def test_deterministic_scores(self):
        ex = nw.build_explainer(4, np.random.default_rng(8), hidden=(7, 7))
        x = np.random.default_rng(9).normal(size=(5, 4))
        np.testing.assert_array_equal(ex.scores(x), ex.scores(x))

    def test_width_mismatch_raises(self):
        clf = small_classifier()
        with pytest.raises(ValueError, match="width"):
            clf.predict_proba(np.ones((2, 5)))

    def test_eval_count_tracks_rows(self):
        clf = small_classifier()
        assert clf.eval_count == 0
        clf.predict_proba(np.ones((6, 4)))
        clf.predict_proba(np.ones(4))
        assert clf.eval_count == 7
        clf.forward_tensor(ad.constant(np.ones((2, 4))))
        assert clf.eval_count == 9
        clf.reset_eval_count()
        assert clf.eval_count == 0
        with pytest.raises(ValueError, match="width"):
            clf.predict_proba(np.ones((2, 5)))
        assert clf.eval_count == 0  # a row that fails the checks is not evaluated

    def test_permutation_equivariance(self):
        # permuting input features together with first-layer weight rows
        # leaves the computation identical
        ex = nw.build_explainer(6, np.random.default_rng(10), hidden=(9, 9))
        x = np.random.default_rng(11).normal(size=(4, 6))
        base = ex.scores(x)
        perm = np.random.default_rng(12).permutation(6)
        ex.params["w0"].data[...] = ex.params["w0"].data[perm, :]
        # permuted matmul sums in a different order: equal up to rounding
        np.testing.assert_allclose(ex.scores(x[:, perm]), base, atol=1e-12)

    def test_role_head_contracts(self):
        spec_lin = nw.MlpSpec((4, 8, 3), head="linear")
        with pytest.raises(ValueError, match="softmax"):
            nw.Classifier(spec_lin, nw.init_params(spec_lin, np.random.default_rng(0)))
        spec_sm = nw.MlpSpec((4, 8, 4), head="softmax")
        with pytest.raises(ValueError, match="linear"):
            nw.Explainer(spec_sm, nw.init_params(spec_sm, np.random.default_rng(0)))
        spec_bad = nw.MlpSpec((4, 8, 3), head="linear")
        with pytest.raises(ValueError, match="score per feature"):
            nw.Explainer(spec_bad, nw.init_params(spec_bad, np.random.default_rng(0)))


class TestSerialization:
    def test_round_trip_identity(self):
        for build, args in [
            (nw.build_classifier, (5, 3)),
            (nw.build_explainer, (5,)),
            (nw.build_variational, (5, 2)),
        ]:
            net = build(*args, np.random.default_rng(20), hidden=(6, 7))
            again = nw.deserialize(nw.serialize(net))
            assert type(again) is type(net)
            assert again.spec == net.spec
            for name in net.params.names():
                np.testing.assert_array_equal(again.params[name].data, net.params[name].data)

    def test_trained_networks_serialize_as_float64_v1_and_reload_bit_exact(self):
        # training computes in float32 inside each pass; the weights it keeps are float64
        rng = np.random.default_rng(23)
        x = rng.normal(size=(120, 4))
        y = (x[:, 0] > 0).astype(int)
        cfg = training.TrainConfig(k=2, batch_size=40, epochs=2, warmup_epochs=1, seed=4)
        clf, _ = training.train_classifier(x, y, cfg, hidden=(8, 8, 8))
        ex, var, _ = training.train_l2x(x, clf, cfg, explainer_hidden=(6, 6), variational_hidden=(6, 6, 6))
        for net in (clf, ex, var):
            blob = nw.serialize(net)
            assert blob[4:8] == (1).to_bytes(4, "little")
            values = [t.data for t in net.params.values()]
            assert {v.dtype for v in values} == {np.dtype(np.float64)}
            payload = b"".join(v.astype("<f8").tobytes() for v in values)
            assert blob.endswith(payload)
            again = nw.deserialize(blob)
            for name, t in net.params.items():
                assert again.params[name].data.tobytes() == t.data.tobytes(), (net.kind, name)

    def test_file_round_trip(self, tmp_path):
        net = small_classifier(21)
        path = tmp_path / "model.l2x"
        nw.save_model(net, path)
        again = nw.load_model(path)
        x = np.random.default_rng(22).normal(size=(3, 4))
        np.testing.assert_array_equal(again.forward(x), net.forward(x))

    def test_load_checks_kind(self, tmp_path):
        path = tmp_path / "model.l2x"
        nw.save_model(small_classifier(), path)
        assert nw.load_model(path, kind="classifier").kind == "classifier"
        with pytest.raises(ModelFormatError, match="holds a classifier network; expected kind 'explainer'"):
            nw.load_model(path, kind="explainer")

    def test_bad_magic(self):
        blob = bytearray(nw.serialize(small_classifier()))
        blob[:4] = b"NOPE"
        with pytest.raises(ModelFormatError, match="magic"):
            nw.deserialize(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(nw.serialize(small_classifier()))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ModelVersionError, match="version 99"):
            nw.deserialize(bytes(blob))

    def test_truncation_reports_offset_and_loads_nothing(self):
        blob = nw.serialize(small_classifier())
        with pytest.raises(ModelFormatError, match="truncated") as exc:
            nw.deserialize(blob[: len(blob) - 100])
        assert exc.value.offset == len(blob) - 100

    def test_corrupt_header(self):
        blob = bytearray(nw.serialize(small_classifier()))
        blob[14] = 0xFF
        with pytest.raises(ModelFormatError):
            nw.deserialize(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = nw.serialize(small_classifier())
        with pytest.raises(ModelFormatError, match="trailing"):
            nw.deserialize(blob + b"\x00" * 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_at_its_offset(self, value):
        clf = small_classifier()
        blob = nw.serialize(clf)
        start = len(blob) - 8 * sum(t.data.size for t in clf.params.values())
        at = start + 8 * (clf.params["w0"].data.size + 3)  # b0[3]
        bad = blob[:at] + np.array([value], dtype="<f8").tobytes() + blob[at + 8:]
        with pytest.raises(ModelFormatError, match="'b0' holds a non-finite value") as exc:
            nw.deserialize(bad)
        assert exc.value.offset == at
