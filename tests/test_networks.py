"""The network class in its three roles, and the model byte format."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import datasets, training
from l2x import networks as nw
from l2x.errors import ModelFormatError, ModelVersionError
from l2x.explain import ALL_METHODS
from l2x.pipeline import explain_dataset, posthoc_for


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

    @pytest.mark.parametrize("widths", [(4, 3.5, 2), (4.0, 8, 2), (4, True, 2), (4, "8", 2)])
    def test_rejects_non_integer_widths(self, widths):
        with pytest.raises(ValueError, match="widths must be integers"):
            nw.MlpSpec(widths, head="softmax")

    def test_numpy_integer_widths_become_ints(self):
        spec = nw.MlpSpec(tuple(np.array([4, 8, 2])), head="softmax")
        assert spec.layer_widths == (4, 8, 2) and all(type(w) is int for w in spec.layer_widths)

    def test_split_gives_views_of_a_flat_array_in_layout_order(self):
        spec = nw.MlpSpec((3, 4, 2), head="softmax")
        flat = np.arange(float(spec.size))
        views = spec.split(flat)
        assert [(name, view.shape) for name, view in views.items()] == spec.layout()
        assert all(view.base is flat for view in views.values())
        assert np.concatenate([view.ravel() for view in views.values()]).tobytes() == flat.tobytes()
        for bad in (np.zeros(spec.size - 1), np.zeros((1, spec.size))):
            with pytest.raises(ValueError, match="flat array of 26 entries"):
                spec.split(bad)

    def test_dict_round_trip(self):
        spec = nw.MlpSpec((10, 200, 200, 10), head="linear")
        assert spec.to_dict() == {"layer_widths": (10, 200, 200, 10), "head": "linear", "activation": "relu"}
        assert nw.MlpSpec.from_dict(spec.to_dict()) == spec


class TestInitialization:
    def test_glorot_bounds_and_zero_bias(self):
        net = nw.build_classifier(30, 5, np.random.default_rng(1), hidden=(20,))
        a0 = np.sqrt(6.0 / (30 + 20))
        w0 = net.views["w0"]
        assert w0.shape == (30, 20)
        assert np.all(np.abs(w0) < a0)
        np.testing.assert_array_equal(net.views["b0"], np.zeros(20))
        np.testing.assert_array_equal(net.views["b1"], np.zeros(5))

    def test_seeded_init_is_reproducible(self):
        for build in BUILDERS.values():
            p1, p2 = build(np.random.default_rng(7), (9,)), build(np.random.default_rng(7), (9,))
            assert p1.buffer.tobytes() == p2.buffer.tobytes()

    def test_weights_are_drawn_in_layout_order(self):
        net = nw.build_variational(6, 2, np.random.default_rng(7), hidden=(9, 4))
        rng = np.random.default_rng(7)
        for name, shape in net.spec.layout():
            if name[0] == "w":
                a = np.sqrt(6.0 / sum(shape))
                assert net.views[name].tobytes() == rng.uniform(-a, a, size=shape).tobytes(), name


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
        with pytest.raises(ValueError, match="classifier requires a softmax head"):
            nw.Mlp("classifier", spec_lin, np.zeros(spec_lin.size))
        with pytest.raises(ValueError, match="variational requires a softmax head"):
            nw.Mlp("variational", spec_lin, np.zeros(spec_lin.size))
        spec_sm = nw.MlpSpec((4, 8, 4), head="softmax")
        with pytest.raises(ValueError, match="explainer requires a linear head"):
            nw.Mlp("explainer", spec_sm, np.zeros(spec_sm.size))
        spec_bad = nw.MlpSpec((4, 8, 3), head="linear")
        with pytest.raises(ValueError, match="score per feature"):
            nw.Mlp("explainer", spec_bad, np.zeros(spec_bad.size))

    @pytest.mark.parametrize("kind", ["mlp", "Classifier", "", None, ["classifier"]])
    def test_unknown_kind_rejected(self, kind):
        spec = nw.MlpSpec((4, 8, 3), head="softmax")
        with pytest.raises(ValueError, match="unknown network kind"):
            nw.Mlp(kind, spec, np.zeros(spec.size))

    @pytest.mark.parametrize("shape", [(66,), (68,), (1, 67), (67, 1), ()],
                             ids=["short", "long", "row", "column", "scalar"])
    def test_buffer_of_another_length_or_rank_rejected(self, shape):
        # such a network would be saved, and its checkpoint then rejected by load_model
        spec = nw.MlpSpec((4, 8, 3), head="softmax")
        assert spec.size == 67
        with pytest.raises(ValueError, match="expected a flat array of 67 entries"):
            nw.Mlp("classifier", spec, np.zeros(shape))

    def test_parameters_are_copied_into_the_buffer(self):
        spec = nw.MlpSpec((4, 8, 3), head="softmax")
        given = np.random.default_rng(0).normal(size=spec.size)
        net = nw.Mlp("classifier", spec, given)
        assert net.buffer.tobytes() == given.tobytes() and net.buffer.dtype == np.float64
        assert [(name, view.shape) for name, view in net.views.items()] == spec.layout()
        assert all(view.base is net.buffer for view in net.views.values())
        given[...] = 0.0  # the network keeps its own copy
        assert net.views["w0"].any()

    @pytest.mark.parametrize("role", ["classifier", "explainer", "variational"])
    def test_build_returns_an_mlp_of_its_role(self, role):
        net = BUILDERS[role](np.random.default_rng(0), (6, 6))
        assert type(net) is nw.Mlp and net.kind == role
        assert net.spec.head == nw.ROLES[role] and net.eval_count == 0
        assert net.spec.layer_widths == (10, 6, 6, {"explainer": 10}.get(role, 2))

    @pytest.mark.parametrize("role", ["classifier", "explainer", "variational"])
    def test_eval_count_grows_by_the_rows_of_every_pass(self, role):
        net = BUILDERS[role](np.random.default_rng(1), (6, 6))
        x = np.random.default_rng(2).normal(size=(7, 10))
        net.forward(x)
        assert net.eval_count == 7
        net.forward(x[0])
        assert net.eval_count == 8
        net.forward_tensor(ad.constant(x[:3]))
        assert net.eval_count == 11
        net.logits_tensor(ad.constant(x[:2]))
        assert net.eval_count == 13
        net.predict_proba(x[:4])
        net.scores(x[:2])
        assert net.eval_count == 19
        net.reset_eval_count()
        assert net.eval_count == 0


class TestTapeTensors:
    """``Mlp.params`` is made only when the tape asks, then kept, over the network's own buffer."""

    def test_train_save_load_and_explain_make_no_tape_tensor(self, tmp_path):
        x, _, y, _ = datasets.as_arrays(datasets.generate("xor", 240, 3))
        cfg = training.TrainConfig(k=2, batch_size=80, epochs=2, warmup_epochs=1, seed=2, classifier_hidden=(8, 8),
                                   explainer_hidden=(6,), variational_hidden=(6, 6))
        clf, _ = training.train_classifier(x, y, cfg)
        ex, var, _ = training.train_l2x(x, clf, cfg)
        loaded = []
        for net in (clf, ex, var):
            nw.save_model(net, tmp_path / f"{net.kind}.l2x")
            loaded.append(nw.load_model(tmp_path / f"{net.kind}.l2x", kind=net.kind))
        for explainer, classifier in ((ex, clf), loaded[1::-1]):
            for method in ALL_METHODS:
                explanations = explain_dataset(method, x[:50], 2, explainer=explainer, classifier=classifier)
                posthoc_for(classifier, x[:50], explanations)
        for net in (clf, ex, var, *loaded):
            assert "params" not in vars(net), net.kind

    def test_params_are_made_once_over_the_buffer(self):
        net = small_classifier(4)
        x = np.random.default_rng(5).normal(size=(6, 4))
        before = net.forward(x)
        params = net.params
        assert vars(net)["params"] is params and net.params is params
        assert params.names() == list(net.views) and all(t.requires_grad for t in params.values())
        assert all(np.shares_memory(t.data, net.buffer) for t in params.values())
        params["w0"].data[...] = 0.0  # a write through a tape tensor is a write to the network
        assert not net.views["w0"].any()
        assert net.forward(x).tobytes() != before.tobytes()
        assert net.forward(x).tobytes() == nw.Mlp(net.kind, net.spec, net.buffer).forward(x).tobytes()


def one_pass(net, x):
    """The untaped pass over all rows of ``x`` at once: the reference the blocked pass replaces."""
    h = ad.dense_array(x, [t.data for t in net.params.values()])
    return ad.softmax_array(h) if net.spec.head == "softmax" else h


DEFAULT = training.TrainConfig(k=1)  # the default widths
BUILDERS = {
    "classifier": lambda rng, hidden: nw.build_classifier(10, 2, rng, hidden or DEFAULT.classifier_hidden),
    "explainer": lambda rng, hidden: nw.build_explainer(10, rng, hidden or DEFAULT.explainer_hidden),
    "variational": lambda rng, hidden: nw.build_variational(10, 2, rng, hidden or DEFAULT.variational_hidden),
}


class TestBlockedForward:
    """``Mlp.forward`` over blocks of ``BLOCK_ROWS`` rows against one pass over every row."""

    # a block runs other BLAS kernels than the whole matrix, so only the last bits may move
    TOL = 1e-12

    @pytest.mark.parametrize("role", BUILDERS)
    @pytest.mark.parametrize("hidden", [None, (64, 64)], ids=["default", "64x64"])
    def test_blocks_match_one_pass(self, role, hidden):
        rng = np.random.default_rng(21)
        net = BUILDERS[role](rng, hidden)
        block = nw.BLOCK_ROWS
        x = rng.normal(size=(5 * block // 2, 10))
        out = net.forward(x)
        assert out.shape == (len(x), net.spec.output_width) and out.flags.c_contiguous
        np.testing.assert_allclose(out, one_pass(net, x), rtol=self.TOL, atol=self.TOL)
        for start in range(0, len(x), block):  # each block is one pass over its own rows
            assert out[start : start + block].tobytes() == one_pass(net, x[start : start + block]).tobytes()
        for n in (1, 37, block):
            assert net.forward(x[:n]).tobytes() == one_pass(net, x[:n]).tobytes()

    def test_eval_count_grows_by_the_rows(self):
        clf = nw.build_classifier(10, 2, np.random.default_rng(22), hidden=(8, 8))
        x = np.random.default_rng(23).normal(size=(2 * nw.BLOCK_ROWS + 1, 10))
        clf.predict_proba(x)
        assert clf.eval_count == len(x)
        clf.predict_proba(x[:5])
        assert clf.eval_count == len(x) + 5

    def test_empty_single_row_and_three_dimensional_inputs(self):
        clf = nw.build_classifier(10, 2, np.random.default_rng(24), hidden=(8, 8))
        assert clf.forward(np.empty((0, 10))).shape == (0, 2)
        assert clf.eval_count == 0
        with pytest.raises(ValueError, match="width"):
            clf.forward(np.empty((0, 9)))
        x = np.random.default_rng(25).normal(size=(nw.BLOCK_ROWS + 3, 10))
        assert clf.forward(x[7]).tobytes() == clf.forward(x[7:8])[0].tobytes()
        for rows in (2, nw.BLOCK_ROWS + 3):
            with pytest.raises(ValueError, match=rf"expected \(batch, d\) input, got shape \({rows}, 1, 10\)"):
                clf.forward(x[:rows, None, :])

    def test_traced_peak_stays_within_a_few_blocks(self):
        # one pass over 20k rows held 64.9 MiB of (n, 200) activations; blocks need about 3.7
        clf = nw.build_classifier(10, 2, np.random.default_rng(26), DEFAULT.classifier_hidden)
        x = np.random.default_rng(27).normal(size=(20_000, 10))
        tracemalloc.start()
        try:
            clf.predict_proba(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestSerialization:
    def test_round_trip_identity(self):
        for build, args in [
            (nw.build_classifier, (5, 3)),
            (nw.build_explainer, (5,)),
            (nw.build_variational, (5, 2)),
        ]:
            net = build(*args, np.random.default_rng(20), hidden=(6, 7))
            again = nw.deserialize(nw.serialize(net))
            assert type(again) is nw.Mlp and again.kind == net.kind
            assert again.spec == net.spec
            for name in net.params.names():
                np.testing.assert_array_equal(again.params[name].data, net.params[name].data)

    def test_built_parameters_are_views_of_one_buffer_in_layout_order(self):
        net = nw.build_variational(5, 2, np.random.default_rng(21), hidden=(6, 7))
        assert net.params.names() == [name for name, _ in net.spec.layout()]
        block = net.params["w0"].data.base
        assert block.ndim == 1 and all(t.data.base is block for t in net.params.values())
        assert block.tobytes() == b"".join(t.data.tobytes() for t in net.params.values())
        assert block is net.buffer
        blob = nw.serialize(net)
        assert blob.endswith(block.tobytes())
        again = nw.deserialize(blob)  # the same one-buffer layout, the same bytes
        assert again.params.names() == net.params.names()
        assert again.buffer.ndim == 1 and all(t.data.base is again.buffer for t in again.params.values())
        assert again.buffer.tobytes() == block.tobytes() and again.buffer.flags.writeable
        assert nw.serialize(again) == blob

    def test_trained_networks_serialize_as_float64_v1_and_reload_bit_exact(self):
        # training computes in float32 inside each pass; the weights it keeps are float64
        rng = np.random.default_rng(23)
        x = rng.normal(size=(120, 4))
        y = (x[:, 0] > 0).astype(int)
        cfg = training.TrainConfig(k=2, batch_size=40, epochs=2, warmup_epochs=1, seed=4, classifier_hidden=(8, 8, 8),
                                   explainer_hidden=(6, 6), variational_hidden=(6, 6, 6))
        clf, _ = training.train_classifier(x, y, cfg)
        ex, var, _ = training.train_l2x(x, clf, cfg)
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

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(kind="explainer"), "explainer requires a linear head"),
        (lambda h: h.update(kind="forest"), "unknown network kind 'forest'"),
        (lambda h: h["spec"].update(head="linear"), "classifier requires a softmax head"),
        (lambda h: h["spec"].update(layer_widths=[4, 8.5, 8, 8, 3]), "widths must be integers"),
        (lambda h: h["tensors"][0].update(shape=[4, 8.0]), "tensor shapes must be integers"),
        (lambda h: h.update(spec=5), "spec must be a JSON object"),
    ], ids=["kind-contradicts-head", "unknown-kind", "head-contradicts-kind", "fractional-width",
            "float-shape", "spec-not-an-object"])
    def test_header_fault_is_a_format_error_at_the_header(self, edit, message):
        blob = nw.serialize(small_classifier())
        size = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + size])
        edit(header)
        text = json.dumps(header).encode()
        with pytest.raises(ModelFormatError, match=message) as exc:
            nw.deserialize(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + size :])
        assert exc.value.offset == 12

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

    def test_refusing_a_claimed_size_allocates_nothing_of_it(self):
        # a 320-byte checkpoint claiming 4,028,002 parameters once cost a 32.2 MB offset table before the refusal
        spec = nw.MlpSpec((10, 2000, 2000, 2), "softmax")
        header = json.dumps({"kind": "classifier", "spec": spec.to_dict(),
                             "tensors": [{"name": name, "shape": list(shape)} for name, shape in spec.layout()]},
                            sort_keys=True, separators=(",", ":")).encode()
        blob = b"L2XM" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header
        blob += bytes(320 - len(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="truncated payload for tensor 'w0'") as exc:
                nw.deserialize(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.offset == 320 and peak < 2**20

    def test_corrupt_header(self):
        blob = bytearray(nw.serialize(small_classifier()))
        blob[14] = 0xFF
        with pytest.raises(ModelFormatError):
            nw.deserialize(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = nw.serialize(small_classifier())
        with pytest.raises(ModelFormatError, match="trailing"):
            nw.deserialize(blob + b"\x00" * 8)

    def test_payload_faults_are_those_a_walk_tensor_by_tensor_finds(self):
        # the tensor region is checked in one piece; a fault names the tensor and byte a per-tensor walk would
        clf = small_classifier()
        blob = nw.serialize(clf)
        start = len(blob) - 8 * clf.buffer.size

        def walk(payload):
            cursor = start
            for name, shape in clf.spec.layout():
                end = cursor + 8 * math.prod(shape)
                if end > len(payload):
                    return f"truncated payload for tensor {name!r}", len(payload)
                bad = np.flatnonzero(~np.isfinite(np.frombuffer(payload[cursor:end], dtype="<f8")))
                if bad.size:
                    return f"tensor {name!r} holds a non-finite value", cursor + 8 * int(bad[0])
                cursor = end
            return "trailing bytes after final tensor", cursor

        nan = np.array([np.nan], dtype="<f8").tobytes()
        cases = [blob[:cut] for cut in range(start, len(blob))] + [blob + b"\0" * 3, blob + nan]
        for at in range(start, len(blob), 8):  # a NaN at every entry, then cut short in its tensor or the next
            bad = blob[:at] + nan + blob[at + 8 :]
            cases += [bad, bad[: at + 4], bad[: at + 13]]
        for payload in cases:
            with pytest.raises(ModelFormatError) as exc:
                nw.deserialize(payload)
            message, offset = walk(payload)
            assert str(exc.value) == f"{message} (at byte offset {offset})" and exc.value.offset == offset

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
