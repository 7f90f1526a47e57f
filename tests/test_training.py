"""Optimizer arithmetic, objective construction, and both training loops."""

from __future__ import annotations

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import training as tr
from l2x.errors import NumericError
from l2x.networks import build_classifier, build_explainer, build_variational
from l2x.pipeline import RunConfig
from l2x.sampling import gumbel_from_uniform


def tiny_setup(seed=0, d=4, c=2, b=3, k=2):
    rng = np.random.default_rng(seed)
    clf = build_classifier(d, c, rng, hidden=(6, 6, 6))
    ex = build_explainer(d, rng, hidden=(5, 5))
    var = build_variational(d, c, rng, hidden=(6, 6, 6))
    x = rng.normal(size=(b, d))
    noise = gumbel_from_uniform(rng.uniform(size=(b, k, d)))
    return clf, ex, var, x, noise


class TestRmsProp:
    def test_first_step_known_value(self):
        params = ad.ParameterSet()
        p = params.add("p", [1.0])
        opt = tr.RmsProp(learning_rate=0.001)
        opt.step(params, {"p": np.array([1.0])})
        # acc = 0.1, delta = -0.001 / (sqrt(0.1) + 1e-7)
        expected = 1.0 - 0.001 / (math.sqrt(0.1) + 1e-7)
        np.testing.assert_allclose(p.data, [expected], atol=1e-15)
        np.testing.assert_allclose(1.0 - p.data[0], 0.0031623, atol=1e-7)

    def test_zero_gradient_is_noop(self):
        params = ad.ParameterSet()
        p = params.add("p", np.arange(4.0))
        before = p.data.copy()
        tr.RmsProp(0.001).step(params, {"p": np.zeros(4)})
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_step_approaches_learning_rate(self):
        params = ad.ParameterSet()
        p = params.add("p", [0.0])
        opt = tr.RmsProp(learning_rate=0.001)
        prev = p.data[0]
        for _ in range(10_000):
            prev = p.data[0]
            opt.step(params, {"p": np.array([2.5])})
        last_delta = abs(p.data[0] - prev)
        np.testing.assert_allclose(last_delta, 0.001, rtol=1e-6)

    def test_accumulator_stays_nonnegative_and_shaped(self):
        params = ad.ParameterSet()
        params.add("w", np.zeros((3, 2)))
        opt = tr.RmsProp(0.001)
        for s in range(5):
            opt.step(params, {"w": np.random.default_rng(s).normal(size=(3, 2))})
        assert opt.acc["w"].shape == (3, 2)
        assert np.all(opt.acc["w"] >= 0)

    def test_step_matches_the_written_formula_bitwise(self):
        rng = np.random.default_rng(3)
        params = ad.ParameterSet()
        params.add("w", rng.normal(size=(4, 3)))
        params.add("b", rng.normal(size=(3,)))
        lr, rho, eps = 0.01, tr.DECAY, tr.EPSILON
        opt = tr.RmsProp(lr)
        ref = {name: t.data.copy() for name, t in params.items()}
        acc = {name: np.zeros_like(v) for name, v in ref.items()}
        for _ in range(6):
            grads = {name: rng.normal(size=v.shape) for name, v in ref.items()}
            given = {name: g.copy() for name, g in grads.items()}
            opt.step(params, grads)
            for name, g in given.items():
                acc[name] = rho * acc[name] + (1.0 - rho) * g * g
                ref[name] = ref[name] - lr * g / (np.sqrt(acc[name]) + eps)
                assert params[name].data.tobytes() == ref[name].tobytes(), name
                assert opt.acc[name].tobytes() == acc[name].tobytes(), name
                assert grads[name].tobytes() == g.tobytes(), "the gradient was modified"

    def test_shape_mismatch_raises(self):
        params = ad.ParameterSet()
        params.add("p", np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            tr.RmsProp(0.001).step(params, {"p": np.zeros(4)})

    def test_hyperparameter_validation(self):
        for learning_rate in (0.0, -0.001, math.nan):
            with pytest.raises(ValueError, match="learning_rate must be positive"):
                tr.RmsProp(learning_rate)


class TestTrainConfig:
    def test_defaults(self):
        cfg = tr.TrainConfig(k=4)
        assert cfg.learning_rate == 0.001
        assert cfg.temperature == 0.1
        assert cfg.batch_size == 1000
        assert cfg.epochs == 10
        assert cfg.warmup_epochs == 2
        assert cfg.classifier_hidden == (200, 200, 200)
        assert cfg.explainer_hidden == (200, 200)
        assert cfg.variational_hidden == (200, 200, 200)
        assert (tr.DECAY, tr.EPSILON) == (0.9, 1e-7)

    @pytest.mark.parametrize("name", ["classifier_hidden", "explainer_hidden", "variational_hidden"])
    @pytest.mark.parametrize("widths", [(), (0,), (5, -1)], ids=["empty", "zero", "negative"])
    def test_widths_validated(self, name, widths):
        with pytest.raises(ValueError, match=f"{name} must be one or more positive widths"):
            tr.TrainConfig(k=2, **{name: widths})

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"k": 2, "epochs": -1}, {"k": 2, "temperature": 0.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"batch_size": 10.5}, "batch_size must be an integer"),
        ({"epochs": 1.5}, "epochs must be an integer"),
        ({"warmup_epochs": 0.5}, "warmup_epochs must be an integer"),
        ({"k": 1.5}, "k must be an integer"),
        ({"seed": 2.0}, "seed must be an integer"),
        ({"epochs": True}, "epochs must be an integer"),
        ({"seed": -1}, "seed must be nonnegative"),
        ({"classifier_hidden": (3.5,)}, "classifier_hidden must be one or more positive widths"),
        ({"explainer_hidden": (8, 8.0)}, "explainer_hidden must be one or more positive widths"),
        ({"variational_hidden": (8, True)}, "variational_hidden must be one or more positive widths"),
    ], ids=["batch-size", "epochs", "warmup-epochs", "k", "seed-float", "epochs-bool", "seed-negative",
            "classifier-width", "explainer-width", "variational-width"])
    def test_counts_are_integers_and_the_seed_nonnegative(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            tr.TrainConfig(**{"k": 2, **kwargs})

    def test_numpy_integers_accepted(self):
        i = np.int64
        cfg = tr.TrainConfig(k=i(2), batch_size=i(10), epochs=i(1), warmup_epochs=i(0), seed=i(3),
                             classifier_hidden=(i(4),), explainer_hidden=tuple(np.array([5, 5])))
        assert cfg.seed == 3 and cfg.explainer_hidden == (5, 5)

    @pytest.mark.parametrize("name", ["learning_rate", "temperature"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            tr.TrainConfig(k=2, **{name: value})

    def test_run_config_is_a_train_config_with_the_same_training_fields(self):
        train_fields = {f.name: f.default for f in dataclasses.fields(tr.TrainConfig)}
        run_fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert issubclass(RunConfig, tr.TrainConfig)
        assert {"classifier_hidden", "explainer_hidden", "variational_hidden"} <= train_fields.keys()
        assert run_fields.pop("k") is None  # filled from the dataset's truth size
        del train_fields["k"]
        assert {name: run_fields[name] for name in train_fields} == train_fields
        cfg = RunConfig(dataset="switch")
        assert cfg.k == 5
        assert {name: getattr(cfg, name) for name in train_fields} == train_fields
        with pytest.raises(ValueError, match="batch_size must be positive"):
            RunConfig(dataset="xor", batch_size=0)
        for rows in (0, 300.5, 1e5):
            with pytest.raises(ValueError, match="n_valid must be a positive integer"):
                RunConfig(dataset="xor", n_valid=rows)
        with pytest.raises(TypeError):
            tr.TrainConfig(2)

    def test_zero_epochs_allowed_and_trains_nothing(self):
        cfg = tr.TrainConfig(k=1, epochs=0, batch_size=4, classifier_hidden=(4, 4, 4))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        clf, report = tr.train_classifier(x, (x[:, 0] > 0).astype(int), cfg)
        assert report.curve == []


def _graph(root) -> list:
    """Every node of the graph under ``root``."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def _recorded(vjp, key, calls: set):
    def recorded(g):
        calls.add(key)
        return vjp(g)
    return recorded


class TestWarmupBackward:
    def test_runs_no_explainer_or_relaxation_vjp_and_matches_full_backward(self, monkeypatch):
        clf, ex, var, x, noise = tiny_setup(seed=4, b=5)
        made = {}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                made[name] = fn(*args, **kwargs)
                return made[name]
            return wrapped

        monkeypatch.setattr(ex, "forward_tensor", recording("scores", ex.forward_tensor))
        monkeypatch.setattr(tr, "batched_relaxed_mask", recording("mask", tr.batched_relaxed_mask))
        root = tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2).root

        calls: set[int] = set()  # ids of the nodes whose vjp ran
        for node in _graph(root):
            if node._vjp is not None:
                node._vjp = _recorded(node._vjp, id(node), calls)
        selector_side = {id(node) for node in _graph(made["mask"])}
        assert {id(made["scores"]), id(made["mask"])} <= selector_side

        variational_only = ad.ParameterSet()
        variational_only.merge("variational", var.params)
        warm = ad.backward(root, variational_only)
        assert calls and not selector_side & calls

        joint = ad.ParameterSet()
        joint.merge("explainer", ex.params)
        joint.merge("variational", var.params)
        calls.clear()
        full = ad.backward(root, joint)
        assert selector_side & calls
        assert warm.keys() == set(variational_only.names())
        for name, g in warm.items():
            assert g.tobytes() == full[name].tobytes(), name


    def test_training_tapes_the_explainer_frozen_in_warmup_epochs(self, monkeypatch):
        # (input requires a gradient, some weight requires one) of each network pass:
        # in warmup the explainer pass has neither, so the variational pass's input
        # (the masked features) needs none and its vjp computes none
        calls, dense = [], ad.dense

        def recording(h, params, *rest):
            calls.append((h.requires_grad, any(getattr(p, "requires_grad", False) for p in params)))
            return dense(h, params, *rest)

        monkeypatch.setattr(ad, "dense", recording)
        x = np.random.default_rng(4).normal(size=(20, 6))
        clf = build_classifier(6, 2, np.random.default_rng(5), hidden=(8, 8, 8))
        cfg = tr.TrainConfig(k=2, epochs=3, warmup_epochs=2, batch_size=10, seed=0,
                             explainer_hidden=(5, 5), variational_hidden=(6, 6, 6))
        tr.train_l2x(x, clf, cfg)
        warm, joint = [(False, False), (False, True)], [(False, True), (True, True)]
        assert calls == warm * 4 + joint * 2


class TestObjective:
    def test_uniform_variational_head_gives_log_c_exactly(self):
        clf, ex, var, x, noise = tiny_setup()
        # zero the variational net entirely: softmax head becomes uniform
        for _, t in var.params.items():
            t.data[...] = 0.0
        est = tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2)
        # equal to within one rounding of the per-row dot product
        assert abs(est.value - (-math.log(2.0))) < 1e-15

    def test_value_never_positive(self):
        for seed in range(10):
            clf, ex, var, x, noise = tiny_setup(seed)
            est = tr.l2x_objective(x, clf, ex, var, noise, temperature=0.1, k=2)
            assert est.value <= 0.0

    def test_class_count_mismatch_raises(self):
        clf, ex, _, x, noise = tiny_setup(c=2)
        var3 = build_variational(4, 3, np.random.default_rng(1), hidden=(6, 6, 6))
        with pytest.raises(ValueError, match="class-count"):
            tr.l2x_objective(x, clf, ex, var3, noise, temperature=0.5, k=2)

    def test_noise_shape_checked(self):
        clf, ex, var, x, noise = tiny_setup()
        with pytest.raises(ValueError, match="noise"):
            tr.l2x_objective(x, clf, ex, var, noise[:, :1, :], temperature=0.5, k=2)

    def test_k_range_checked(self):
        clf, ex, var, x, noise = tiny_setup()
        with pytest.raises(ValueError, match="k must"):
            tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=5)

    def test_gradient_reaches_both_networks(self):
        clf, ex, var, x, noise = tiny_setup()
        joint = ad.ParameterSet()
        joint.merge("explainer", ex.params)
        joint.merge("variational", var.params)
        est = tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2)
        grads = ad.backward(est.root, joint)
        assert any(np.any(grads[n] != 0) for n in grads if n.startswith("explainer"))
        assert any(np.any(grads[n] != 0) for n in grads if n.startswith("variational"))

    def test_descent_on_the_negation_is_the_negated_gradient(self):
        # train_l2x steps on backward(neg(root)) for ascent; rounding is symmetric under negation
        for seed in range(3):
            clf, ex, var, x, noise = tiny_setup(seed, b=5)
            joint = ad.ParameterSet()
            joint.merge("explainer", ex.params)
            joint.merge("variational", var.params)
            root = tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2).root
            ascent, descent = ad.backward(root, joint), ad.backward(ad.neg(root), joint)
            assert descent.keys() == ascent.keys() == set(joint.names())
            for name, g in ascent.items():
                assert np.array_equal(descent[name], -g), name

    def test_exact_conditional_head_attains_negative_conditional_entropy(self):
        # Feed every atom of a small discrete joint through the objective
        # with stub networks: selection pinned to a fixed subset S via the
        # noise, and the variational head replaced by the true conditional
        # P(Y|x_S).  The bound is tight there, so the batch-mean objective
        # must equal -H(Y|X_S) computed by the exact oracle.
        from l2x import oracle as oc

        d, S = 3, (0, 2)
        rng = np.random.default_rng(17)
        xs = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        joint = oc.DiscreteJoint(
            xs, np.full(len(xs), 1.0 / len(xs)), rng.dirichlet(np.ones(2), size=len(xs))
        )
        cond = oc.exact_conditional(joint, S)

        class EnumClassifier:
            def predict_proba(self, x):
                return joint.py_given_x.copy()

        class ZeroExplainer:
            def forward_tensor(self, x):
                return ad.constant(np.zeros(x.shape))

        class ConditionalHead:
            spec = types.SimpleNamespace(output_width=joint.n_classes)

            def forward_tensor(self, masked):
                rows = [cond[tuple(row[list(S)])] for row in masked.data]
                return ad.constant(np.stack(rows))

        # row j of the noise block points hard at S[j]; at tau=0.1 the
        # softmax saturates and the mask is exactly the indicator of S
        b = joint.xs.shape[0]
        noise = np.zeros((b, len(S), d))
        for j, feature in enumerate(S):
            noise[:, j, feature] = 1000.0

        est = tr.l2x_objective(
            joint.xs, EnumClassifier(), ZeroExplainer(), ConditionalHead(),
            noise, temperature=0.1, k=len(S),
        )
        h_y_given_s = oc.entropy(joint.py()) - oc.exact_mutual_information(joint, S)
        assert abs(est.value - (-h_y_given_s)) < 1e-12

    def test_gradient_matches_finite_differences_fixed_noise(self):
        # moderate temperature keeps the relaxation well inside resolvable range
        worst = 0.0
        checked = 0
        for seed in range(5):
            clf, ex, var, x, noise = tiny_setup(seed)
            joint = ad.ParameterSet()
            joint.merge("explainer", ex.params)
            joint.merge("variational", var.params)

            def f():
                return tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2).root

            report = ad.finite_diff_check(f, joint, step=1e-6)
            worst = max(worst, report.max_rel_error)
            checked += report.n_checked
        assert checked > 500
        assert worst < 1e-4


class TestTrainClassifier:
    def test_separable_toy_reaches_high_accuracy(self):
        rng = np.random.default_rng(0)
        n = 2000
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] > 0).astype(int)
        x[:, 0] += np.where(y == 1, 1.0, -1.0)  # widen the margin
        cfg = tr.TrainConfig(k=2, batch_size=100, epochs=5, seed=3, classifier_hidden=(16, 16, 16))
        clf, report = tr.train_classifier(x, y, cfg, x_val=x, y_val=y)
        assert report.val_accuracy > 0.97
        assert len(report.curve) == 5

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 3))
        y = (x.sum(axis=1) > 0).astype(int)
        cfg = tr.TrainConfig(k=1, batch_size=50, epochs=4, seed=0, classifier_hidden=(8, 8, 8))
        _, report = tr.train_classifier(x, y, cfg)
        assert report.curve[-1].objective < report.curve[0].objective

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 3))
        y = (x[:, 1] > 0).astype(int)
        cfg = tr.TrainConfig(k=1, batch_size=64, epochs=2, seed=7, classifier_hidden=(8, 8, 8))
        clf1, _ = tr.train_classifier(x, y, cfg)
        clf2, _ = tr.train_classifier(x, y, cfg)
        for name in clf1.params.names():
            np.testing.assert_array_equal(clf1.params[name].data, clf2.params[name].data)

    def test_overflowing_update_aborts_at_the_end_of_the_epoch(self):
        # one step per epoch, so no later step's checks see the overflowed weights
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = (x[:, 1] > 0).astype(int)
        cfg = tr.TrainConfig(k=1, batch_size=40, epochs=2, learning_rate=1e308, seed=7,
                             classifier_hidden=(8, 8, 8))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericError, match="non-finite in epoch 0"):
                tr.train_classifier(x, y, cfg)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_feature_overflowing_float32_rejected_before_any_step(self, epochs):
        # zero epochs take no step at all; without the check, one epoch would
        # fail on the cast's overflow warning
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        x[7, 2] = 1e39
        cfg = tr.TrainConfig(k=1, batch_size=20, epochs=epochs, classifier_hidden=(8, 8, 8))
        with pytest.raises(NumericError, match=r"feature value 1e\+39 \(row 7, column 2\) overflows float32"):
            tr.train_classifier(x, (x[:, 1] > 0).astype(int), cfg)

    def test_empty_dataset_rejected(self):
        cfg = tr.TrainConfig(k=1, epochs=1)
        with pytest.raises(ValueError, match="nonempty"):
            tr.train_classifier(np.zeros((0, 3)), np.zeros(0, dtype=int), cfg)


class TestTrainL2x:
    def tiny_run(self, seed=0, epochs=2):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(200, 6))
        clf = build_classifier(6, 2, np.random.default_rng(5), hidden=(8, 8, 8))
        cfg = tr.TrainConfig(k=2, batch_size=50, epochs=epochs, seed=seed,
                             explainer_hidden=(8, 8), variational_hidden=(8, 8, 8))
        return x, clf, tr.train_l2x(x, clf, cfg)

    def test_returns_curve_per_epoch(self):
        _, _, (ex, var, report) = self.tiny_run(epochs=3)
        assert [s.epoch for s in report.curve] == [0, 1, 2]
        assert all(s.objective <= 0 for s in report.curve)
        assert all(s.wall_ms > 0 for s in report.curve)

    def test_initial_objective_near_uniform_value(self):
        # with a freshly initialized variational net the first-epoch objective
        # sits near -log 2 (zero biases keep the head close to uniform)
        _, _, (_, _, report) = self.tiny_run(epochs=1)
        assert abs(report.curve[0].objective - (-math.log(2.0))) < 0.1

    def test_classifier_bitwise_frozen(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(120, 6))
        clf = build_classifier(6, 2, np.random.default_rng(5), hidden=(8, 8, 8))
        before = {name: t.data.copy() for name, t in clf.params.items()}
        cfg = tr.TrainConfig(k=2, batch_size=40, epochs=2, seed=0,
                             explainer_hidden=(8, 8), variational_hidden=(8, 8, 8))
        tr.train_l2x(x, clf, cfg)
        for name, arr in before.items():
            np.testing.assert_array_equal(clf.params[name].data, arr)

    def test_deterministic_curve(self):
        _, _, (_, _, r1) = self.tiny_run(seed=9)
        _, _, (_, _, r2) = self.tiny_run(seed=9)
        assert [s.objective for s in r1.curve] == [s.objective for s in r2.curve]

    def test_same_seed_gives_bit_identical_parameters(self):
        (_, _, (ex1, var1, _)), (_, _, (ex2, var2, _)) = (self.tiny_run(seed=9, epochs=4) for _ in range(2))
        for a, b in ((ex1, ex2), (var1, var2)):
            for name, t in a.params.items():
                assert t.data.tobytes() == b.params[name].data.tobytes(), (a.kind, name)

    def test_feature_overflowing_float32_rejected_before_any_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        x[11, 0] = -3.5e38
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        cfg = tr.TrainConfig(k=2, batch_size=20, epochs=0, explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.raises(NumericError, match=r"feature value -3\.5e\+38 \(row 11, column 0\) overflows float32"):
            tr.train_l2x(x, clf, cfg)

    def test_seed_changes_curve(self):
        _, _, (_, _, r1) = self.tiny_run(seed=1)
        _, _, (_, _, r2) = self.tiny_run(seed=2)
        assert [s.objective for s in r1.curve] != [s.objective for s in r2.curve]

    def test_warmup_epochs_freeze_explainer(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 6))
        clf = build_classifier(6, 2, np.random.default_rng(5), hidden=(8, 8, 8))
        cfg = tr.TrainConfig(k=2, epochs=1, warmup_epochs=1, batch_size=10, seed=0,
                             explainer_hidden=(5, 5), variational_hidden=(6, 6, 6))
        ex, var, _ = tr.train_l2x(x, clf, cfg)
        from l2x.networks import build_explainer
        fresh = build_explainer(6, tr.substream(0, "init", 1), hidden=(5, 5))
        for name, t in fresh.params.items():
            np.testing.assert_array_equal(ex.params[name].data, t.data)

    def test_joint_phase_moves_explainer(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 6))
        clf = build_classifier(6, 2, np.random.default_rng(5), hidden=(8, 8, 8))
        cfg = tr.TrainConfig(k=2, epochs=2, warmup_epochs=1, batch_size=10, seed=0,
                             explainer_hidden=(5, 5), variational_hidden=(6, 6, 6))
        ex, _, _ = tr.train_l2x(x, clf, cfg)
        from l2x.networks import build_explainer
        fresh = build_explainer(6, tr.substream(0, "init", 1), hidden=(5, 5))
        assert any(
            np.any(ex.params[name].data != t.data) for name, t in fresh.params.items()
        )

    def test_k_larger_than_d_rejected(self):
        rng = np.random.default_rng(0)
        clf = build_classifier(3, 2, rng, hidden=(4, 4, 4))
        with pytest.raises(ValueError, match="exceeds"):
            tr.train_l2x(rng.normal(size=(50, 3)), clf, tr.TrainConfig(k=4, epochs=1))

    def test_overflowing_update_aborts_at_the_end_of_the_epoch(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4))
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        cfg = tr.TrainConfig(k=2, batch_size=30, epochs=2, warmup_epochs=0, learning_rate=1e308, seed=0,
                             explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericError, match="non-finite in epoch 0"):
                tr.train_l2x(x, clf, cfg)

    def test_non_finite_objective_aborts_with_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        x[10, 2] = np.nan
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        cfg = tr.TrainConfig(k=2, batch_size=20, epochs=1, seed=0,
                             explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.raises(NumericError, match="step"):
            tr.train_l2x(x, clf, cfg)


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        # objectives by repr, so each reads back exactly; wall time to the microsecond
        curve = [tr.EpochStat(0, -0.693, 12.5), tr.EpochStat(1, -0.41234567890123, 9.875),
                 tr.EpochStat(2, -1e-17, 0.0004)]
        path = tmp_path / "curve.csv"
        tr.write_curve_csv(curve, path)
        assert path.read_bytes() == (b"epoch,objective,wall_ms\n"
                                     b"0,-0.693,12.500\n1,-0.41234567890123,9.875\n2,-1e-17,0.000\n")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(int(epoch), float(objective)) for epoch, objective, _ in rows] == [
            (s.epoch, s.objective) for s in curve]
