"""Optimizer arithmetic, objective construction, and both training loops."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import training as tr
from l2x.errors import NumericError
from l2x.metrics import accuracy
from l2x.networks import build_classifier, build_explainer, build_variational
from l2x.pipeline import RunConfig
from l2x.sampling import batched_relaxed_mask, gumbel_from_uniform, relaxed_mask_graph


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
        p = np.array([1.0])
        tr.RmsProp(learning_rate=0.001).step([(p, np.array([1.0]))])
        # acc = 0.1, delta = -0.001 / (sqrt(0.1) + 1e-7)
        expected = 1.0 - 0.001 / (math.sqrt(0.1) + 1e-7)
        np.testing.assert_allclose(p, [expected], atol=1e-15)
        np.testing.assert_allclose(1.0 - p[0], 0.0031623, atol=1e-7)

    def test_zero_gradient_is_noop(self):
        p = np.arange(4.0)
        before = p.copy()
        tr.RmsProp(0.001).step([(p, np.zeros(4))])
        np.testing.assert_array_equal(p, before)

    def test_constant_gradient_step_approaches_learning_rate(self):
        p = np.array([0.0])
        opt = tr.RmsProp(learning_rate=0.001)
        prev = p[0]
        for _ in range(10_000):
            prev = p[0]
            opt.step([(p, np.array([2.5]))])
        last_delta = abs(p[0] - prev)
        np.testing.assert_allclose(last_delta, 0.001, rtol=1e-6)

    def test_accumulator_stays_nonnegative_and_shaped(self):
        p = np.zeros(6)
        opt = tr.RmsProp(0.001)
        for s in range(5):
            opt.step([(p, np.random.default_rng(s).normal(size=6))])
        assert opt.accumulator(p).shape == (6,)
        assert np.all(opt.accumulator(p) >= 0)

    def test_step_matches_the_written_formula_bitwise(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=15)
        lr, rho, eps = 0.01, tr.DECAY, tr.EPSILON
        opt = tr.RmsProp(lr)
        ref, acc = block.copy(), np.zeros_like(block)
        for _ in range(6):
            g = rng.normal(size=block.shape)
            given = g.copy()
            opt.step([(block, g)])
            acc = rho * acc + (1.0 - rho) * given * given
            update = lr * given / (np.sqrt(acc) + eps)
            ref = ref - update
            assert block.tobytes() == ref.tobytes()
            assert opt.accumulator(block).tobytes() == acc.tobytes()
            assert g.tobytes() == update.tobytes(), "the gradient block holds the update"

    def test_network_buffers_step_like_their_tensors_and_keep_state_across_sets(self):
        rng = np.random.default_rng(4)
        nets = build_explainer(3, rng, hidden=(4,)), build_variational(3, 2, rng, hidden=(5,))
        blocks = {net.kind: tr._Pass(net, 1).block for net in nets}
        lr, rho, eps = 0.01, tr.DECAY, tr.EPSILON
        opt = tr.RmsProp(lr)
        ref = {(net.kind, name): t.data.copy() for net in nets for name, t in net.params.items()}
        acc = {key: np.zeros_like(v) for key, v in ref.items()}
        for kinds in (("variational",),) * 3 + (("explainer", "variational"),) * 3:  # warmup, then the joint phase
            grads = {kind: rng.normal(size=blocks[kind].shape) for kind in kinds}
            given = {kind: g.copy() for kind, g in grads.items()}
            opt.step([(blocks[kind], grads[kind]) for kind in kinds])
            for net in nets:
                start = 0
                for name, t in net.params.items():  # a block holds its network's tensors in layout order
                    key = (net.kind, name)
                    if net.kind in kinds:
                        g = given[net.kind][start : start + t.data.size].reshape(t.data.shape)
                        acc[key] = rho * acc[key] + (1.0 - rho) * g * g
                        ref[key] = ref[key] - lr * g / (np.sqrt(acc[key]) + eps)
                    start += t.data.size
                    assert t.data.tobytes() == ref[key].tobytes(), key
            for kind in kinds:
                expected = np.concatenate([a.reshape(-1) for (k, _), a in acc.items() if k == kind])
                assert opt.accumulator(blocks[kind]).tobytes() == expected.tobytes(), kind

    def test_shape_mismatch_raises(self):
        p, q = np.zeros(3), np.zeros(3)
        with pytest.raises(ValueError, match="shape"):
            tr.RmsProp(0.001).step([(p, np.ones(3)), (q, np.zeros(4))])
        assert p.tolist() == [0.0] * 3

    def test_hyperparameter_validation(self):
        for learning_rate in (0.0, -0.001, math.nan, math.inf):
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
        monkeypatch.setattr(tr, "relaxed_mask_graph", recording("mask", tr.relaxed_mask_graph))
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


def _log_likelihood_chain(target: np.ndarray, q) -> ad.Tensor:
    """The clamped log-likelihood both loops train on, as the op chain ``l2x_objective`` tapes."""
    floor = ad.constant(np.full(q.shape, tr.PROB_CLAMP))
    return ad.reduce_mean(ad.reduce_sum(ad.mul(ad.constant(target), ad.log(ad.maximum(q, floor))), axis=1))


def _flat(grads: dict, params: ad.ParameterSet) -> bytes:
    """The gradients ``ad.backward`` returned for ``params``, laid out like the step's gradient blocks."""
    return b"".join(grads[name].tobytes() for name in params)


class TestTrainingStep:
    """Each explicit training step against ``ad.backward`` of the taped float32 graph of autodiff ops, bit for bit.

    The passes hold arrays for 10 rows; a second step on a partial batch
    runs in the leading rows of the arrays a full batch used, over
    weights the optimizer has stepped.
    """

    ROWS = 10

    @pytest.mark.parametrize("sizes", [(10, 10), (10, 7)], ids=["full", "partial"])
    def test_classifier_step_matches_the_tape(self, sizes):
        rng = np.random.default_rng(30)
        clf = build_classifier(5, 2, rng, hidden=(6, 7, 6))
        net, opt = tr._Pass(clf, self.ROWS), tr.RmsProp(0.05)
        for b in sizes:
            x = rng.normal(size=(b, 5))
            target = np.eye(2)[rng.integers(0, 2, size=b)]
            loss = ad.neg(_log_likelihood_chain(target, clf.forward_tensor(ad.constant(x), tr.TRAIN_DTYPE)))
            taped = _flat(ad.backward(loss, clf.params), clf.params)
            value, g = tr._head_step(net, x, target)
            assert -value == loss.item() and g is None
            assert net.grads.tobytes() == taped
            opt.step([(net.block, net.grads)])

    @pytest.mark.parametrize("sizes", [(10, 10), (10, 7)], ids=["full", "partial"])
    @pytest.mark.parametrize("warmup", [True, False], ids=["warmup", "joint"])
    def test_selector_step_matches_the_tape(self, monkeypatch, sizes, warmup):
        d, k, temperature = 6, 2, 0.5
        rng = np.random.default_rng(31)
        ex = build_explainer(d, rng, hidden=(7, 5))
        var = build_variational(d, 2, rng, hidden=(6, 8, 6))
        passes = tr._Pass(ex, self.ROWS), tr._Pass(var, self.ROWS)
        active = ad.ParameterSet()
        if not warmup:
            active.merge("explainer", ex.params)
        active.merge("variational", var.params)
        masks, calls = [], []  # per mask: how many times its vjp ran

        def mask(*args):
            v, vjp = batched_relaxed_mask(*args)
            masks.append(0)

            def counted(g):
                masks[-1] += 1
                return vjp(g)
            return v, counted

        def recording(net):
            backward = net.backward

            def recorded(g, need_input=False):
                out = backward(g, need_input)
                calls.append((net.net.kind, need_input, out is None))
                return out
            return recorded

        monkeypatch.setattr(tr, "batched_relaxed_mask", mask)
        for net in passes:
            monkeypatch.setattr(net, "backward", recording(net))
        opt = tr.RmsProp(0.05)
        for steps, b in enumerate(sizes, 1):
            x = rng.normal(size=(b, d))
            pm = rng.dirichlet(np.ones(2), size=b)
            noise = gumbel_from_uniform(rng.uniform(size=(b, k, d)))
            if warmup:  # the explainer's weights on the tape as constants
                scores = ad.dense(ad.constant(x), [t.data for t in ex.params.values()], tr.TRAIN_DTYPE)
            else:
                scores = ex.forward_tensor(ad.constant(x), tr.TRAIN_DTYPE)
            v = relaxed_mask_graph(scores, noise, temperature)
            q = var.forward_tensor(ad.mul(v, ad.constant(x)), tr.TRAIN_DTYPE)
            root = ad.neg(_log_likelihood_chain(pm, q))
            taped = _flat(ad.backward(root, active), active)

            passes[0].grads[:] = np.nan  # stays so unless the step writes an explainer gradient
            calls.clear()
            assert tr._selector_step(*passes, x, pm, noise, temperature, warmup) == -root.item()
            written = passes[1].grads if warmup else np.concatenate([p.grads for p in passes])
            assert written.tobytes() == taped
            assert len(masks) == steps  # one mask per step
            if warmup:  # no explainer gradient, no mask vjp, no masked-input gradient
                assert np.isnan(passes[0].grads).all()
                assert masks[-1] == 0
                assert calls == [("variational", False, True)]
            else:
                assert masks[-1] == 1
                assert calls == [("variational", True, False), ("explainer", False, True)]
            opt.step([(p.block, p.grads) for p in (passes[1:] if warmup else passes)])


class TestObjective:
    def test_log_likelihood_kernel_matches_the_op_chain_bitwise(self):
        rng = np.random.default_rng(12)
        for target in (np.eye(3)[rng.integers(0, 3, size=9)], rng.dirichlet(np.ones(3), size=9)):
            probs = rng.dirichlet(np.ones(3) * 0.3, size=9)
            probs[0] = [tr.PROB_CLAMP, 1e-300, 1.0 - tr.PROB_CLAMP]  # at, and under, the floor
            probs[1, 0] = 0.0
            value, got = tr._log_likelihood(target, probs)
            chain = ad.parameter(probs)
            ref = _log_likelihood_chain(target, chain)
            assert np.float64(value).tobytes() == ref.data.tobytes()
            want = ad.backward(ad.neg(ref), ad.ParameterSet(p=chain))["p"]
            assert got.tobytes() == want.tobytes()
            assert got[0, 1] == 0.0 and got[1, 0] == 0.0  # no gradient below the floor

    def test_tiny_temperature_refused_at_the_mask_without_numpy_warnings(self):
        clf, ex, var, x, noise = tiny_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^relaxed mask became non-finite \(temperature 1e-310\)$"):
                tr.l2x_objective(x, clf, ex, var, noise, temperature=1e-310, k=2)

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
        clf, report = tr.train_classifier(x, y, cfg)
        assert accuracy(clf, x, y) > 0.97
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

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_nan_feature_rejected_before_any_step(self, epochs):
        # without the check, one epoch fails only at step 1, on non-finite probabilities
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        x[9, 1] = 1e39  # an overflow after the NaN: the first fault is named
        x[4, 0] = np.nan
        cfg = tr.TrainConfig(k=1, batch_size=20, epochs=epochs, classifier_hidden=(8, 8, 8))
        with pytest.raises(NumericError, match=r"feature value nan \(row 4, column 0\) is not a number"):
            tr.train_classifier(x, (x[:, 1] > 0).astype(int), cfg)

    @pytest.mark.parametrize("label, row", [(-1, 3), (0.7, 5), (2, 0)])
    def test_labels_other_than_zero_and_one_rejected(self, label, row):
        # -1 would train as class 1, 0.7 as class 0, and 2 would fail to index
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        y = (x[:, 0] > 0).astype(float)
        y[row] = label
        cfg = tr.TrainConfig(k=1, batch_size=4, epochs=1, classifier_hidden=(4,))
        with pytest.raises(ValueError, match=rf"labels must be 0 or 1, got {float(label)} in row {row}"):
            tr.train_classifier(x, y, cfg)

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

    def test_nan_feature_rejected_before_any_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        x[13, 2] = np.nan
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        cfg = tr.TrainConfig(k=2, batch_size=20, epochs=1, explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.raises(NumericError, match=r"feature value nan \(row 13, column 2\) is not a number"):
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

    def test_tiny_temperature_refused_at_the_mask_before_the_variational_net(self, monkeypatch):
        # scores / 1e-310 overflow: the mask is NaN, and numpy's warnings (errors in this suite) stay silent
        forwarded, forward = [], tr._Pass.forward

        def recording(self, x):
            forwarded.append(self.net.kind)
            return forward(self, x)

        monkeypatch.setattr(tr._Pass, "forward", recording)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4))
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        cfg = tr.TrainConfig(k=2, batch_size=10, epochs=1, temperature=1e-310,
                             explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.raises(NumericError, match=r"^relaxed mask became non-finite \(temperature 1e-310\) at step 0$"):
            tr.train_l2x(x, clf, cfg)
        assert forwarded == ["explainer"]

    def test_non_finite_parameter_is_named(self):
        nets = [build_explainer(3, np.random.default_rng(0), hidden=(4,)),
                build_variational(3, 2, np.random.default_rng(0), hidden=(4,))]
        cfg = tr.TrainConfig(k=1, batch_size=5, epochs=1)

        def step(epoch, idx, step_index):
            nets[1].params["b0"].data[2] = np.inf
            return -1.0

        with pytest.raises(NumericError, match="parameter variational.b0 became non-finite in epoch 0"):
            tr._epochs(cfg, 10, nets, step)

    def test_steady_state_step_allocates_no_layer_sized_array(self, monkeypatch):
        # tracemalloc counts numpy's buffers.  Each step must reuse the float32 layer
        # outputs, relu masks and vjp scratch: the traced peak of a step, after the
        # first, rises less than one (batch, hidden) float32 array above its start
        batch, hidden = 256, 512
        x = np.random.default_rng(0).normal(size=(6 * batch, 10))
        clf = build_classifier(10, 2, np.random.default_rng(1), hidden=(8,))
        cfg = tr.TrainConfig(k=2, batch_size=batch, epochs=1, warmup_epochs=0, seed=0,
                             explainer_hidden=(hidden,), variational_hidden=(hidden,))
        marks, batch_noise = [], tr._batch_noise

        def marking(*args):  # called first thing in every step
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return batch_noise(*args)

        monkeypatch.setattr(tr, "_batch_noise", marking)
        tracemalloc.start()
        try:
            tr.train_l2x(x, clf, cfg)
        finally:
            tracemalloc.stop()
        assert len(marks) == 6
        growth = [peak - start for (start, _), (_, peak) in zip(marks[1:], marks[2:])]
        assert max(growth) < batch * hidden * 4, growth

    @pytest.mark.parametrize("loop", ["classifier", "selector"])
    def test_training_buffers_are_gone_once_the_call_returns(self, monkeypatch, loop):
        made, init, batch_noise = [], tr._Pass.__init__, tr._batch_noise

        def recording(self, *args):
            init(self, *args)
            layers = [a for pair in self.layers for a in pair]
            arrays = [self.grads, self.x, self.g, *self.weights, *self.targets[::2], *layers]
            made.extend(weakref.ref(a) for a in arrays if a is not None)

        def noise(rng, out):
            made.append(weakref.ref(out.base))
            return batch_noise(rng, out)

        monkeypatch.setattr(tr._Pass, "__init__", recording)
        monkeypatch.setattr(tr, "_batch_noise", noise)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 6))
        clf = build_classifier(6, 2, rng, hidden=(8, 8))
        cfg = tr.TrainConfig(k=2, batch_size=20, epochs=2, warmup_epochs=1, seed=0,
                             classifier_hidden=(8, 8), explainer_hidden=(8, 8), variational_hidden=(8, 8))
        if loop == "classifier":
            tr.train_classifier(x, (x[:, 0] > 0).astype(int), cfg)
        else:
            tr.train_l2x(x, clf, cfg)
        assert made and all(ref() is None for ref in made)

    def test_non_finite_objective_aborts_with_step(self):
        # a NaN feature is refused before any step; a classifier that emits NaN is caught inside one
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 4))
        clf = build_classifier(4, 2, rng, hidden=(4, 4, 4))
        clf.params["w0"].data[2, 0] = np.nan
        cfg = tr.TrainConfig(k=2, batch_size=20, epochs=1, seed=0,
                             explainer_hidden=(4, 4), variational_hidden=(4, 4, 4))
        with pytest.raises(NumericError, match="non-finite at step 0"):
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
