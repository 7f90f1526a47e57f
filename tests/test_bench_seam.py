"""The seam between the library and the benchmark's outside-in tracer.

``bench/spans.py`` wraps library functions and methods by name and binds
some of their parameters by name.  A rename or a new signature there
would break the traced benchmark run only when it runs; these tests
break first.  The tracer module is compiled from its source, so no
bytecode is written under ``bench/``.
"""

from __future__ import annotations

import importlib
import inspect
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import l2x.cli  # noqa: F401  (every module the tracer patches must be loaded)
from l2x import autodiff as ad
from l2x import datasets, networks, pipeline, training
from l2x.rng import substream
from l2x.sampling import gumbel_from_uniform

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _function(module_name: str, name: str):
    return getattr(importlib.import_module(module_name), name)


def test_every_traced_target_resolves(spans):
    for module_name, name, _ in spans.FUNCTIONS:
        assert inspect.isfunction(_function(module_name, name)), f"{module_name}.{name}"
    for module_name, cls_name, name, _ in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert inspect.isfunction(getattr(cls, name)), f"{module_name}.{cls_name}.{name}"


def test_signatures_have_the_parameters_the_wrappers_bind(spans):
    by_span = {span: _function(module_name, name) for module_name, name, span in spans.FUNCTIONS}
    needed = {span: ("path",) for span in spans._PATH_SPANS}
    needed.update({
        "training.train_l2x": ("config",),
        "autodiff.backward": ("params",),
        "explain.dataset": ("method", "x"),
        "cli.main": ("argv",),
    })
    targets = {span: by_span[span] for span in needed}
    targets["networks.forward"] = networks.Mlp.forward
    targets["networks.forward_tensor"] = networks.Mlp.forward_tensor
    needed["networks.forward"] = needed["networks.forward_tensor"] = ("x",)
    for span, fn in targets.items():
        parameters = inspect.signature(fn).parameters
        for name in needed[span]:
            assert name in parameters, f"{span} ({fn.__qualname__}) has no parameter {name!r}"


def test_every_function_the_tracer_wraps_as_an_op_returns_a_tensor(spans):
    # the op wrapper reads the tag of what it returns (``out.op``): a plain-array
    # kernel exported from autodiff would fail every traced run
    wrapped = [name for name in ad.__all__ if inspect.isfunction(getattr(ad, name)) and name not in spans._NOT_OPS]
    assert "matmul" in wrapped and "softmax" in wrapped
    for name in wrapped:
        assert typing.get_type_hints(getattr(ad, name)).get("return") is ad.Tensor, name


def _explain_and_score(x, truths, k, explainer, classifier):
    """Each method's scores, ranks and post-hoc accuracy, looked up through the module."""
    out = {}
    for method in ("l2x", "saliency", "taylor"):
        record = pipeline.explain_dataset(method, x, k, explainer=explainer, classifier=classifier)
        ranks = pipeline.ranks_for(record, truths, d=datasets.D)
        posthoc = pipeline.posthoc_for(classifier, x, record)
        out[method] = (record.scores.tobytes(), record.selected.tobytes(),
                       ranks.per_sample.tobytes(), posthoc.accuracy)
    return out


def test_traced_run_gives_the_untraced_results(spans):
    x, _, _, truths = datasets.as_arrays(datasets.generate("orange_skin", 200, substream(3, "data", 0)))
    k = datasets.k_for("orange_skin")
    rng = np.random.default_rng(3)
    classifier = networks.build_classifier(datasets.D, datasets.N_CLASSES, rng, hidden=(8, 8))
    explainer = networks.build_explainer(datasets.D, rng, hidden=(8, 8))
    untraced = _explain_and_score(x, truths, k, explainer, classifier)

    tracer = spans.Tracer()
    originals = (pipeline.explain_dataset, networks.Mlp.forward)
    tracer.install()
    try:
        assert pipeline.explain_dataset is not originals[0]
        with tracer.recording() as root:
            traced = _explain_and_score(x, truths, k, explainer, classifier)
        metrics = spans.layer_metrics(tracer, root)
        with tracer.recording():  # the explanations build no graph; the taped objective does
            variational = networks.build_variational(datasets.D, datasets.N_CLASSES, rng, hidden=(8, 8))
            noise = gumbel_from_uniform(rng.uniform(size=(20, k, datasets.D)))
            estimate = training.l2x_objective(x[:20], classifier, explainer, variational, noise, 0.5, k)
            ad.backward(estimate.root, variational.params)
    finally:
        tracer.uninstall()
    assert (pipeline.explain_dataset, networks.Mlp.forward) == originals

    assert traced == untraced
    assert metrics["pipeline.stage_s.explain"] > 0.0
    assert metrics["explain.method_s.saliency"] > 0.0
    assert tracer.nodes["matmul"] > 0 and tracer.bwd_s["matmul"] > 0.0


@pytest.fixture
def traced(spans):
    """A recording tracer, installed for the test and taken out after it."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.recording() as root:
            yield tracer, root
    finally:
        tracer.uninstall()


def _train(seed: int):
    """Every trained parameter's bytes and both curves of a tiny classifier + selector run."""
    x, _, y, _ = datasets.as_arrays(datasets.generate("switch", 300, substream(seed, "data", 0)))
    config = training.TrainConfig(k=3, epochs=3, warmup_epochs=1, batch_size=64, seed=seed,
                                  classifier_hidden=(8, 8, 8), explainer_hidden=(8, 8), variational_hidden=(8, 8, 8))
    clf, clf_report = training.train_classifier(x, y, config)
    explainer, variational, report = training.train_l2x(x, clf, config)
    nets = (clf, explainer, variational)
    return ([t.data.tobytes() for net in nets for t in net.params.values()],
            [stat.objective for stat in clf_report.curve + report.curve])


def test_traced_training_gives_the_untraced_parameters(spans, traced):
    tracer, root = traced
    tracer.enabled = False
    untraced = _train(5)
    tracer.enabled = True
    assert _train(5) == untraced
    metrics = spans.layer_metrics(tracer, root)
    assert metrics["training.steps"] == 2 * 3 * 5  # two loops, three epochs of five batches
    assert metrics["sampling.relaxed_mask_calls"] == 3 * 5
    assert metrics["training.warmup_discarded_bwd_share"] == 0.0  # warmup stops at the variational net


def test_a_blocked_pass_is_one_forward_span(spans, traced):
    # the block loop must not re-enter the public ``Mlp.forward``, which the tracer wraps
    tracer, root = traced
    n = 2 * networks.BLOCK_ROWS + 3
    x = np.random.default_rng(8).normal(size=(n, datasets.D))
    classifier = networks.build_classifier(datasets.D, datasets.N_CLASSES, np.random.default_rng(8), hidden=(8, 8))
    classifier.predict_proba(x)
    forward = [(s.name, s.attrs["rows"]) for s in tracer.spans[root + 1 :] if s.name.startswith("networks.")]
    assert forward == [("networks.forward.classifier", n)]
    assert spans.layer_metrics(tracer, root)["networks.rows_evaluated.classifier"] == n


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_returned_arrays_survive_later_calls(request, trace):
    if trace:
        request.getfixturevalue("traced")
    x, _, _, _ = datasets.as_arrays(datasets.generate("orange_skin", 120, substream(6, "data", 0)))
    k = datasets.k_for("orange_skin")
    rng = np.random.default_rng(6)
    classifier = networks.build_classifier(datasets.D, datasets.N_CLASSES, rng, hidden=(8, 8))
    explainer = networks.build_explainer(datasets.D, rng, hidden=(8, 8))

    def calls(rows):
        out = [classifier.forward(x[rows]), explainer.forward(x[rows]), classifier.forward(x[rows][:1])]
        for method in ("l2x", "saliency", "taylor"):
            record = pipeline.explain_dataset(method, x[rows], k, explainer=explainer, classifier=classifier)
            out += [record.scores, record.selected]
        return out

    first = calls(slice(0, 60))
    kept = [a.copy() for a in first]
    later = calls(slice(60, 120))
    for a, b, c in zip(first, kept, later):
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, c)
