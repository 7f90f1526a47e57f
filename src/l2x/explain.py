"""Per-sample explanations: learned top-k selection and gradient baselines.

The learned method reads scores off the trained explainer in one forward
pass and never touches the classifier.  The two baselines differentiate
the classifier's top-class logit with respect to the input:

* saliency ranks by the absolute gradient,
* taylor ranks by the signed product input * gradient (an ``absolute``
  switch gives the unsigned variant).

Every method scores a whole (n, d) batch at once; the single-row
functions run the same kernels on a batch of one.

Explanations serialize as JSON lines: {id, method, scores, selected, ns}.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .sampling import hard_top_k

__all__ = [
    "Explanation",
    "input_gradient",
    "method_scores",
    "explain_l2x",
    "explain_saliency",
    "explain_taylor",
    "write_jsonl",
    "read_jsonl",
]


@dataclass(frozen=True)
class Explanation:
    """One sample's importance scores and the k features they select."""

    sample_id: int
    method: str
    scores: np.ndarray
    selected: tuple[int, ...]
    wall_ns: int

    def to_record(self) -> dict:
        return {
            "id": self.sample_id,
            "method": self.method,
            "scores": [float(s) for s in self.scores],
            "selected": list(self.selected),
            "ns": self.wall_ns,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Explanation":
        return cls(
            sample_id=int(record["id"]),
            method=record["method"],
            scores=np.asarray(record["scores"], dtype=np.float64),
            selected=tuple(int(i) for i in record["selected"]),
            wall_ns=int(record["ns"]),
        )


def input_gradient(classifier, x: np.ndarray) -> np.ndarray:
    """Per-row gradient of the argmax class's pre-softmax logit w.r.t. the row.

    One taped pass through the classifier's layers over all n rows of
    ``x``, then one backward pass: rows never interact, so the gradient
    of the summed top-class logits holds every row's own gradient.  Costs
    n classifier evaluations.
    """
    leaf = ad.ParameterSet()
    logits = classifier.logits_tensor(leaf.add("x", x))
    onehot = np.zeros(logits.shape)
    onehot[np.arange(logits.shape[0]), logits.data.argmax(axis=1)] = 1.0
    target = ad.reduce_sum(ad.mul(logits, ad.constant(onehot)))
    return ad.backward(target, leaf)["x"]


def method_scores(
    method: str, x: np.ndarray, explainer=None, classifier=None, absolute: bool = False
) -> tuple[str, np.ndarray]:
    """(recorded method name, (n, d) scores) for every row of ``x``.

    ``absolute`` (or the method name ``taylor-abs``) ranks taylor scores
    by magnitude and records the method as ``taylor-abs``.
    """
    if method == "l2x":
        if explainer is None:
            raise ValueError("method 'l2x' requires an explainer")
        return "l2x", explainer.scores(x)
    if method not in ("saliency", "taylor", "taylor-abs"):
        raise ValueError(f"unknown method {method!r}")
    if classifier is None:
        raise ValueError(f"method {method!r} requires a classifier")
    grad = input_gradient(classifier, x)
    if method == "saliency":
        return "saliency", np.abs(grad)
    if absolute or method == "taylor-abs":
        return "taylor-abs", np.abs(x * grad)
    return "taylor", x * grad


def _explain_row(method: str, x, k: int, sample_id: int, **models) -> Explanation:
    """One row through the batched kernels, as a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a single (d,) sample, got shape {x.shape}")
    t0 = time.perf_counter_ns()
    name, scores = method_scores(method, x[None, :], **models)
    selected = hard_top_k(scores[0], k)
    return Explanation(sample_id, name, scores[0], selected, time.perf_counter_ns() - t0)


def explain_l2x(explainer, x, k: int, sample_id: int = 0) -> Explanation:
    """Score features with the trained explainer and keep the top k.

    One explainer forward pass; the classifier is never evaluated.
    """
    return _explain_row("l2x", x, k, sample_id, explainer=explainer)


def explain_saliency(classifier, x, k: int, sample_id: int = 0) -> Explanation:
    """Rank features by the absolute input gradient of the top-class logit."""
    return _explain_row("saliency", x, k, sample_id, classifier=classifier)


def explain_taylor(
    classifier, x, k: int, sample_id: int = 0, absolute: bool = False
) -> Explanation:
    """Rank features by input times gradient of the top-class logit.

    Scores are signed by default; ``absolute=True`` ranks by magnitude.
    """
    return _explain_row("taylor", x, k, sample_id, classifier=classifier, absolute=absolute)


def write_jsonl(explanations, path) -> None:
    with open(path, "w") as fh:
        for e in explanations:
            fh.write(json.dumps(e.to_record()) + "\n")


def read_jsonl(path) -> list[Explanation]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Explanation.from_record(json.loads(line)))
    return out
