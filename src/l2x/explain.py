"""Per-sample explanations: learned top-k selection and gradient baselines.

The learned method reads scores off the trained explainer in one forward
pass and never touches the classifier.  The two baselines differentiate
the classifier's top-class logit with respect to the input:

* saliency ranks by the absolute gradient,
* taylor ranks by the signed product input * gradient, and taylor-abs by
  its magnitude.

Every method scores a whole (n, d) batch at once; the single-row
functions run the same kernels on a batch of one.

Explanations serialize as JSON lines: {id, method, scores, selected, ns},
written and read a block of records at a time, a whole column per call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from . import autodiff as ad
from .errors import JsonlFormatError
from .files import atomic_open, float_rows, parse_blocks
from .sampling import hard_top_k

__all__ = [
    "ALL_METHODS",
    "check_method",
    "Explanation",
    "input_gradient",
    "method_scores",
    "explain_l2x",
    "explain_saliency",
    "explain_taylor",
    "write_jsonl",
    "read_jsonl",
]


ALL_METHODS = ("l2x", "saliency", "taylor", "taylor-abs")


def check_method(method: str) -> None:
    """Raise ValueError unless ``method`` names one of :data:`ALL_METHODS`."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True, slots=True)
class Explanation:
    """One sample's importance scores and the k features they select."""

    sample_id: int
    method: str
    scores: np.ndarray
    selected: tuple[int, ...]
    wall_ns: int


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


def method_scores(method: str, x: np.ndarray, explainer=None, classifier=None) -> np.ndarray:
    """(n, d) scores of ``method`` for every row of ``x``."""
    check_method(method)
    if method == "l2x":
        if explainer is None:
            raise ValueError("method 'l2x' requires an explainer")
        return explainer.scores(x)
    if classifier is None:
        raise ValueError(f"method {method!r} requires a classifier")
    grad = input_gradient(classifier, x)
    if method == "saliency":
        return np.abs(grad)
    if method == "taylor-abs":
        return np.abs(x * grad)
    return x * grad


def _explain_row(method: str, x, k: int, sample_id: int, **models) -> Explanation:
    """One row through the batched kernels, as a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a single (d,) sample, got shape {x.shape}")
    t0 = time.perf_counter_ns()
    scores = method_scores(method, x[None, :], **models)[0]
    selected = hard_top_k(scores, k)
    return Explanation(sample_id, method, scores, selected, time.perf_counter_ns() - t0)


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

    Scores are signed by default; ``absolute=True`` ranks by magnitude
    (method ``taylor-abs``).
    """
    return _explain_row("taylor-abs" if absolute else "taylor", x, k, sample_id, classifier=classifier)


_TYPES = {"id": int, "method": str, "scores": list, "selected": list, "ns": int}
_JSON_TYPE = {int: "integer", str: "string", list: "array"}
_RECORD = '{"id": %d, "method": %s, "scores": [%s], "selected": [%s], "ns": %d}\n'
_BLOCK = 1024  # records formatted or decoded per step


def _format_block(explanations) -> str:
    """JSON lines of a run of explanations, as ``json.dumps`` writes each record.

    The scores of the whole run are formatted in one call; rows holding
    a non-finite score (``NaN``, ``Infinity``) are formatted again by
    ``json.dumps``, which spells those differently from ``repr``.
    """
    scores = np.array([e.scores for e in explanations], dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"explanations need score vectors, got shape {scores.shape}")
    rows = float_rows(scores)
    for i in np.flatnonzero(~np.isfinite(scores).all(axis=1)).tolist():
        rows[i] = json.dumps(scores[i].tolist())[1:-1]
    method_text = {m: json.dumps(m) for m in {e.method for e in explanations}}
    selected_text = {s: ", ".join(map(str, map(int, s))) for s in {e.selected for e in explanations}}
    return "".join(
        _RECORD % (e.sample_id, method_text[e.method], row, selected_text[e.selected], e.wall_ns)
        for e, row in zip(explanations, rows)
    )


def write_jsonl(explanations, path) -> None:
    """One JSON object per line: ``{"id", "method", "scores", "selected", "ns"}``.

    The bytes are those of ``json.dumps(record) + "\n"`` per record; all
    explanations must have scores of one width.  The file appears only
    once complete.
    """
    explanations = list(explanations)
    if len({len(e.scores) for e in explanations}) > 1:
        raise ValueError("explanations must have scores of one width")
    with atomic_open(path) as fh:
        for i in range(0, len(explanations), _BLOCK):
            fh.write(_format_block(explanations[i : i + _BLOCK]))


def _all(values, kind: type) -> bool:
    """Whether every value is exactly of ``kind`` (so no bool passes for an int)."""
    return set(map(type, values)) <= {kind}


def _decode(block: list[str], shape: tuple[int, int] | None):
    """Explanations of a run of JSON lines (blank ones skipped) and their (width, size).

    One ``json.loads`` call decodes every line, then each check runs over
    a whole column; ValueError names the fault.  ``shape`` is the scores
    width and selection size of earlier records, or None before the first.
    """
    lines = [line for line in block if not line.isspace()]
    if not lines:
        return [], shape
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except ValueError as e:
        raise ValueError(f"bad JSON: {e}") from None
    if len(records) != len(lines) or not _all(records, dict):
        raise ValueError("a line does not hold exactly one JSON object")
    try:
        columns = [list(map(itemgetter(key), records)) for key in _TYPES]
    except KeyError as e:
        raise ValueError(f"record lacks key {e}") from None
    for (key, kind), column in zip(_TYPES.items(), columns):
        if not _all(column, kind):
            raise ValueError(f"{key!r} is not a JSON {_JSON_TYPE[kind]}")
    width, size = shape or (len(columns[2][0]), len(columns[3][0]))
    if set(map(len, columns[2])) != {width}:
        raise ValueError(f"scores width differs from the first record's {width}")
    try:
        scores = np.array(columns[2])
    except ValueError:  # a nested array among the scores
        scores = None
    if scores is None or scores.ndim != 2 or scores.dtype.kind not in "bif":
        raise ValueError("'scores' holds a non-number")
    columns[2] = scores.astype(np.float64, copy=False)
    columns[3] = list(map(tuple, columns[3]))
    selections = set(columns[3])
    if not all(_all(sel, int) for sel in selections):
        raise ValueError("'selected' holds a non-integer")
    if {len(sel) for sel in selections} != {size}:
        raise ValueError(f"'selected' size differs from the first record's {size}")
    if not all(0 <= i < width for sel in selections for i in sel):
        raise ValueError(f"'selected' holds an index outside [0, {width})")
    return list(map(Explanation, *columns)), (width, size)


def read_jsonl(path) -> list[Explanation]:
    """Inverse of :func:`write_jsonl`, a block of lines at a time; blank lines are skipped.

    A line that is not valid JSON, a record with a missing or mistyped
    key, scores whose width differs from the first record's, or a
    selection whose size differs from the first record's or that holds
    an index outside the scores raise :class:`JsonlFormatError` with the
    line number.
    """
    with open(path) as fh:
        return list(chain.from_iterable(parse_blocks(fh, _decode, JsonlFormatError, block=_BLOCK)))
