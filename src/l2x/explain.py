"""Per-sample explanations: learned top-k selection and gradient baselines.

The learned method reads scores off the trained explainer in one forward
pass and never touches the classifier.  The two baselines differentiate
the classifier's top-class logit with respect to the input:

* saliency ranks by the absolute gradient,
* taylor ranks by the signed product input * gradient (an ``absolute``
  switch gives the unsigned variant).

Every method scores a whole (n, d) batch at once; the single-row
functions run the same kernels on a batch of one.

Explanations serialize as JSON lines: {id, method, scores, selected, ns},
written and read a block of records at a time, a whole column per call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from . import autodiff as ad
from .errors import JsonlFormatError
from .files import atomic_open, float_rows
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


def _columns(lines: list[str], width: int | None) -> list:
    """The five fields of a run of JSON lines, one column each; ValueError names the fault.

    One ``json.loads`` call decodes every line, then each check runs over
    a whole column.  ``width`` is the scores width of earlier records.
    """
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
    widths = set(map(len, columns[2]))
    if width is None:
        width = len(columns[2][0])
    if widths != {width}:
        raise ValueError(f"scores width differs from the first record's {width}")
    try:
        scores = np.array(columns[2])
    except ValueError:  # a nested array among the scores
        scores = None
    if scores is None or scores.ndim != 2 or scores.dtype.kind not in "bif":
        raise ValueError("'scores' holds a non-number")
    columns[2] = scores.astype(np.float64, copy=False)
    columns[3] = list(map(tuple, columns[3]))
    if not all(_all(sel, int) for sel in set(columns[3])):
        raise ValueError("'selected' holds a non-integer")
    return columns


def _decode_block(block: list[str], first: int, width: int | None) -> list[Explanation]:
    """Explanations of a run of lines, the first of them line ``first``; blank lines skipped.

    If the run does not decode, its lines are checked one by one to name
    the first bad one.
    """
    lines = [line for line in block if not line.isspace()]
    if not lines:
        return []
    try:
        columns = _columns(lines, width)
    except ValueError as e:
        numbers = [first + i for i, line in enumerate(block) if not line.isspace()]
        for number, line in zip(numbers, lines):
            try:
                width = _columns([line], width)[2].shape[1]
            except ValueError as error:
                raise JsonlFormatError(str(error), line=number) from None
        raise JsonlFormatError(str(e), line=numbers[0]) from None
    return list(map(Explanation, *columns))


def read_jsonl(path) -> list[Explanation]:
    """Inverse of :func:`write_jsonl`, a block of lines at a time; blank lines are skipped.

    A line that is not valid JSON, a record with a missing or mistyped
    key, or scores whose width differs from the first record's raise
    :class:`JsonlFormatError` with the line number.
    """
    out: list[Explanation] = []
    with open(path) as fh:
        first = 1
        while block := list(islice(fh, _BLOCK)):
            out += _decode_block(block, first, len(out[0].scores) if out else None)
            first += len(block)
    return out
