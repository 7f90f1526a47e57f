"""Per-sample explanations: learned top-k selection and gradient baselines.

The learned method reads scores off the trained explainer's untaped
forward pass and never touches the classifier.  The two baselines
differentiate the classifier's top-class logit with respect to the input,
running its layers forward and backward over plain arrays without a tape
(:func:`input_gradient`):

* saliency ranks by the absolute gradient,
* taylor ranks by the signed product input * gradient, and taylor-abs by
  its magnitude.

:func:`explain_dataset` is the one way a method explains rows: it checks
an (n, d) batch, scores it with one call, which runs the networks over
blocks of ``files.BLOCK_ROWS`` rows so that memory stays bounded
whatever n, and keeps each row's top k.  :func:`explain_l2x` is that
function on a single row, as a batch of one.

One method's explanations of n rows are one :class:`Explanations`
record of columns: ids (n,), scores (n, d), selected (n, k) and ns (n,).
Indexing it gives an :class:`Explanation`, the view of a single row.
Records serialize as JSON lines: {id, method, scores, selected, ns},
written and read a block of lines at a time, a whole column per call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from . import autodiff as ad
from . import files
from .errors import JsonlFormatError
from .files import atomic_open, float_rows, open_text, parse_blocks
from .metrics import check_finite, index_sets
from .networks import map_blocks
from .sampling import hard_top_k

__all__ = [
    "ALL_METHODS",
    "check_method",
    "Explanation",
    "Explanations",
    "input_gradient",
    "explain_dataset",
    "explain_l2x",
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


@dataclass(frozen=True, slots=True)
class Explanations:
    """One method's explanations of n rows as int64 and float64 columns; ``record[i]`` is a row view."""

    method: str
    ids: np.ndarray
    scores: np.ndarray
    selected: np.ndarray
    ns: np.ndarray

    def __post_init__(self):
        lengths = {len(self.ids), len(self.scores), len(self.selected), len(self.ns)}
        if self.scores.ndim != 2 or self.selected.ndim != 2 or len(lengths) > 1:
            raise ValueError("explanations need n ids, (n, d) scores, (n, k) selections and n times")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Explanation:
        return Explanation(
            int(self.ids[i]), self.method, self.scores[i], tuple(self.selected[i].tolist()), int(self.ns[i])
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def concatenate(cls, parts) -> "Explanations":
        """The rows of several records of one method, in order; ValueError if their widths differ."""
        if len(parts) == 1:
            return parts[0]
        columns = ((part.ids, part.scores, part.selected, part.ns) for part in parts)
        return cls(parts[0].method, *map(np.concatenate, zip(*columns)))


def input_gradient(classifier, x: np.ndarray) -> np.ndarray:
    """Per-row gradient of the argmax class's pre-softmax logit w.r.t. the row.

    The classifier's layers run forward and backward once per block of
    ``files.BLOCK_ROWS`` rows of ``x`` (one pass over all rows up to one
    block), through the training step's kernels (``autodiff.dense_array``
    and ``dense_backward``) in float64 and fresh arrays: rows never
    interact, so the backward pass of a block's summed top-class logits
    holds every row's own gradient.  No weight gradient is formed and no
    graph is built.  Costs n classifier evaluations.
    """
    return map_blocks(lambda rows: _block_gradient(classifier, rows), np.ascontiguousarray(x, dtype=np.float64))


def _block_gradient(classifier, x: np.ndarray) -> np.ndarray:
    weights = classifier._evaluate(x)
    kept: list = []
    logits = ad.dense_array(x, weights, kept)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(logits)), logits.argmax(axis=1)] = 1.0
    return ad.dense_backward(onehot, weights[::2], kept, [None] * len(weights), need_input=True)


def explain_dataset(
    method: str,
    x: np.ndarray,
    k: int,
    explainer=None,
    classifier=None,
    threads: int = 1,
) -> Explanations:
    """Explain every row of finite ``x`` with ``method`` as one record; ids are row positions.

    Every method scores all rows in one batched pass and selects with one
    top-k call; each row's ns is the total amortized over rows.  l2x
    needs the explainer and no classifier evaluation; the baselines need
    the classifier (:func:`input_gradient`).  ``threads`` has no effect;
    it stays because the bench harness (``bench/workloads.py``) passes it
    and stays the same across the commits it compares.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) inputs, got shape {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    check_finite(x)
    t0 = time.perf_counter_ns()
    check_method(method)
    if method == "l2x":
        if explainer is None:
            raise ValueError("method 'l2x' requires an explainer")
        scores = explainer.scores(x)
    elif classifier is None:
        raise ValueError(f"method {method!r} requires a classifier")
    elif method == "saliency":
        scores = np.abs(input_gradient(classifier, x))
    else:
        scores = x * input_gradient(classifier, x)
        if method == "taylor-abs":
            scores = np.abs(scores)
    selected = hard_top_k(scores, k)
    per_sample = (time.perf_counter_ns() - t0) // n
    return Explanations(method, np.arange(n, dtype=np.int64), scores, selected,
                        np.full(n, per_sample, dtype=np.int64))


def explain_l2x(explainer, x, k: int, sample_id: int = 0) -> Explanation:
    """:func:`explain_dataset` of l2x on the (d,) row ``x`` as a batch of one, as a row view with ``sample_id``.

    A non-finite value in the row raises ValueError naming its column.  No
    classifier evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a single (d,) sample, got shape {x.shape}")
    return replace(explain_dataset("l2x", x[None, :], k, explainer=explainer)[0], sample_id=sample_id)


_TYPES = {"id": int, "method": str, "scores": list, "selected": list, "ns": int}
_JSON_TYPE = {int: "integer", str: "string", list: "array"}
_RECORD = '{"id": %d, "method": %s, "scores": [%s], "selected": [%s], "ns": %d}\n'


def _format_block(record: Explanations, rows: slice) -> str:
    """JSON lines of a run of one record's rows, as ``json.dumps`` writes each record.

    The scores of the whole run are formatted in one call; rows holding
    a non-finite score (``NaN``, ``Infinity``) are formatted again by
    ``json.dumps``, which spells those differently from ``repr``.  Each
    distinct selection is formatted once.
    """
    scores = np.asarray(record.scores[rows], dtype=np.float64)
    texts = float_rows(scores)
    for i in np.flatnonzero(~np.isfinite(scores).all(axis=1)).tolist():
        texts[i] = json.dumps(scores[i].tolist())[1:-1]
    selected = list(map(tuple, record.selected[rows].tolist()))
    selected_text = {sel: ", ".join(map(str, sel)) for sel in set(selected)}
    method = json.dumps(record.method)
    columns = (record.ids[rows].tolist(), texts, map(selected_text.__getitem__, selected),
               record.ns[rows].tolist())
    return "".join(_RECORD % (i, method, text, sel, ns) for i, text, sel, ns in zip(*columns))


def write_jsonl(explanations, path) -> None:
    """One JSON object per line: ``{"id", "method", "scores", "selected", "ns"}``.

    ``explanations`` is one :class:`Explanations` record or a sequence of
    them, written in order; all must have scores of one width.  The bytes
    are those of ``json.dumps(record) + "\n"`` per row.  The file appears
    only once complete.
    """
    records = [explanations] if isinstance(explanations, Explanations) else list(explanations)
    if len({record.scores.shape[1] for record in records}) > 1:
        raise ValueError("explanations must have scores of one width")
    block = files.BLOCK_ROWS
    with atomic_open(path) as fh:
        for record in records:
            for i in range(0, len(record), block):
                fh.write(_format_block(record, slice(i, i + block)))


def _all(values, *kinds: type) -> bool:
    """Whether every value is exactly of one of ``kinds`` (so no bool passes for an int)."""
    return set(map(type, values)) <= set(kinds)


def _int64(column: list, key: str) -> np.ndarray:
    try:
        return np.array(column, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{key!r} does not fit in a signed 64-bit integer") from None


def _decode(block: list[str], shape: tuple[int, int] | None):
    """One record per method of a run of JSON lines (blank ones skipped), and their (width, size).

    One ``json.loads`` call decodes every line, then each check runs over
    a whole column (the selections' by :func:`metrics.index_sets`);
    ValueError names the fault.  ``shape`` is the scores width and
    selection size of earlier records, or None before the first.
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
        ids, methods, scores, selected, ns = (list(map(itemgetter(key), records)) for key in _TYPES)
    except KeyError as e:
        raise ValueError(f"record lacks key {e}") from None
    for (key, kind), column in zip(_TYPES.items(), (ids, methods, scores, selected, ns)):
        if not _all(column, kind):
            raise ValueError(f"{key!r} is not a JSON {_JSON_TYPE[kind]}")
    width, size = shape or (len(scores[0]), len(selected[0]))
    if set(map(len, scores)) != {width}:
        raise ValueError(f"scores width differs from the first record's {width}")
    numbers = _all(chain.from_iterable(scores), int, float)  # no bool, string, null or nested array
    try:
        scores = np.array(scores, dtype=np.float64) if numbers else None
    except OverflowError:  # an integer beyond the float64 range
        scores = None
    if scores is None:
        raise ValueError("'scores' holds a non-number")
    if not _all(chain.from_iterable(selected), int):
        raise ValueError("'selected' holds a non-integer")
    selected = index_sets(selected, width, "'selected'")
    if selected.shape[1] != size:
        raise ValueError(f"'selected' size differs from the first record's {size}")
    columns = (_int64(ids, "id"), scores, selected, _int64(ns, "ns"))
    names = {name: code for code, name in enumerate(dict.fromkeys(methods))}
    code = np.fromiter(map(names.__getitem__, methods), np.intp, len(methods))
    parts = [Explanations(name, *(column[code == c] for column in columns)) for name, c in names.items()]
    return parts, (width, size)


def read_jsonl(path) -> dict[str, Explanations]:
    """Inverse of :func:`write_jsonl`: one record per method, in order of first appearance.

    The file is read a block of lines at a time; blank lines are skipped.
    A line that is not UTF-8 or not valid JSON, a record with a missing or
    mistyped key (a score that is not a JSON number, a boolean among
    them) or an id or ns outside the signed 64-bit range, scores
    whose width differs from the first record's, or a selection that is
    empty, whose size differs from the first record's, that holds an
    index outside the scores or that repeats an index raise
    :class:`JsonlFormatError` with the line number.
    """
    parts: dict[str, list[Explanations]] = {}
    with open_text(path) as fh:
        for block in parse_blocks(fh, _decode, JsonlFormatError):
            for part in block:
                parts.setdefault(part.method, []).append(part)
    return {method: Explanations.concatenate(run) for method, run in parts.items()}
