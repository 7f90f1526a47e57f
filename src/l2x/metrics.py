"""Explanation quality metrics: median rank and post-hoc accuracy.

Median rank scores whether an explainer finds the features that actually
generated the label: per sample, features are ranked by score (rank 1 =
largest, ties to the lowest index, matching hard top-k selection), and
the median rank of the known true features is taken.  Perfect selection
of t true features yields (t+1)/2.

Post-hoc accuracy scores fidelity to the classifier: how often does the
classifier's prediction on the masked input (unselected features zeroed)
agree with its prediction on the full input.

Both take whole (n, .) arrays and run without a per-row loop.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .files import atomic_open, float_rows
from .networks import is_int

__all__ = [
    "MedianRankReport",
    "PostHocReport",
    "ranks_of",
    "median_rank",
    "post_hoc_accuracy",
    "accuracy",
    "check_finite",
    "index_sets",
    "write_ranks_csv",
]


def ranks_of(scores: np.ndarray) -> np.ndarray:
    """Rank per feature, 1 = highest score; ties go to the lower index.

    Works on one (d,) score vector or row by row on an (n, d) matrix.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be a vector or a matrix, got shape {scores.shape}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty(scores.shape, dtype=np.float64)
    np.put_along_axis(ranks, order, np.arange(1.0, scores.shape[-1] + 1), axis=-1)
    return ranks


def index_sets(rows, d: int, what: str) -> np.ndarray:
    """Truth sets or selections, one per sample, as an (n, t) int64 array of distinct indices in [0, d).

    ValueError names (as ``what``) the first set that breaks a rule, in
    this order: a size other than the first set's, empty, an index that
    is not an integer (a bool or a float is not, whatever its value), an
    index outside [0, d) or past int64, a repeated index (t(t-1)/2 column
    compares, no sort).
    """
    try:
        out = np.asarray(rows)
    except ValueError:  # ragged
        out = None
    if out is None or out.ndim == 2 and out.size and out.dtype.kind != "i":
        out = _python_sets(rows, d, what)  # ragged, not integers, or past int64 (which numpy reads as floats)
    out = out.astype(np.int64, copy=False)
    if out.ndim != 2 or len(out) == 0:
        raise ValueError(f"need one {what} per sample, got an array of shape {out.shape}")
    n, t = out.shape
    if t == 0:
        raise ValueError(f"{what} [] is empty")
    if out.min() < 0 or out.max() >= d:
        row = out[((out < 0) | (out >= d)).any(axis=1).argmax()]
        raise ValueError(f"{what} {row.tolist()} holds an index outside [0, {d})")
    repeats = np.zeros(n, dtype=bool)
    for j in range(1, t):
        for i in range(j):
            repeats |= out[:, i] == out[:, j]
    if repeats.any():
        raise ValueError(f"{what} {out[repeats.argmax()].tolist()} repeats an index")
    return out


def _python_sets(rows, d: int, what: str) -> np.ndarray:
    """:func:`index_sets`' size, integer and range rules, one set at a time, on sets numpy reads as no int array."""
    sets = [[i.item() if isinstance(i, np.generic) else i for i in s] for s in rows]
    for s in sets:
        if len(s) != len(sets[0]):
            raise ValueError(f"{what} {s} differs in size from the first, {sets[0]}")
    for s in sets:
        if not all(map(is_int, s)):
            raise ValueError(f"{what} {s} holds an index that is not an integer")
    for s in sets:
        if not all(0 <= i < d for i in s):
            raise ValueError(f"{what} {s} holds an index outside [0, {d})")
    return np.array(sets, dtype=np.int64)


def accuracy(classifier, x: np.ndarray, y) -> float:
    """Fraction of the rows of ``x`` whose argmax class under ``classifier`` is their label in ``y``."""
    pred = classifier.predict_proba(np.asarray(x, dtype=np.float64)).argmax(axis=1)
    return float((pred == np.asarray(y, dtype=int)).mean())


def check_finite(x: np.ndarray) -> None:
    """ValueError naming the row and column of the first non-finite value of an (n, d) array, if any."""
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite feature value {float(x[row, col])!r} (row {row}, column {col})")


@dataclass(frozen=True)
class MedianRankReport:
    """Per-sample median ranks of the true features, with box-plot summary."""

    per_sample: np.ndarray
    summary: dict
    optimal_median: float
    d: int


def median_rank(scores, truths, d: int) -> MedianRankReport:
    """Score feature rankings against known true features.

    ``scores``: (n, d), one score row per sample.  ``truths``: (n, t), the
    matching ground-truth index sets (see :func:`index_sets`); the
    optimal per-sample value (t+1)/2 is reported alongside.
    """
    if len(scores) != len(truths):
        raise ValueError(f"{len(scores)} score vectors vs {len(truths)} truth sets")
    if len(scores) == 0:
        raise ValueError("need at least one sample")
    truth = index_sets(truths, d, "truth set")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != d:
        raise ValueError(f"scores have shape {scores.shape}, expected ({len(truth)}, {d})")
    per_sample = np.median(np.take_along_axis(ranks_of(scores), truth, axis=1), axis=1)

    q1, med, q3 = np.percentile(per_sample, [25.0, 50.0, 75.0])
    summary = {
        "min": float(per_sample.min()),
        "q1": float(q1),
        "median": float(med),
        "mean": float(per_sample.mean()),
        "q3": float(q3),
        "max": float(per_sample.max()),
    }
    return MedianRankReport(per_sample=per_sample, summary=summary, optimal_median=(truth.shape[1] + 1) / 2.0, d=d)


@dataclass(frozen=True)
class PostHocReport:
    """Fraction of samples where masked and full predictions agree."""

    accuracy: float
    n: int
    k: int
    method: str


def post_hoc_accuracy(classifier, x: np.ndarray, selections, method: str = "") -> PostHocReport:
    """Agreement of argmax predictions on masked vs full inputs.

    ``selections`` is (n, k): one selected-index set per row of ``x``
    (see :func:`index_sets`); the complement of each is zeroed before the
    masked prediction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be (n, d), got shape {x.shape}")
    n, d = x.shape
    if len(selections) != n:
        raise ValueError(f"{len(selections)} selections for {n} samples")
    if n == 0:
        raise ValueError("need at least one sample")
    check_finite(x)
    sel = index_sets(selections, d, "selection")

    rows = np.arange(n)[:, None]
    masked = np.zeros_like(x)
    masked[rows, sel] = x[rows, sel]

    full_pred = np.argmax(classifier.predict_proba(x), axis=1)
    masked_pred = np.argmax(classifier.predict_proba(masked), axis=1)
    matches = int((full_pred == masked_pred).sum())
    return PostHocReport(accuracy=matches / n, n=n, k=sel.shape[1], method=method)


def _csv_field(text) -> str:
    """One field as ``csv.writer`` quotes it."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-3]  # without the empty field's comma and the \r\n


def write_ranks_csv(ranks: dict[str, np.ndarray], dataset: str, path) -> None:
    """Plot-ready long format: one (method, dataset, median_rank) line per sample.

    ``ranks`` maps each method, in the order written, to its per-sample
    median ranks.  Lines end in ``\r\n``.  Each method and the dataset are
    quoted by ``csv.writer`` once; a method's values are formatted as one column.
    """
    dataset = _csv_field(dataset)
    lines = []
    for method, values in ranks.items():
        prefix = f"{_csv_field(method)},{dataset},"
        lines += map(prefix.__add__, float_rows(np.asarray(values, dtype=np.float64)[:, None]))
    with atomic_open(path) as fh:
        fh.write("\r\n".join(["method,dataset,median_rank", *lines, ""]))
