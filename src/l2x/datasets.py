"""Four synthetic binary-classification benchmarks with known truth.

Each generator draws d=10 features, computes an exact conditional
probability P(Y=1|x) from a logit over a small subset of the features,
and samples the label.  The indices that enter the logit are recorded
per sample as the ground-truth feature set, so explanation quality can
be scored exactly.  A dataset is held as columns: one array per field,
with the truth sets as an (n, t) index array.  Each kind's truth sets
are listed once, in one table; for switch, a row's truth set also tells
which mixture component drew it.

Kinds (feature indices are 0-based throughout, matching the x0..x9 CSV
columns):

* ``xor``: logit x0*x1, truth {0,1}.
* ``orange_skin``: logit x0^2+x1^2+x2^2+x3^2 - 4, truth {0,1,2,3}.
* ``nonlinear_additive``: logit -100*sin(2*x0) + 2|x1| + x2 + exp(-x3),
  truth {0,1,2,3}.  The -100 coefficient is implemented as printed and
  dominates the other terms; override via ``sin_coeff`` to explore.
* ``switch``: x0 is drawn from an equal mixture of N(+3,1) and N(-3,1).
  The +3 component applies the orange-skin form to x1..x4 (truth
  {0,1,2,3,4}); the -3 component applies the additive form to x5..x8
  (truth {0,5,6,7,8}).  x0 is a true feature of both branches since it
  selects the mechanism.

"P(Y=1|X) proportional to exp(logit)" is read as binary logistic
regression: P(Y=1|x) = sigmoid(logit), P(Y=0|x) proportional to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import files
from .autodiff import sigmoid_array
from .errors import CsvFormatError
from .files import atomic_open, float_rows, open_text, parse_blocks

__all__ = [
    "D",
    "N_CLASSES",
    "KINDS",
    "Dataset",
    "canonical_kind",
    "k_for",
    "generate",
    "as_arrays",
    "write_csv",
    "read_csv",
]

D = 10
N_CLASSES = 2

KINDS = ("xor", "orange_skin", "nonlinear_additive", "switch")

# kind -> its truth sets; switch lists the +1 component's set first, the -1 component's second
_TRUTH = {
    "xor": ((0, 1),),
    "orange_skin": ((0, 1, 2, 3),),
    "nonlinear_additive": ((0, 1, 2, 3),),
    "switch": ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)),
}

DEFAULT_SIN_COEFF = -100.0


@dataclass(frozen=True)
class Dataset:
    """n draws as columns: features, exact P(Y=1|x), label, true features.

    ``x`` is (n, d) float64, ``p`` (n,) float64, ``y`` (n,) int.
    ``truth`` is (n, t) int: row i holds the true features of draw i in
    ascending order.
    """

    x: np.ndarray
    p: np.ndarray
    y: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


def canonical_kind(kind: str) -> str:
    """Normalize hyphen/underscore spelling; reject unknown kinds."""
    k = kind.strip().lower().replace("-", "_")
    if k not in KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    return k


def k_for(kind: str) -> int:
    """Number of true features; the conventional subset size for the kind."""
    return len(_TRUTH[canonical_kind(kind)][0])


def _orange_logit(block: np.ndarray) -> np.ndarray:
    return (block**2).sum(axis=1) - 4.0


def _additive_logit(block: np.ndarray, sin_coeff: float) -> np.ndarray:
    return sin_coeff * np.sin(2.0 * block[:, 0]) + 2.0 * np.abs(block[:, 1]) + block[:, 2] + np.exp(-block[:, 3])


def _logits(kind: str, x: np.ndarray, component: np.ndarray, sin_coeff: float) -> np.ndarray:
    if kind == "xor":
        return x[:, 0] * x[:, 1]
    if kind == "orange_skin":
        return _orange_logit(x[:, 0:4])
    if kind == "nonlinear_additive":
        return _additive_logit(x[:, 0:4], sin_coeff)
    # switch: branch per mixture component
    out = np.empty(x.shape[0])
    plus = component == 1
    out[plus] = _orange_logit(x[plus, 1:5])
    out[~plus] = _additive_logit(x[~plus, 5:9], sin_coeff)
    return out


def generate(
    kind: str,
    n: int,
    rng: np.random.Generator | int,
    sin_coeff: float = DEFAULT_SIN_COEFF,
) -> Dataset:
    """Draw n labeled samples of the given kind."""
    kind = canonical_kind(kind)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not np.isfinite(sin_coeff):
        raise ValueError(f"sin_coeff must be finite, got {sin_coeff}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))

    if kind == "switch":
        component = np.where(rng.uniform(size=n) < 0.5, 1, -1)
    else:
        component = np.zeros(n, dtype=int)
    x = rng.standard_normal((n, D))
    if kind == "switch":
        x[:, 0] += 3.0 * component
    p = sigmoid_array(_logits(kind, x, component, sin_coeff))
    y = (rng.uniform(size=n) < p).astype(int)
    truth = np.array(_TRUTH[kind])[(component == -1).astype(int)]
    return Dataset(x=x, p=p, y=y, truth=truth)


def as_arrays(data: Dataset):
    """The (x, p, y, truth) columns of a dataset, without copying."""
    return data.x, data.p, data.y, data.truth


_HEADER = [f"x{i}" for i in range(D)] + ["p", "y", "truth"]
_FIELDS = len(_HEADER)


def _format_block(x, p, y, truth) -> str:
    """CSV text of a run of rows, ``\r\n`` line ends, as ``csv.writer`` writes them."""
    truth = list(map(tuple, truth.tolist()))
    texts = {t: "|".join(map(str, t)) for t in set(truth)}
    cols = (float_rows(np.column_stack((x, p)), ","), map(str, y.tolist()), map(texts.__getitem__, truth))
    return "".join(map("{},{},{}\r\n".format, *cols))


def write_csv(data: Dataset, path) -> None:
    """Write a dataset with full-precision floats (repr round-trips exactly).

    Lines end in ``\r\n``.  Rows are formatted a block at a time, whole
    columns per call, and the file appears only once complete.
    """
    with atomic_open(path) as fh:
        fh.write(",".join(_HEADER) + "\r\n")
        block = files.BLOCK_ROWS
        for i in range(0, len(data), block):
            rows = slice(i, i + block)
            fh.write(_format_block(data.x[rows], data.p[rows], data.y[rows], data.truth[rows]))


def _parse(lines: list[str], t_size: int | None):
    """Columns (xp, y, truth) of a run of body lines, and the truth-set size.

    Each check runs over a whole column, in the order: field count,
    unparseable value, non-finite feature, p outside [0, 1], label not 0
    or 1, empty truth set, truth-set size other than ``t_size`` (that of
    earlier rows, or of the first row when None), truth index outside
    [0, d).  The first check any row fails raises ValueError; its message
    describes the line when the run is one line long, which is how
    :func:`files.parse_blocks` names the first bad line.
    """
    n = len(lines)
    commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, n)
    wrong = np.flatnonzero(commas != _FIELDS - 1)
    if wrong.size:
        r = int(wrong[0])
        got = int(commas[r]) + 1 if lines[r].strip() else 0
        raise ValueError(f"expected {_FIELDS} fields, got {got}")

    cells = "".join(lines).replace("\n", ",").split(",")
    del cells[n * _FIELDS :]  # the empty cell after the last line end
    labels, truths = cells[D + 1 :: _FIELDS], cells[D + 2 :: _FIELDS]
    del cells[D + 2 :: _FIELDS], cells[D + 1 :: D + 2]  # leaves x0..x9, p row after row
    try:
        xp = np.fromiter(map(float, cells), np.float64, n * (D + 1)).reshape(n, D + 1)
        label_of = {text: int(text) for text in set(labels)}
        truth_of = {text: tuple(map(int, text.split("|"))) if text else () for text in set(truths)}
    except ValueError as e:
        raise ValueError(f"unparseable value: {e}") from None

    if not np.isfinite(xp[:, :D]).all():
        raise ValueError("non-finite feature value")
    p = xp[:, D]
    outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if outside.size:
        raise ValueError(f"p={float(p[outside[0]])} outside [0, 1]")
    bad_labels = [label for label in label_of.values() if label not in (0, 1)]
    if bad_labels:
        raise ValueError(f"label {bad_labels[0]} not in {{0, 1}}")
    if () in truth_of.values():
        raise ValueError("empty truth set")
    if t_size is None:
        t_size = len(truth_of[truths[0]])
    bad_sizes = [len(indices) for indices in truth_of.values() if len(indices) != t_size]
    if bad_sizes:
        raise ValueError(f"truth set of size {bad_sizes[0]}, earlier rows have {t_size}")
    bad_indices = [i for indices in truth_of.values() for i in indices if not 0 <= i < D]
    if bad_indices:
        raise ValueError(f"truth index {bad_indices[0]} outside [0, {D})")

    y = np.fromiter(map(label_of.__getitem__, labels), np.int64, n)
    keys = list(truth_of)
    index = dict(zip(keys, range(len(keys))))
    row_key = np.fromiter(map(index.__getitem__, truths), np.intp, n)
    truth = np.array([truth_of[k] for k in keys], dtype=np.int64).reshape(len(keys), t_size)
    return (xp, y, truth[row_key]), t_size


def read_csv(path) -> Dataset:
    """Inverse of :func:`write_csv`; raises with a line number on bad rows.

    The body is read a block of rows at a time, and each block is split
    into cells and parsed a whole column per call, so a large file never
    holds all its cells at once.  Lines may end in ``\r\n`` or ``\n``
    and the last line may have none; fields are never quoted.  Features
    must be finite, p in [0, 1], labels 0 or 1, every truth set must be
    nonempty and have the size of the first, and every truth index must
    lie in [0, d).
    """
    with open_text(path) as fh:  # universal newlines: \r\n arrives as \n
        header = fh.readline()
        if not header:
            raise CsvFormatError("empty file: missing header", line=1)
        header = header.rstrip("\n").split(",")
        if header != _HEADER:
            raise CsvFormatError(f"unexpected header {header!r}", line=1)
        blocks = list(parse_blocks(fh, _parse, CsvFormatError, first=2))
    if not blocks:
        raise CsvFormatError("file contains a header but no samples")
    xp, y, truth = (np.concatenate(column) for column in zip(*blocks))
    return Dataset(x=np.ascontiguousarray(xp[:, :D]), p=xp[:, D].copy(), y=y, truth=truth)
