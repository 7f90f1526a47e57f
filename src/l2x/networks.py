"""The one network class, :class:`Mlp`, in its three roles, and its byte format.

Every network is a plain MLP: relu hidden layers, Glorot uniform
initialization, and the head its role fixes in :data:`ROLES`:

* ``classifier`` (softmax head) is the black box being explained; its
  output is read as a conditional distribution over classes.
* ``explainer`` (linear head, one output per input feature) maps an input
  to importance scores, which feed the subset-sampling relaxation as
  unnormalized log-weights.
* ``variational`` (softmax head) approximates the class distribution
  given only a masked input.

A network's ``kind`` names its role.  Every network counts the rows it
evaluates in ``eval_count``, so the classifier's explanation cost can be
audited.  A network is its spec and one flat float64 ``buffer`` in the
order of ``MlpSpec.layout()``, whose tensors ``views`` names; builders
draw into a zero buffer and :func:`deserialize` hands over its checked
payload.  :meth:`MlpSpec.ends` alone works out where each tensor lies,
for the buffer, the training gradient block and the checkpoint payload,
which :func:`deserialize` checks against it before it allocates anything
of the claimed size; :meth:`MlpSpec.first_non_finite` alone finds the
first tensor holding a non-finite value, for :func:`serialize`,
:func:`deserialize` and the training loops.  The forward pass for
inference runs the layer loop ``autodiff.dense_array`` over
``files.BLOCK_ROWS`` rows at a time (:func:`map_blocks`), so that its
activations stay near the cache size whatever the number of rows.  The
taped pass records the per-op chain ``relu(add_bias(matmul(h, w), b))``
per layer over ``params``, the views' tape tensors, made on first use;
both compute in float64, with identical arithmetic.  Training and the
gradient baselines (``explain``) run the same layer loop over plain
arrays, and its backward: the baselines through
``autodiff.dense_backward``, training through the same arithmetic in
its own loop (see ``training``); so no tape tensor is made outside the
reference graph.

Serialized form: magic ``L2XM``, u32 format version, u32 header length,
a JSON header naming the kind / architecture / tensor layout, then the
network's flat buffer as raw little-endian float64.  The header's tensor
list must equal the architecture's ``MlpSpec.layout()``, so the
architecture alone fixes every tensor's name, shape and position.
"""

from __future__ import annotations

import json
import math
import struct
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import files
from .autodiff import ParameterSet, Tensor
from .errors import ModelFormatError, ModelVersionError
from .files import BLOCK_ROWS, atomic_open  # BLOCK_ROWS re-exported

__all__ = [
    "BLOCK_ROWS",
    "map_blocks",
    "MlpSpec",
    "ROLES",
    "Mlp",
    "build_classifier",
    "build_explainer",
    "build_variational",
    "serialize",
    "deserialize",
    "save_model",
    "load_model",
]

MAGIC = b"L2XM"
FORMAT_VERSION = 1

HEADS = ("softmax", "linear")
# each network kind and the head its role requires
ROLES = {"classifier": "softmax", "explainer": "linear", "variational": "softmax"}
ACTIVATION = "relu"  # of every hidden layer; recorded in the checkpoint header


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def map_blocks(fn, x: np.ndarray) -> np.ndarray:
    """``fn``, which maps rows to as many rows, over ``x`` in blocks of ``files.BLOCK_ROWS`` rows.

    Up to one block (an empty ``x`` included) this is ``fn(x)``; beyond
    it each block's result is written into one preallocated array.
    """
    n, block = len(x), files.BLOCK_ROWS
    if n <= block:
        return fn(x)
    first = fn(x[:block])
    out = np.empty((n, *first.shape[1:]), dtype=first.dtype)
    out[:block] = first
    for start in range(block, n, block):
        out[start : start + block] = fn(x[start : start + block])
    return out


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: layer widths and output head."""

    layer_widths: tuple[int, ...]
    head: str

    def __post_init__(self):
        widths = tuple(self.layer_widths)
        if len(widths) < 3:
            raise ValueError(f"need input, at least one hidden, and output width, got {widths}")
        if not all(map(is_int, widths)):
            raise ValueError(f"widths must be integers, got {widths}")
        widths = tuple(map(int, widths))
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        object.__setattr__(self, "layer_widths", widths)

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every parameter tensor, in the order w0, b0, w1, b1, ..."""
        layout = []
        for i, (fan_in, fan_out) in enumerate(zip(self.layer_widths, self.layer_widths[1:])):
            layout += [(f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
        return layout

    def ends(self) -> list[int]:
        """Where each tensor of :meth:`layout` ends in a flat buffer, in entries: the one offset rule."""
        return list(accumulate(math.prod(shape) for _, shape in self.layout()))

    @property
    def size(self) -> int:
        """The number of parameters, the length of a flat buffer holding them all."""
        return self.ends()[-1]

    def split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat array of :attr:`size` entries, one per tensor of :meth:`layout`, cut at :meth:`ends`."""
        ends = self.ends()
        if flat.shape != (ends[-1],):
            raise ValueError(f"expected a flat array of {ends[-1]} entries, got shape {flat.shape}")
        return {name: flat[start:end].reshape(shape)
                for (name, shape), start, end in zip(self.layout(), [0, *ends], ends)}

    def first_non_finite(self, flat: np.ndarray) -> tuple[str, int] | None:
        """The name of the first tensor of :meth:`layout` holding a non-finite value in ``flat``, and that value's index.

        ``flat`` is a buffer's leading entries, possibly all of them; None
        if every one is finite.
        """
        bad = np.flatnonzero(~np.isfinite(flat))
        if not bad.size:
            return None
        return self.layout()[bisect_right(self.ends(), bad[0])][0], int(bad[0])

    def to_dict(self) -> dict:
        return {**asdict(self), "activation": ACTIVATION}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        if not isinstance(d, dict):
            raise ValueError(f"spec must be a JSON object, got {d!r}")
        if d.get("activation", ACTIVATION) != ACTIVATION:
            raise ValueError(f"only {ACTIVATION} hidden activations are supported, got {d['activation']!r}")
        return cls(d["layer_widths"], d["head"])


class Mlp:
    """Relu MLP in the role ``kind``, one of :data:`ROLES`: ``spec`` and its own copy of the flat ``buffer``.

    ValueError unless ``spec`` has the role's head and, for an explainer,
    one output per input, and unless ``buffer`` holds ``spec.size``
    entries on one axis (``MlpSpec.split``).
    """

    def __init__(self, kind: str, spec: MlpSpec, buffer: np.ndarray):
        head = ROLES.get(kind) if isinstance(kind, str) else None
        if head is None:
            raise ValueError(f"unknown network kind {kind!r}; expected one of {tuple(ROLES)}")
        if spec.head != head:
            raise ValueError(f"{kind} requires a {head} head")
        if kind == "explainer" and spec.output_width != spec.input_width:
            raise ValueError(f"explainer must emit one score per feature: "
                             f"input {spec.input_width}, output {spec.output_width}")
        self.kind = kind
        self.spec = spec
        self.buffer = np.array(buffer, dtype=np.float64)
        self.views = spec.split(self.buffer)
        self.eval_count = 0

    @cached_property
    def params(self) -> ParameterSet:
        """The tape's parameters: one ``ad.parameter`` over each of ``views``, made on first use and kept."""
        return ParameterSet(zip(self.views, map(ad.parameter, self.views.values())))

    def reset_eval_count(self) -> None:
        self.eval_count = 0

    def _evaluate(self, x) -> list[np.ndarray]:
        """Check a (batch, d) input and count its rows; the views in layout order (w0, b0, w1, ...)."""
        if len(x.shape) != 2:
            raise ValueError(f"expected (batch, d) input, got shape {x.shape}")
        if x.shape[1] != self.spec.input_width:
            raise ValueError(f"{self.kind} expects input width {self.spec.input_width}, got {x.shape[1]}")
        self.eval_count += x.shape[0]
        return list(self.views.values())

    def logits_tensor(self, x: Tensor) -> Tensor:
        """Taped pass through the layers over a (batch, d) input, before the head.

        Each layer is ``add_bias(matmul(h, w), b)`` over ``params``, with a
        ``relu`` after every layer but the last: bit for bit
        ``autodiff.dense_array``, values and gradients alike.
        """
        self._evaluate(x)
        params = list(self.params.values())
        h = ad.add_bias(ad.matmul(x, params[0]), params[1])
        for w, b in zip(params[2::2], params[3::2]):
            h = ad.add_bias(ad.matmul(ad.relu(h), w), b)
        return h

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Taped forward pass over a (batch, d) input."""
        h = self.logits_tensor(x)
        return ad.softmax(h) if self.spec.head == "softmax" else h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass over a (batch, d) input.

        Runs :func:`map_blocks`: beyond one block, a row's matrix products
        may round differently from those of one pass over every row.
        """
        x = np.asarray(x, dtype=np.float64)
        weights = self._evaluate(x)
        softmax = self.spec.head == "softmax"

        def block(part):
            h = ad.dense_array(part, weights)
            return ad.softmax_array(h) if softmax else h

        return map_blocks(block, x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _build(kind: str, widths: tuple[int, ...], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights drawn in layout order, zero biases."""
    spec = MlpSpec(widths, ROLES[kind])
    buffer = np.zeros(spec.size)
    for name, view in spec.split(buffer).items():
        if name[0] == "w":
            a = np.sqrt(6.0 / sum(view.shape))
            view[...] = rng.uniform(-a, a, size=view.shape)
    return Mlp(kind, spec, buffer)


def build_classifier(d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Mlp:
    return _build("classifier", (d, *hidden, n_classes), rng)


def build_explainer(d: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Mlp:
    return _build("explainer", (d, *hidden, d), rng)


def build_variational(d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Mlp:
    return _build("variational", (d, *hidden, n_classes), rng)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(net: Mlp) -> bytes:
    """Self-describing byte encoding; round-trips parameters bit for bit.

    ValueError, naming the tensor, for a network holding a non-finite
    value, which :func:`deserialize` would refuse.
    """
    bad = net.spec.first_non_finite(net.buffer)
    if bad is not None:
        raise ValueError(f"{net.kind} tensor {bad[0]!r} holds a non-finite value; a checkpoint must be finite")
    tensors = [{"name": name, "shape": list(shape)} for name, shape in net.spec.layout()]
    header = {"kind": net.kind, "spec": net.spec.to_dict(), "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(header_bytes)), header_bytes,
                     np.ascontiguousarray(net.buffer, dtype="<f8").tobytes()])


def deserialize(payload: bytes) -> Mlp:
    """Inverse of :func:`serialize`; never yields a partially-loaded network or a non-finite weight.

    Every fault is a :class:`ModelFormatError`, non-integer widths or
    shapes and a kind that fails :class:`Mlp`'s role check among them.
    """
    if len(payload) < 12:
        raise ModelFormatError("payload shorter than fixed header", offset=len(payload))
    if payload[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {payload[:4]!r}, expected {MAGIC!r}", offset=0)
    (version,) = struct.unpack("<I", payload[4:8])
    if version != FORMAT_VERSION:
        raise ModelVersionError(f"unsupported format version {version}", offset=4)
    (header_len,) = struct.unpack("<I", payload[8:12])
    if len(payload) < 12 + header_len:
        raise ModelFormatError("truncated header", offset=len(payload))
    try:
        header = json.loads(payload[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"header is not valid JSON: {e}", offset=12) from None

    try:
        kind = header["kind"]
        spec = MlpSpec.from_dict(header["spec"])
        tensors = [(meta["name"], tuple(meta["shape"])) for meta in header["tensors"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"malformed header: {e}", offset=12) from None
    if not all(is_int(n) for _, shape in tensors for n in shape):
        raise ModelFormatError("tensor shapes must be integers", offset=12)
    layout = spec.layout()
    if tensors != layout:
        raise ModelFormatError(f"tensor list does not match the architecture's {layout}", offset=12)

    # the tensor region in one piece; a fault names the first tensor that holds one
    start, ends = 12 + header_len, spec.ends()
    size = ends[-1]
    present = min(size, (len(payload) - start) // 8)
    values = np.frombuffer(payload, dtype="<f8", count=present, offset=start)
    whole = bisect_right(ends, present)  # the tensors read in full
    bad = spec.first_non_finite(values[: [0, *ends][whole]])
    if bad is not None:
        raise ModelFormatError(f"tensor {bad[0]!r} holds a non-finite value", offset=start + 8 * bad[1])
    if whole < len(layout):
        raise ModelFormatError(f"truncated payload for tensor {layout[whole][0]!r}", offset=len(payload))
    if start + 8 * size != len(payload):
        raise ModelFormatError("trailing bytes after final tensor", offset=start + 8 * size)
    try:
        return Mlp(kind, spec, values)
    except ValueError as e:
        raise ModelFormatError(str(e), offset=12) from None


def save_model(net: Mlp, path) -> None:
    payload = serialize(net)
    with atomic_open(path, "wb") as fh:
        fh.write(payload)


def load_model(path, kind: str | None = None) -> Mlp:
    """Read a checkpoint; with ``kind``, reject a network of any other kind."""
    with open(path, "rb") as fh:
        net = deserialize(fh.read())
    if kind is not None and net.kind != kind:
        article = "an" if net.kind[0] in "aeiou" else "a"
        raise ModelFormatError(f"{path} holds {article} {net.kind} network; expected kind {kind!r}")
    return net
