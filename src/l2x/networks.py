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
audited.  Each offers two forward paths through one layer loop,
``autodiff.dense_array``: a taped one, where ``autodiff.dense`` records
the whole pass through the layers as one node, and a plain ndarray one
for inference, which runs ``files.BLOCK_ROWS`` rows at a time
(:func:`map_blocks`) so that its activations stay near the cache size
whatever the number of rows.  A network holds its parameters in one flat
float64 ``buffer``, in the order of ``MlpSpec.layout()``, and ``params``
names views of it; :meth:`MlpSpec.split` alone works out where each
tensor lies, for the buffer, the training gradient block and the
checkpoint payload.  Both paths compute in float64 by default, with
identical arithmetic.  The training loops and the gradient baselines
(``explain``) run neither: they call the same layer loop and its
backward kernel, ``autodiff.dense_backward``, over plain arrays (the
training step in float32, mixed precision; see ``training``).

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
from bisect import bisect_left
from dataclasses import asdict, dataclass

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

    @property
    def size(self) -> int:
        """The number of parameters, the length of a flat buffer holding them all."""
        return sum(math.prod(shape) for _, shape in self.layout())

    def split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a flat array of :attr:`size` entries, one per tensor of :meth:`layout`: the one offset rule."""
        if flat.shape != (self.size,):
            raise ValueError(f"expected a flat array of {self.size} entries, got shape {flat.shape}")
        views, start = {}, 0
        for name, shape in self.layout():
            views[name] = flat[start : start + math.prod(shape)].reshape(shape)
            start += views[name].size
        return views

    def to_dict(self) -> dict:
        return {**asdict(self), "activation": ACTIVATION}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        if not isinstance(d, dict):
            raise ValueError(f"spec must be a JSON object, got {d!r}")
        if d.get("activation", ACTIVATION) != ACTIVATION:
            raise ValueError(f"only {ACTIVATION} hidden activations are supported, got {d['activation']!r}")
        return cls(d["layer_widths"], d["head"])


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParameterSet:
    """Glorot-uniform weights, zero biases, in the order of ``spec.layout()``."""
    params = ParameterSet()
    for name, shape in spec.layout():
        if name[0] == "w":
            a = np.sqrt(6.0 / sum(shape))
            params.add(name, rng.uniform(-a, a, size=shape))
        else:
            params.add(name, np.zeros(shape))
    return params


class Mlp:
    """Relu MLP in the role ``kind``, one of :data:`ROLES`, over a copy of ``params`` in one flat ``buffer``.

    ValueError unless ``spec`` has the role's head and, for an explainer,
    one output per input, and unless ``params`` (a :class:`ParameterSet`)
    holds ``spec.layout()``'s names and shapes, in order.  ``params``
    names views of ``buffer``.  Every pass adds its rows to ``eval_count``.
    """

    def __init__(self, kind: str, spec: MlpSpec, params: ParameterSet):
        head = ROLES.get(kind) if isinstance(kind, str) else None
        if head is None:
            raise ValueError(f"unknown network kind {kind!r}; expected one of {tuple(ROLES)}")
        if spec.head != head:
            raise ValueError(f"{kind} requires a {head} head")
        if kind == "explainer" and spec.output_width != spec.input_width:
            raise ValueError(f"explainer must emit one score per feature: "
                             f"input {spec.input_width}, output {spec.output_width}")
        layout = spec.layout()
        if len(params) != len(layout):
            raise ValueError(f"expected {len(layout)} parameter tensors, got {len(params)}")
        given = [(name, t.shape) for name, t in params.items()]
        if given != layout:
            raise ValueError(f"parameter tensors {given} do not match the architecture's {layout}")
        self.kind = kind
        self.spec = spec
        self.buffer = np.concatenate([t.data.ravel() for t in params.values()])
        self.params = ParameterSet(zip(params, map(ad.parameter, spec.split(self.buffer).values())))
        self.eval_count = 0

    def reset_eval_count(self) -> None:
        self.eval_count = 0

    def _evaluate(self, x) -> list:
        """Check a (batch, d) input and count its rows; the parameters in layout order (w0, b0, w1, ...)."""
        if len(x.shape) != 2:
            raise ValueError(f"expected (batch, d) input, got shape {x.shape}")
        if x.shape[1] != self.spec.input_width:
            raise ValueError(f"{self.kind} expects input width {self.spec.input_width}, got {x.shape[1]}")
        self.eval_count += x.shape[0]
        return list(self.params.values())

    def logits_tensor(self, x: Tensor, dtype=np.float64) -> Tensor:
        """Taped pass through the layers over a (batch, d) input, before the head: one node.

        ``dtype`` is the node's compute dtype (see ``autodiff.dense``).
        """
        return ad.dense(x, self._evaluate(x), dtype)

    def forward_tensor(self, x: Tensor, dtype=np.float64) -> Tensor:
        """Taped forward pass over a (batch, d) input; the head is float64 whatever ``dtype``."""
        h = self.logits_tensor(x, dtype)
        return ad.softmax(h) if self.spec.head == "softmax" else h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass; accepts (batch, d) or a single (d,) row.

        Runs :func:`map_blocks`: beyond one block, a row's matrix products
        may round differently from those of one pass over every row.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        rows = x[None, :] if single else x
        weights = [t.data for t in self._evaluate(rows)]
        softmax = self.spec.head == "softmax"

        def block(part):
            h = ad.dense_array(part, weights)
            return ad.softmax_array(h) if softmax else h

        out = map_blocks(block, rows)
        return out[0] if single else out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _build(kind: str, widths: tuple[int, ...], rng: np.random.Generator) -> Mlp:
    spec = MlpSpec(widths, ROLES[kind])
    return Mlp(kind, spec, init_params(spec, rng))


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
    """Self-describing byte encoding; round-trips parameters bit for bit."""
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
    start, size, names = 12 + header_len, spec.size, [name for name, _ in layout]
    present = min(size, (len(payload) - start) // 8)
    values = np.frombuffer(payload, dtype="<f8", count=present, offset=start)
    last = [int(view.flat[-1]) for view in spec.split(np.arange(size)).values()]  # each tensor's last entry
    whole = bisect_left(last, present)  # the tensors read in full
    bad = np.flatnonzero(~np.isfinite(values))
    at = bisect_left(last, bad[0]) if bad.size else len(names)  # the first tensor holding a non-finite value
    if at < whole:
        raise ModelFormatError(f"tensor {names[at]!r} holds a non-finite value", offset=start + 8 * int(bad[0]))
    if whole < len(names):
        raise ModelFormatError(f"truncated payload for tensor {names[whole]!r}", offset=len(payload))
    if start + 8 * size != len(payload):
        raise ModelFormatError("trailing bytes after final tensor", offset=start + 8 * size)
    try:
        return Mlp(kind, spec, ParameterSet(zip(names, map(ad.parameter, spec.split(values).values()))))
    except ValueError as e:
        raise ModelFormatError(str(e), offset=12) from None


def save_model(net: Mlp, path) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(serialize(net))


def load_model(path, kind: str | None = None) -> Mlp:
    """Read a checkpoint; with ``kind``, reject a network of any other kind."""
    with open(path, "rb") as fh:
        net = deserialize(fh.read())
    if kind is not None and net.kind != kind:
        article = "an" if net.kind[0] in "aeiou" else "a"
        raise ModelFormatError(f"{path} holds {article} {net.kind} network; expected kind {kind!r}")
    return net
