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
whatever the number of rows.  Parameters are always float64: a built
network's, which training steps, are views of one flat buffer in the
order of ``MlpSpec.layout()``; a loaded one keeps an array per tensor.
Both paths compute in float64 by default, with identical arithmetic.
The training loops run neither: their step casts the weights to float32
and runs the same layer loop over arrays it owns (mixed precision; see
``training``).

Serialized form: magic ``L2XM``, u32 format version, u32 header length,
a JSON header naming the kind / architecture / tensor layout, then the
raw little-endian float64 tensor payloads in header order.  The header's tensor
list must equal the architecture's ``MlpSpec.layout()``, so the
architecture alone fixes every tensor's name, shape and position.
"""

from __future__ import annotations

import json
import math
import struct
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
    """Glorot-uniform weights, zero biases, in the order of ``spec.layout()``: views of one float64 buffer."""
    layout = spec.layout()
    buffer = np.zeros(sum(math.prod(shape) for _, shape in layout))
    params, start = ParameterSet(), 0
    for name, shape in layout:
        view = buffer[start : start + math.prod(shape)].reshape(shape)
        start += view.size
        if name[0] == "w":
            a = np.sqrt(6.0 / sum(shape))
            view[...] = rng.uniform(-a, a, size=shape)
        params.add(name, view)
    return params


class Mlp:
    """Relu MLP over a :class:`ParameterSet` in the role ``kind``, one of :data:`ROLES`.

    ValueError unless ``spec`` has the role's head and, for an explainer,
    one output per input.  Every pass adds its rows to ``eval_count``.
    """

    def __init__(self, kind: str, spec: MlpSpec, params: ParameterSet):
        head = ROLES.get(kind) if isinstance(kind, str) else None
        if head is None:
            raise ValueError(f"unknown network kind {kind!r}; expected one of {tuple(ROLES)}")
        if spec.head != head:
            raise ValueError(f"{kind} requires a {head} head")
        if kind == "explainer" and spec.output_width != spec.input_width:
            raise ValueError(
                f"explainer must emit one score per feature: "
                f"input {spec.input_width}, output {spec.output_width}"
            )
        if len(params) != len(spec.layout()):
            raise ValueError(f"expected {len(spec.layout())} parameter tensors, got {len(params)}")
        self.kind = kind
        self.spec = spec
        self.params = params
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

    def logits_tensor(self, x: Tensor, dtype=np.float64, frozen: bool = False) -> Tensor:
        """Taped pass through the layers over a (batch, d) input, before the head: one node.

        ``dtype`` is the node's compute dtype (see ``autodiff.dense``).
        ``frozen`` puts the weights on the tape as constants, so the node
        computes no gradient for them.
        """
        params = self._evaluate(x)
        return ad.dense(x, [t.data for t in params] if frozen else params, dtype)

    def forward_tensor(self, x: Tensor, dtype=np.float64, frozen: bool = False) -> Tensor:
        """Taped forward pass over a (batch, d) input; the head is float64 whatever ``dtype``."""
        h = self.logits_tensor(x, dtype, frozen)
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
    tensors = [{"name": name, "shape": list(t.data.shape)} for name, t in net.params.items()]
    header = {"kind": net.kind, "spec": net.spec.to_dict(), "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(header_bytes)), header_bytes]
    for t in net.params.values():
        parts.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return b"".join(parts)


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

    # one array per tensor: a loaded network is for inference and is never stepped
    params = ParameterSet()
    cursor = 12 + header_len
    for name, shape in layout:
        end = cursor + 8 * math.prod(shape)
        if end > len(payload):
            raise ModelFormatError(f"truncated payload for tensor {name!r}", offset=len(payload))
        values = np.frombuffer(payload[cursor:end], dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ModelFormatError(f"tensor {name!r} holds a non-finite value", offset=cursor + 8 * int(bad[0]))
        params.add(name, values.reshape(shape).copy())
        cursor = end
    if cursor != len(payload):
        raise ModelFormatError("trailing bytes after final tensor", offset=cursor)
    try:
        return Mlp(kind, spec, params)
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
        raise ModelFormatError(f"{path} holds a {net.kind} network; expected kind {kind!r}")
    return net
