"""The three networks and their byte format.

* ``Classifier`` is the black box being explained: its softmax output is
  read as a conditional distribution over classes, and it counts how
  often it has been evaluated so explanation cost can be audited.
* ``Explainer`` maps an input to one importance score per feature; the
  scores feed the subset-sampling relaxation as unnormalized log-weights.
* ``VariationalNet`` approximates the class distribution given only a
  masked input.

All are plain MLPs: relu hidden layers, optional softmax head, Glorot
uniform initialization.  Each offers two forward paths through one layer
loop, ``autodiff.dense_array``: a taped one, where ``autodiff.dense``
records the whole pass through the layers as one node, and a plain
ndarray one for inference, which runs ``files.BLOCK_ROWS`` rows at a time
(:func:`map_blocks`) so that its activations stay near the cache size
whatever the number of rows.  Parameters are always float64.  Inference
and the taped pass at its default dtype compute in float64, with
identical arithmetic; the training loops run the taped pass with float32
matmuls, and the node casts the float64 weights for each call (mixed
precision).

Serialized form: magic ``L2XM``, u32 format version, u32 header length,
a JSON header naming the kind / architecture / tensor layout, then the
raw little-endian float64 tensor payloads in header order.  The header's
tensor list must equal the architecture's ``MlpSpec.layout()``, so the
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
    "Mlp",
    "Classifier",
    "Explainer",
    "VariationalNet",
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
ACTIVATION = "relu"  # of every hidden layer; recorded in the checkpoint header


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
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 3:
            raise ValueError(f"need input, at least one hidden, and output width, got {widths}")
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
    """Relu MLP over a :class:`ParameterSet`; subclasses fix the role."""

    kind = "mlp"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        if len(params) != len(spec.layout()):
            raise ValueError(f"expected {len(spec.layout())} parameter tensors, got {len(params)}")
        self.spec = spec
        self.params = params

    @classmethod
    def build(cls, spec: MlpSpec, rng: np.random.Generator):
        return cls(spec, init_params(spec, rng))

    def _layers(self, x, kernel):
        """``kernel(x, params)`` over a (batch, d) input, params in layout order (w0, b0, w1, ...)."""
        if len(x.shape) != 2:
            raise ValueError(f"expected (batch, d) input, got shape {x.shape}")
        if x.shape[1] != self.spec.input_width:
            raise ValueError(f"{self.kind} expects input width {self.spec.input_width}, got {x.shape[1]}")
        return kernel(x, list(self.params.values()))

    def logits_tensor(self, x: Tensor, dtype=np.float64, frozen: bool = False) -> Tensor:
        """Taped pass through the layers over a (batch, d) input, before the head: one node.

        ``dtype`` is the node's compute dtype (see ``autodiff.dense``).
        ``frozen`` puts the weights on the tape as constants, so the node
        computes no gradient for them.
        """
        return self._layers(
            x, lambda h, params: ad.dense(h, [t.data for t in params] if frozen else params, dtype)
        )

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
        out = self._layers(x[None, :] if single else x, self._untaped)
        return out[0] if single else out

    def _untaped(self, x: np.ndarray, params) -> np.ndarray:
        weights = [t.data for t in params]

        def block(rows):
            h = ad.dense_array(rows, weights)
            return ad.softmax_array(h) if self.spec.head == "softmax" else h

        return map_blocks(block, x)


class Classifier(Mlp):
    """The black box P(y | x); every evaluated row bumps ``eval_count``."""

    kind = "classifier"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        if spec.head != "softmax":
            raise ValueError("classifier requires a softmax head")
        super().__init__(spec, params)
        self.eval_count = 0

    def _layers(self, x, kernel):
        h = super()._layers(x, kernel)
        self.eval_count += x.shape[0]
        return h

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def reset_eval_count(self) -> None:
        self.eval_count = 0


class Explainer(Mlp):
    """Maps x to one importance score per feature (linear head, width d)."""

    kind = "explainer"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        if spec.head != "linear":
            raise ValueError("explainer requires a linear head")
        if spec.output_width != spec.input_width:
            raise ValueError(
                f"explainer must emit one score per feature: "
                f"input {spec.input_width}, output {spec.output_width}"
            )
        super().__init__(spec, params)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class VariationalNet(Mlp):
    """Approximates the class distribution given a masked input."""

    kind = "variational"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        if spec.head != "softmax":
            raise ValueError("variational net requires a softmax head")
        super().__init__(spec, params)


def build_classifier(d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Classifier:
    return Classifier.build(MlpSpec((d, *hidden, n_classes), head="softmax"), rng)


def build_explainer(d: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> Explainer:
    return Explainer.build(MlpSpec((d, *hidden, d), head="linear"), rng)


def build_variational(d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...]) -> VariationalNet:
    return VariationalNet.build(MlpSpec((d, *hidden, n_classes), head="softmax"), rng)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_KINDS = {"classifier": Classifier, "explainer": Explainer, "variational": VariationalNet}


def serialize(net: Mlp) -> bytes:
    """Self-describing byte encoding; round-trips parameters bit for bit."""
    if net.kind not in _KINDS:
        raise ValueError(f"cannot serialize network of kind {net.kind!r}")
    tensors = [{"name": name, "shape": list(t.data.shape)} for name, t in net.params.items()]
    header = {"kind": net.kind, "spec": net.spec.to_dict(), "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(header_bytes)), header_bytes]
    for _, t in net.params.items():
        parts.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return b"".join(parts)


def deserialize(payload: bytes) -> Mlp:
    """Inverse of :func:`serialize`; never yields a partially-loaded network or a non-finite weight."""
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
        tensors = [(meta["name"], tuple(map(int, meta["shape"]))) for meta in header["tensors"]]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"malformed header: {e}", offset=12) from None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelFormatError(f"unknown network kind {kind!r}", offset=12)
    layout = spec.layout()
    if tensors != layout:
        raise ModelFormatError(f"tensor list does not match the architecture's {layout}", offset=12)

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
    return _KINDS[kind](spec, params)


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
