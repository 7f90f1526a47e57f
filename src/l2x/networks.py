"""The three networks and their byte format.

* ``Classifier`` is the black box being explained: its softmax output is
  read as a conditional distribution over classes, and it counts how
  often it has been evaluated so explanation cost can be audited.
* ``Explainer`` maps an input to one importance score per feature; the
  scores feed the subset-sampling relaxation as unnormalized log-weights.
* ``VariationalNet`` approximates the class distribution given only a
  masked input.

All are plain MLPs: relu hidden layers, optional softmax head, Glorot
uniform initialization.  Each offers two forward paths with identical
arithmetic, both one fused dense kernel per layer (``autodiff.dense`` on
the tape, ``autodiff.dense_array`` on plain arrays): a taped one for
training and a plain ndarray one for inference.

Serialized form: magic ``L2XM``, u32 format version, u32 header length,
a JSON header naming the kind / architecture / tensor layout, then the
raw little-endian float64 tensor payloads in header order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import ModelFormatError, ModelVersionError
from .files import atomic_open

__all__ = [
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


class MlpSpec:
    """Architecture description: layer widths, activation, output head."""

    __slots__ = ("layer_widths", "head", "activation")

    def __init__(self, layer_widths, head: str, activation: str = "relu"):
        widths = tuple(int(w) for w in layer_widths)
        if len(widths) < 3:
            raise ValueError(f"need input, at least one hidden, and output width, got {widths}")
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        if head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {head!r}")
        if activation != "relu":
            raise ValueError(f"only relu hidden activations are supported, got {activation!r}")
        self.layer_widths = widths
        self.head = head
        self.activation = activation

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]

    def to_dict(self) -> dict:
        return {
            "layer_widths": list(self.layer_widths),
            "head": self.head,
            "activation": self.activation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(d["layer_widths"], d["head"], d.get("activation", "relu"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MlpSpec)
            and self.layer_widths == other.layer_widths
            and self.head == other.head
            and self.activation == other.activation
        )

    def __repr__(self) -> str:
        return f"MlpSpec({self.layer_widths}, head={self.head!r})"


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParameterSet:
    """Glorot-uniform weights, zero biases, in layer order w0, b0, w1, b1, ..."""
    params = ParameterSet()
    widths = spec.layer_widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        params.add(f"w{i}", rng.uniform(-a, a, size=(fan_in, fan_out)))
        params.add(f"b{i}", np.zeros(fan_out))
    return params


class Mlp:
    """Relu MLP over a :class:`ParameterSet`; subclasses fix the role."""

    kind = "mlp"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        expected = 2 * (len(spec.layer_widths) - 1)
        if len(params) != expected:
            raise ValueError(f"expected {expected} parameter tensors, got {len(params)}")
        self.spec = spec
        self.params = params

    @classmethod
    def build(cls, spec: MlpSpec, rng: np.random.Generator):
        return cls(spec, init_params(spec, rng))

    def _check_width(self, width: int) -> None:
        if width != self.spec.input_width:
            raise ValueError(
                f"{self.kind} expects input width {self.spec.input_width}, got {width}"
            )

    def _layers(self):
        """(weight, bias, relu?) of each layer, input to output; the last has no relu."""
        n_layers = len(self.spec.layer_widths) - 1
        return [(self.params[f"w{i}"], self.params[f"b{i}"], i < n_layers - 1) for i in range(n_layers)]

    def logits_tensor(self, x: Tensor) -> Tensor:
        """Taped pass through the layers over a (batch, d) input, before the head."""
        if x.data.ndim != 2:
            raise ValueError(f"expected (batch, d) input, got shape {x.shape}")
        self._check_width(x.shape[1])
        h = x
        for w, b, relu in self._layers():
            h = ad.dense(h, w, b, relu)
        return h

    def forward_tensor(self, x: Tensor) -> Tensor:
        """Taped forward pass over a (batch, d) input."""
        h = self.logits_tensor(x)
        return ad.softmax(h) if self.spec.head == "softmax" else h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass; accepts (batch, d) or a single (d,) row."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2:
            raise ValueError(f"expected (batch, d) input, got shape {x.shape}")
        self._check_width(x.shape[1])
        h = x
        for w, b, relu in self._layers():
            h = ad.dense_array(h, w.data, b.data, relu)
        out = ad.softmax_array(h) if self.spec.head == "softmax" else h
        return out[0] if single else out


class Classifier(Mlp):
    """The black box P(y | x); every evaluated row bumps ``eval_count``."""

    kind = "classifier"

    def __init__(self, spec: MlpSpec, params: ParameterSet):
        if spec.head != "softmax":
            raise ValueError("classifier requires a softmax head")
        super().__init__(spec, params)
        self.eval_count = 0

    def logits_tensor(self, x: Tensor) -> Tensor:
        self.eval_count += x.shape[0]
        return super().logits_tensor(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        self.eval_count += 1 if out.ndim == 1 else out.shape[0]
        return out

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


def build_classifier(
    d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...] = (200, 200, 200)
) -> Classifier:
    return Classifier.build(MlpSpec((d, *hidden, n_classes), head="softmax"), rng)


def build_explainer(
    d: int, rng: np.random.Generator, hidden: tuple[int, ...] = (200, 200)
) -> Explainer:
    return Explainer.build(MlpSpec((d, *hidden, d), head="linear"), rng)


def build_variational(
    d: int, n_classes: int, rng: np.random.Generator, hidden: tuple[int, ...] = (200, 200, 200)
) -> VariationalNet:
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
    """Inverse of :func:`serialize`; never yields a partially-loaded network."""
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
        names = [name for name, _ in tensors]
        if not all(isinstance(name, str) for name in names) or len(set(names)) != len(names):
            raise ValueError("tensor names are not distinct strings")
        if not all(0 <= s <= len(payload) for _, shape in tensors for s in shape):
            raise ValueError("a tensor dimension is negative or larger than the payload")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"malformed header: {e}", offset=12) from None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ModelFormatError(f"unknown network kind {kind!r}", offset=12)

    params = ParameterSet()
    cursor = 12 + header_len
    for name, shape in tensors:
        end = cursor + 8 * math.prod(shape)
        if end > len(payload):
            raise ModelFormatError(f"truncated payload for tensor {name!r}", offset=len(payload))
        params.add(name, np.frombuffer(payload[cursor:end], dtype="<f8").reshape(shape).copy())
        cursor = end
    if cursor != len(payload):
        raise ModelFormatError("trailing bytes after final tensor", offset=cursor)

    net = _KINDS[kind](spec, params)
    # architecture and payload must agree layer by layer
    widths = spec.layer_widths
    for i in range(len(widths) - 1):
        for name, want in ((f"w{i}", (widths[i], widths[i + 1])), (f"b{i}", (widths[i + 1],))):
            if name not in params or params[name].data.shape != want:
                raise ModelFormatError(f"tensor {name!r} missing or not of shape {want}", offset=12)
    return net


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
