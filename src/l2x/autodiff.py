"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every operation returns a new
:class:`Tensor` that records its inputs and a closure computing the
vector-Jacobian product for its backward rule.  A fresh graph is built
per forward pass; :func:`backward` traverses it once in reverse
topological order, visiting every node that needs a gradient, and
returns one gradient per parameter asked for.  An MLP's pass is
taped as the chain ``relu(add_bias(matmul(h, w), b))`` per layer
(``networks.Mlp.logits_tensor``).  Every node is made by :func:`node`,
which alone decides whether it keeps its vjp.

Who may reuse an array: a node's value and every gradient a vjp returns
are fresh arrays that nothing else writes, and the arrays a node keeps
for its vjp are its own.  Plain-array kernels, which are not ops, serve
without a node the training step (``training``), over arrays it owns,
and the gradient baselines (``explain``), in fresh arrays: the layers
(``dense_array``, ``dense_backward``), bit for bit the per-layer chain
in float64, and the softmax (``softmax_array``, ``softmax_vjp``), which
the :func:`softmax` op wraps.

Deliberate conventions:

* every tensor and every gradient is float64; only the layer kernels
  also run in float32, for training (mixed precision: float32 matmuls
  over float64 master weights, whose bias gradients stay float64),
* no implicit broadcasting (the one exception is :func:`add_bias`, which
  adds a row vector to a matrix),
* ``relu'(0) = 0``,
* ties in ``maximum`` / ``reduce_max`` route the gradient to the lowest
  index (for the binary op: to the first argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "ParameterSet",
    "FiniteDiffReport",
    "constant",
    "parameter",
    "matmul",
    "add",
    "mul",
    "maximum",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "neg",
    "absolute",
    "add_bias",
    "softmax",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "expand",
    "backward",
    "finite_diff_check",
]


class Tensor:
    """A node of the computation graph.

    ``data`` is always a C-contiguous float64 ndarray.  Non-leaf nodes
    carry the operation tag that produced them, references to their
    parents, and a vjp closure over whatever forward values the backward
    rule needs.
    """

    __slots__ = ("data", "op", "parents", "requires_grad", "_vjp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        self._vjp = vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """Leaf that never receives a gradient."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Leaf that :func:`backward` can return a gradient for."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


class ParameterSet(dict):
    """Named trainable tensors: a ``dict`` of name -> :class:`Tensor`.

    Insertion order makes gradient dictionaries reproducible across runs.
    """

    def add(self, name: str, data) -> Tensor:
        if name in self:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = self[name] = parameter(data)
        return t

    def merge(self, prefix: str, other: "ParameterSet") -> None:
        """Adopt another set's tensors (shared by reference) under ``prefix.name``."""
        for name, t in other.items():
            full = f"{prefix}.{name}"
            if full in self:
                raise ValueError(f"duplicate parameter name {full!r}")
            self[full] = t

    def names(self) -> list[str]:
        return list(self)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shapes disagree: {a.shape} vs {b.shape}")


def node(out: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """The tape node ``op`` of value ``out``: every op here is made by it.

    The node needs a gradient, and keeps ``vjp``, only when a parent
    needs one; otherwise it keeps no vjp, so a backward pass never calls
    it.  Not an op (not in ``__all__``): it computes nothing itself.
    """
    rg = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=rg, op=op, parents=parents, vjp=vjp if rg else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expects rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g: np.ndarray):
        return g @ bd.T, ad.T @ g

    return node(np.matmul(ad, bd), "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("add", a, b)
    return node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("mul", a, b)
    ad, bd = a.data, b.data
    return node(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("maximum", a, b)
    take_a = a.data >= b.data

    def vjp(g: np.ndarray):
        return g * take_a, g * ~take_a

    return node(np.maximum(a.data, b.data), "maximum", (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0  # relu'(0) = 0
    return node(a.data * mask, "relu", (a,), lambda g: (g * mask,))


# plain-array kernels, shared with the untaped paths and the training step; not ops, so not in __all__
def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic of a plain array, without overflow at either tail."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = sigmoid_array(a.data)
    return node(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return node(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if not np.all(a.data > 0.0):
        bad = float(a.data.min())
        raise ValueError(f"log: input must be strictly positive, got minimum {bad}")
    ad = a.data
    return node(np.log(ad), "log", (a,), lambda g: (g / ad,))


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return node(-a.data, "neg", (a,), lambda g: (-g,))


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)  # subgradient 0 at 0
    return node(np.abs(a.data), "abs", (a,), lambda g: (g * sign,))


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Add a length-n row vector to every row of an (m, n) matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias: expects (m, n) + (n,), got {a.shape} + {b.shape}")
    return node(a.data + b.data, "add_bias", (a, b), lambda g: (g, g.sum(axis=0)))


def dense_array(h: np.ndarray, params, kept: list | None = None, arrays=None) -> np.ndarray:
    """The layers ``params`` = (w0, b0, w1, b1, ...) over a (batch, k) array.

    Each layer is ``h @ w + b`` in one buffer, then a relu on every layer
    but the last (relu of a negative is -0.0).  A layer's input is freed
    once the next layer is computed, unless ``kept`` is a list: then it
    receives every layer's (input, relu mask or None), for
    :func:`dense_backward`.  Its memory grows with the batch, so the
    untaped pass over a dataset calls it on one block of rows at a time
    (``networks.map_blocks``).  Each layer's output and mask are new
    arrays, or with ``arrays`` the (output, mask or None) pair it lists
    for the layer, written in place.
    """
    last = len(params) - 2
    for i in range(0, len(params), 2):
        w = params[i]
        out, mask = arrays[i // 2] if arrays is not None else (None, None)
        out = np.matmul(h, w, out=out)
        out += params[i + 1]
        if i < last:
            mask = np.greater(out, 0.0, out=mask)
            out *= mask
        if kept is not None:
            kept.append((h, mask))
        h = out
    return h


def dense_backward(g: np.ndarray, weights, kept: list, grads: list, need_input: bool,
                   overwrite: bool = False) -> np.ndarray | None:
    """The vjp of one :func:`dense_array` pass over plain arrays: ``kept`` is its list, ``weights`` its (w0, w1, ...).

    ``g`` is the gradient of the pass's output, in the compute dtype.
    ``grads`` lists an array per parameter, (w0, b0, w1, ...), to write
    that parameter's gradient into, or None to compute none: a weight's
    in the compute dtype, a bias's summed in float64.  Each hidden
    layer's relu mask is applied in place to a gradient this call
    produced, never to ``g``.  Returns the input's gradient if
    ``need_input``, else None; with ``overwrite`` each layer's input
    gradient is written over its kept input, which nothing reads again.
    """
    for i in reversed(range(len(kept))):
        hd, mask = kept[i]
        if mask is not None:
            g *= mask  # relu'(0) = 0; g came from the layer above, in this call
        if grads[2 * i + 1] is not None:
            g.sum(axis=0, dtype=np.float64, out=grads[2 * i + 1])
        if grads[2 * i] is not None:
            np.matmul(hd.T, g, out=grads[2 * i])
        g = np.matmul(g, weights[i].T, out=hd if overwrite else None) if i or need_input else None
    return g


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Softmax of a plain float64 array over the last axis, computed with max-subtraction, in place: ``z`` is returned.

    The max is taken one column at a time (exact, so in any order); the
    normalizing sum is numpy's reduction over the axis.
    """
    top = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j : j + 1], out=top)
    z -= top
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_vjp(g: np.ndarray, out: np.ndarray, inv_t: float = 1.0) -> np.ndarray:
    """The vjp of a softmax at temperature ``1 / inv_t`` with output ``out``, written over ``g`` (the caller's)."""
    inner = np.multiply(g, out).sum(axis=-1, keepdims=True)
    g -= inner
    g *= out
    g *= inv_t
    return g


def softmax(a: Tensor, temperature: float = 1.0) -> Tensor:
    """Temperature softmax over the last axis, computed with max-subtraction."""
    a = _as_tensor(a)
    if not temperature > 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    out = softmax_array(a.data / temperature)
    inv_t = 1.0 / temperature
    return node(out, "softmax", (a,), lambda g: (softmax_vjp(g.copy(), out, inv_t),))


def _axes(op: str, a: Tensor, axis: int | None) -> tuple[int, ...]:
    """The axes a reduction runs over: all of them for None."""
    if axis is None:
        return tuple(range(a.data.ndim))
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"{op}: axis {axis} invalid for shape {a.shape}")
    return (axis % a.data.ndim,)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ax = _axes("sum", a, axis)
    out = a.data.sum(axis=ax)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g.reshape(out.shape), ax), a.shape),)

    return node(out, "sum", (a,), vjp)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ax = _axes("mean", a, axis)
    out = a.data.mean(axis=ax)
    n = math.prod(a.shape[i] for i in ax)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g.reshape(out.shape) / n, ax), a.shape),)

    return node(out, "mean", (a,), vjp)


def reduce_max(a: Tensor, axis: int | None = None) -> Tensor:
    """Max reduction; the gradient flows to the first (lowest-index) argmax."""
    a = _as_tensor(a)
    # over all axes, the flattened input puts ties in row-major order
    flat = a.data.reshape(-1) if axis is None else a.data
    ax = 0 if axis is None else _axes("max", a, axis)[0]
    idx = np.expand_dims(flat.argmax(axis=ax), ax)
    out = flat.max(axis=ax)

    def vjp(g: np.ndarray):
        grad = np.zeros(flat.shape)
        np.put_along_axis(grad, idx, np.expand_dims(g.reshape(out.shape), ax), axis=ax)
        return (grad.reshape(a.shape),)

    return node(out, "max", (a,), vjp)


def expand(a: Tensor, axis: int, reps: int) -> Tensor:
    """Insert a new axis of length ``reps`` by repeating the tensor."""
    a = _as_tensor(a)
    if reps < 1:
        raise ValueError(f"expand: reps must be >= 1, got {reps}")
    if not 0 <= axis <= a.data.ndim:
        raise ValueError(f"expand: axis {axis} invalid for shape {a.shape}")
    out = np.repeat(np.expand_dims(a.data, axis), reps, axis=axis)
    return node(out, "expand", (a,), lambda g: (g.sum(axis=axis),))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """``root`` and every node under it that needs a gradient, parents first."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, params: ParameterSet) -> dict[str, np.ndarray]:
    """Gradient of a scalar root with respect to each of ``params``, by name.

    One reverse sweep visits every node that needs a gradient, whether or
    not it leads to one of ``params``; a parameter the root does not
    depend on gets zeros.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")

    # a leaf's gradient stays here; every other node's is dropped once used
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(_topo_order(root)):
        if node._vjp is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node.parents, node._vjp(g)):
            if not p.requires_grad:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
    return {name: grads[id(t)] if id(t) in grads else np.zeros_like(t.data) for name, t in params.items()}


# relative disagreement of one-sided slopes above which finite_diff_check takes a coordinate for a kink
KINK_TOL = 1e-2


@dataclass
class FiniteDiffReport:
    """Outcome of a central-difference gradient check.

    ``excluded`` holds coordinates sitting on non-differentiable points
    (one-sided slopes disagree); ``unresolved`` holds coordinates whose
    derivative is smaller than the float64 roundoff noise of the
    difference quotient, where no finite-difference oracle can certify
    anything.  Neither kind counts as a failure.
    """

    max_rel_error: float
    worst: tuple[str, int] | None = None
    excluded: list[tuple[str, int]] = field(default_factory=list)
    unresolved: list[tuple[str, int]] = field(default_factory=list)
    n_checked: int = 0


def finite_diff_check(
    f: Callable[[], Tensor],
    params: ParameterSet,
    step: float = 1e-6,
) -> FiniteDiffReport:
    """Compare ``backward`` gradients of ``f()`` against central differences.

    ``f`` must be deterministic (any noise it uses held fixed) and is
    re-evaluated with each parameter coordinate perturbed by ``±step``.
    Relative error uses the denominator ``max(1e-8, |analytic| + |numeric|)``.
    Coordinates where the one-sided slopes disagree by more than
    :data:`KINK_TOL` (relative) sit on a non-differentiable point and are
    excluded rather than failed; coordinates where analytic and numeric
    derivative are both below the roundoff resolution of the quotient
    are reported as unresolved rather than failed.
    """
    if not step > 0.0:
        raise ValueError(f"finite_diff_check: step must be positive, got {step}")
    root = f()
    analytic = backward(root, params)
    f0 = root.item()
    # cancellation noise of (f(x+h) - f(x-h)) / 2h, with certification headroom:
    # below this, a relative comparison at ~1e-4 is meaningless
    eps = np.finfo(np.float64).eps
    resolution_floor = 1e4 * 4.0 * eps * max(1.0, abs(f0)) / step

    report = FiniteDiffReport(max_rel_error=0.0)
    for name, t in params.items():
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig

            d_plus = (f_plus - f0) / step
            d_minus = (f0 - f_minus) / step
            if abs(d_plus - d_minus) > KINK_TOL * (abs(d_plus) + abs(d_minus) + 1.0):
                report.excluded.append((name, i))
                continue

            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[i])
            if abs(a) < resolution_floor and abs(numeric) < resolution_floor:
                report.unresolved.append((name, i))
                continue
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            report.n_checked += 1
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst = (name, i)
    return report
