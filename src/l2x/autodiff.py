"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every operation returns a new
:class:`Tensor` that records its inputs and a closure computing the
vector-Jacobian product for its backward rule.  A fresh graph is built
per forward pass; :func:`backward` traverses it once in reverse
topological order and deposits gradients on the leaves, visiting only
the nodes that lead to the parameters asked for.  An MLP layer is one
node, :func:`dense`, bit for bit ``relu(add_bias(matmul(h, w), b))``.

Deliberate conventions:

* float64 everywhere, no implicit broadcasting (the one exception is
  :func:`add_bias`, which adds a row vector to a matrix),
* ``relu'(0) = 0``,
* ties in ``maximum`` / ``reduce_max`` route the gradient to the lowest
  index (for the binary op: to the first argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

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
    "dense",
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

    __slots__ = ("data", "op", "parents", "requires_grad", "grad", "_vjp")

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
        self.grad: np.ndarray | None = None
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
    """Leaf that accumulates a gradient during :func:`backward`."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


class ParameterSet:
    """Named, insertion-ordered collection of trainable tensors.

    Iteration order is the insertion order, which makes optimizer state
    and gradient dictionaries reproducible across runs.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = parameter(data)
        self._params[name] = t
        return t

    def merge(self, prefix: str, other: "ParameterSet") -> None:
        """Adopt another set's tensors (shared by reference) under ``prefix.name``."""
        for name, t in other.items():
            full = f"{prefix}.{name}"
            if full in self._params:
                raise ValueError(f"duplicate parameter name {full!r}")
            self._params[full] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def __iter__(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shapes disagree: {a.shape} vs {b.shape}")


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

    return _node(np.matmul(ad, bd), "matmul", (a, b), vjp)


def _node(out: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    rg = any(p.requires_grad for p in parents)
    return Tensor(out, requires_grad=rg, op=op, parents=parents, vjp=vjp if rg else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("add", a, b)
    return _node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("mul", a, b)
    ad, bd = a.data, b.data
    return _node(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("maximum", a, b)
    take_a = a.data >= b.data

    def vjp(g: np.ndarray):
        return g * take_a, g * ~take_a

    return _node(np.maximum(a.data, b.data), "maximum", (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0  # relu'(0) = 0
    return _node(a.data * mask, "relu", (a,), lambda g: (g * mask,))


# plain-array kernels, shared with the untaped paths; not ops, so not in __all__
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
    return _node(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _node(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if not np.all(a.data > 0.0):
        bad = float(a.data.min())
        raise ValueError(f"log: input must be strictly positive, got minimum {bad}")
    ad = a.data
    return _node(np.log(ad), "log", (a,), lambda g: (g / ad,))


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _node(-a.data, "neg", (a,), lambda g: (-g,))


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)  # subgradient 0 at 0
    return _node(np.abs(a.data), "abs", (a,), lambda g: (g * sign,))


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Add a length-n row vector to every row of an (m, n) matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias: expects (m, n) + (n,), got {a.shape} + {b.shape}")
    return _node(a.data + b.data, "add_bias", (a, b), lambda g: (g, g.sum(axis=0)))


def dense_array(h: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``h @ w + b``, then the relu if ``relu``, in one buffer (relu of a negative is -0.0)."""
    out = np.matmul(h, w)
    out += b
    if relu:
        out *= out > 0.0
    return out


def dense(h: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """One MLP layer as one node: ``relu(add_bias(matmul(h, w), b))``, or no relu.

    The vjp returns no gradient for an ``h`` that needed none when the
    node was built (a network's input).
    """
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    if (h.data.ndim, w.data.ndim, b.data.ndim) != (2, 2, 1) or (
        h.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]
    ):
        raise ValueError(f"dense: expects (m, k) @ (k, n) + (n,), got {h.shape} @ {w.shape} + {b.shape}")
    hd, wd, need_h = h.data, w.data, h.requires_grad
    out = dense_array(hd, wd, b.data, relu)

    def vjp(g: np.ndarray):
        if relu:
            g = g * (out > 0.0)  # relu'(0) = 0
        return (g @ wd.T if need_h else None), hd.T @ g, g.sum(axis=0)

    return _node(out, "dense", (h, w, b), vjp)


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Softmax of a plain array over the last axis, computed with max-subtraction."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor, temperature: float = 1.0) -> Tensor:
    """Temperature softmax over the last axis, computed with max-subtraction."""
    a = _as_tensor(a)
    if not temperature > 0.0:
        raise ValueError(f"softmax: temperature must be positive, got {temperature}")
    out = softmax_array(a.data / temperature)
    inv_t = 1.0 / temperature

    def vjp(g: np.ndarray):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out * inv_t,)

    return _node(out, "softmax", (a,), vjp)


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

    return _node(out, "sum", (a,), vjp)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ax = _axes("mean", a, axis)
    out = a.data.mean(axis=ax)
    n = math.prod(a.shape[i] for i in ax)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(np.expand_dims(g.reshape(out.shape) / n, ax), a.shape),)

    return _node(out, "mean", (a,), vjp)


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

    return _node(out, "max", (a,), vjp)


def expand(a: Tensor, axis: int, reps: int) -> Tensor:
    """Insert a new axis of length ``reps`` by repeating the tensor."""
    a = _as_tensor(a)
    if reps < 1:
        raise ValueError(f"expand: reps must be >= 1, got {reps}")
    if not 0 <= axis <= a.data.ndim:
        raise ValueError(f"expand: axis {axis} invalid for shape {a.shape}")
    out = np.repeat(np.expand_dims(a.data, axis), reps, axis=axis)
    return _node(out, "expand", (a,), lambda g: (g.sum(axis=axis),))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor, targets: set[int] | None = None) -> list[Tensor]:
    """Nodes needing a gradient, parents first; with ``targets`` (leaf ids), those leading to one."""
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
    if targets is None:
        return order
    leads = set(targets)
    for node in order:
        if any(id(p) in leads for p in node.parents):
            leads.add(id(node))
    return [node for node in order if id(node) in leads]


def backward(root: Tensor, params: ParameterSet | None = None) -> dict[str, np.ndarray] | None:
    """Reverse-mode sweep from a scalar root.

    Without ``params``, sets ``grad`` on every reachable leaf with
    ``requires_grad``.  With a :class:`ParameterSet`, visits only the
    nodes that lead to one of its parameters, sets ``grad`` on those
    parameters, and returns one gradient array per parameter from this
    sweep alone; parameters the root does not depend on get zeros.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")

    targets = None if params is None else {id(t) for _, t in params.items()}
    order = _topo_order(root, targets)
    needed = {id(node) for node in order}
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    leaf_grads: dict[int, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if not node.parents:  # leaf
                node.grad = leaf_grads[id(node)] = g
            continue
        for p, pg in zip(node.parents, node._vjp(g)):
            if id(p) not in needed:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg

    if params is None:
        return None
    out: dict[str, np.ndarray] = {}
    for name, t in params.items():
        g = leaf_grads.get(id(t))
        out[name] = g if g is not None else np.zeros_like(t.data)
    return out


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
    kink_tol: float = 1e-2,
) -> FiniteDiffReport:
    """Compare ``backward`` gradients of ``f()`` against central differences.

    ``f`` must be deterministic (any noise it uses held fixed) and is
    re-evaluated with each parameter coordinate perturbed by ``±step``.
    Relative error uses the denominator ``max(1e-8, |analytic| + |numeric|)``.
    Coordinates where the one-sided slopes disagree by more than
    ``kink_tol`` (relative) sit on a non-differentiable point and are
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
            if abs(d_plus - d_minus) > kink_tol * (abs(d_plus) + abs(d_minus) + 1.0):
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
