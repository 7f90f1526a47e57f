"""RMSprop, the selection objective, and the two training loops.

The classifier is pretrained by cross-entropy on sampled hard labels.
The explainer and variational net are then trained jointly, from a
single backward pass per step, to maximize the expected log-likelihood
the variational net assigns to the classifier's class distribution given
only the softly-masked input:

    mean over batch of  sum_y  P(y|x) * log q(V . x)_y

where V is the relaxed subset mask built from the explainer's scores and
fresh Gumbel noise each step.  The classifier's probabilities enter as
constants, so no gradient reaches it and its weights never change.

Both loops train in mixed precision, one explicit step per batch.  A
:class:`_Pass` per network, owned by the training call, casts the
network's flat float64 parameter buffer (``Mlp.buffer``) and the batch
(:func:`cast_array`) to ``TRAIN_DTYPE`` (float32), runs the layers
(``autodiff.dense_array``) over arrays it keeps from step to step, and
runs them backward once (``autodiff.dense_backward``'s arithmetic),
writing the network's gradient into one flat float64 block laid out like
the buffer (``MlpSpec.split``).  The softmax head, the relaxed mask and
the log-likelihood are array kernels (``autodiff.softmax_array`` and
``softmax_vjp``, ``sampling.batched_relaxed_mask``,
:func:`_log_likelihood`), called in order and then in reverse; they, the
gradient blocks and RMSprop stay float64, and so do checkpoints.  Both
loops run one softmax-head step (:func:`_head_step`), the selector's on
the variational net.  :func:`l2x_objective` tapes the same objective
from autodiff ops: the reference the steps are checked against.

Each training call owns a :class:`_Worker`.  Where two CPUs are allowed,
the OpenBLAS under numpy runs one thread and a product of the call
reaches ``WORKER_MIN_MACS``, it is a second thread: every layer's weight
and bias gradients are computed on it while the calling thread walks
the input-gradient chain, and so are the second halves of the RMSprop
updates; each step waits for it before it returns.  No product is split
across the threads, and each keeps the operands it has without the
worker, so the bytes written do not depend on it (README, Determinism).
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import N_CLASSES
from .errors import NumericError
from .files import atomic_open
from .networks import Mlp, build_classifier, build_explainer, build_variational, is_int
from .rng import substream
from .sampling import batched_relaxed_mask, gumbel_from_uniform, relaxed_mask_graph

__all__ = [
    "RmsProp",
    "TrainConfig",
    "ObjectiveEstimate",
    "EpochStat",
    "TrainReport",
    "l2x_objective",
    "train_classifier",
    "train_l2x",
    "write_curve_csv",
]

PROB_CLAMP = 1e-12
# RMSprop's squared-gradient decay and denominator floor
DECAY = 0.9
EPSILON = 1e-7
# compute dtype of the network passes in both training loops
TRAIN_DTYPE = np.float32
# multiply-adds (rows x inputs x outputs) of the largest weight-gradient product
# of a training call from which it runs a worker thread: at 1000 rows, 96-wide
# layers are the narrowest measured to gain, and 64- and 80-wide ones lose
WORKER_MIN_MACS = 2**23


def cast_array(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a``, a float64 array, copied into ``out``, a ``TRAIN_DTYPE`` array, with every would-be subnormal set to zero.

    Masked inputs and the gradients reaching the explainer through the
    relaxed mask hold many values below float32's smallest normal, and
    subnormal operands slow a matmul many times over.
    """
    np.copyto(out, a, casting="same_kind")
    np.copyto(out, 0.0, where=np.abs(out) < np.finfo(TRAIN_DTYPE).tiny)
    return out


class RmsProp:
    """RMSprop with a squared-gradient accumulator per parameter block.

    acc <- DECAY * acc + (1 - DECAY) * g^2;  p <- p - lr * g / (sqrt(acc) + EPSILON)

    computed in place, in that order of operations, over flat float64
    blocks, so each entry gets the bits a per-tensor step would give it.
    :meth:`step` takes one step's (parameter block, gradient block) pairs
    and overwrites each gradient block with its update.  A block's
    accumulator is made on its first step and kept for that block object,
    so a network keeps it in every phase it is stepped in.
    """

    def __init__(self, learning_rate: float):
        if not 0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
        self.learning_rate = learning_rate
        # id of a parameter block -> (the block, which keeps the id unique; its accumulator; a scratch array)
        self._state: dict[int, tuple] = {}

    def accumulator(self, block: np.ndarray) -> np.ndarray:
        return self._state[id(block)][1]

    def step(self, pairs, worker: _Worker | None = None) -> None:
        """A threaded training-call ``worker`` updates the second half of each flat block; the ops are elementwise."""
        for block, g in pairs:
            if g.shape != block.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter block {block.shape}")
        for block, g in pairs:
            if id(block) not in self._state:
                self._state[id(block)] = (block, np.zeros_like(block), np.empty_like(block))
            arrays = (block, g, *self._state[id(block)][1:])
            if worker is not None and worker.threaded and block.ndim == 1:
                half = block.size // 2
                worker.submit(self._update, *(a[half:] for a in arrays))
                arrays = tuple(a[:half] for a in arrays)
            self._update(*arrays)
        if worker is not None:
            worker.wait()

    def _update(self, block: np.ndarray, g: np.ndarray, acc: np.ndarray, scratch: np.ndarray) -> None:
        """One step over matching entries of a block, its gradient, accumulator and scratch; each entry on its own."""
        np.multiply(1.0 - DECAY, g, out=scratch)
        scratch *= g
        acc *= DECAY
        acc += scratch
        np.sqrt(acc, out=scratch)
        scratch += EPSILON
        g *= self.learning_rate  # g becomes the update
        g /= scratch
        block -= g


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Knobs and network widths for both training loops; ``RunConfig`` extends it, and the CLI takes its defaults.

    Counts, the seed and widths must be integers (numpy integers too);
    the learning rate and temperature must be numbers, not booleans.
    """

    k: int
    learning_rate: float = 0.001
    temperature: float = 0.1
    batch_size: int = 1000
    epochs: int = 10
    seed: int = 0
    warmup_epochs: int = 2
    classifier_hidden: tuple[int, ...] = (200, 200, 200)
    explainer_hidden: tuple[int, ...] = (200, 200)
    variational_hidden: tuple[int, ...] = (200, 200, 200)

    def __post_init__(self):
        for name in ("k", "batch_size", "epochs", "warmup_epochs", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        for name in ("learning_rate", "temperature", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool):  # for batch_size is_int has refused it already
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # zero epochs is allowed: it yields an untrained network
        for name in ("epochs", "warmup_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("classifier_hidden", "explainer_hidden", "variational_hidden"):
            widths = getattr(self, name)
            if not widths or not all(map(is_int, widths)) or min(widths) < 1:
                raise ValueError(f"{name} must be one or more positive widths, got {widths}")


@dataclass
class ObjectiveEstimate:
    """Monte Carlo estimate of the selection objective on one batch."""

    value: float
    root: Tensor = field(repr=False)  # graph root, for backward

    def __post_init__(self):
        if self.value > 0.0:
            raise NumericError(f"objective {self.value} is positive; expected <= 0")


@dataclass(frozen=True)
class EpochStat:
    epoch: int
    objective: float
    wall_ms: float


@dataclass
class TrainReport:
    curve: list[EpochStat]
    worker_jobs: int  # jobs the training worker ran; 0 when it did not run


def _log_likelihood(target: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean of sum_y target_y * log max(probs_y, PROB_CLAMP), the quantity both loops train on, and a gradient.

    The classifier maximizes it against one-hot labels; the selector
    against the classifier's probabilities.  The gradient, of its negation
    with respect to ``probs``, is a fresh array.  Both are bit for bit
    those of the op chain :func:`l2x_objective` tapes, ties at the floor
    going to ``probs``.  ``probs`` must be finite.
    """
    clamped = np.maximum(probs, PROB_CLAMP)
    grad = target * (-1.0 / len(probs))
    grad /= clamped
    grad *= probs >= PROB_CLAMP
    return float((target * np.log(clamped)).sum(axis=(1,)).mean(axis=(0,))), grad


def l2x_objective(
    x: np.ndarray,
    classifier,
    explainer,
    variational,
    noise: np.ndarray,
    temperature: float,
    k: int,
) -> ObjectiveEstimate:
    """Build the objective graph for one batch; higher is better, max 0.

    ``noise`` holds one (k, d) block of Gumbel draws per example, shape
    (batch, k, d), held fixed for the evaluation.  The classifier is
    queried for probabilities only; they enter the graph as constants.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be (batch, d), got shape {x.shape}")
    b, d = x.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= d={d}, got {k}")
    if noise.shape != (b, k, d):
        raise ValueError(f"noise must have shape ({b}, {k}, {d}), got {noise.shape}")

    pm = np.asarray(classifier.predict_proba(x), dtype=np.float64)
    q_width = variational.spec.output_width
    if q_width != pm.shape[1]:
        raise ValueError(f"class-count mismatch: classifier emits {pm.shape[1]}, variational emits {q_width}")
    if not np.all(np.isfinite(pm)):
        raise NumericError("classifier probabilities are non-finite")
    scores = explainer.forward_tensor(ad.constant(x))
    if not np.all(np.isfinite(scores.data)):
        raise NumericError("explainer scores became non-finite")
    v = relaxed_mask_graph(scores, noise, temperature)
    q = variational.forward_tensor(ad.mul(v, ad.constant(x)))
    if not np.all(np.isfinite(q.data)):
        raise NumericError("variational output became non-finite")
    floor = ad.constant(np.full(q.shape, PROB_CLAMP))
    root = ad.reduce_mean(ad.reduce_sum(ad.mul(ad.constant(pm), ad.log(ad.maximum(q, floor))), 1))
    return ObjectiveEstimate(value=root.item(), root=root)


def _features(x: np.ndarray) -> np.ndarray:
    """A training feature matrix as float64, checked nonempty, free of NaN and within the range of ``TRAIN_DTYPE``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need a nonempty (n, d) feature matrix, got shape {x.shape}")
    bad = np.argwhere(~(np.abs(x) <= np.finfo(TRAIN_DTYPE).max))
    if bad.size:
        row, col = bad[0]
        value = float(x[row, col])
        fault = "is not a number" if np.isnan(value) else f"overflows {np.dtype(TRAIN_DTYPE)}, the training dtype"
        raise NumericError(f"feature value {value!r} (row {row}, column {col}) {fault}")
    return x


def allowed_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blas_threads() -> int | None:
    """How many threads the OpenBLAS under numpy runs, asked of the library; None where none is found.

    The library is looked for among the files the process maps, which
    only Linux lists (``/proc/self/maps``); numpy names no other way.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same library
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None


class _Worker:
    """One training call's second thread, which runs the jobs handed to it in order, and the scratch its passes share.

    It is ``threaded`` when a layer of ``nets``, over ``rows`` rows, has
    a weight-gradient product of ``WORKER_MIN_MACS`` or more, two CPUs
    are allowed and the OpenBLAS under numpy runs one thread (a threaded
    BLAS already spreads each product over the CPUs, and a second
    product beside it slowed training steps by 10-20%).  Otherwise no
    thread starts and the passes run every job themselves.  The thread
    starts on entering the ``with`` block and is joined on leaving it,
    after the jobs handed over, whatever the exit.  A job calls numpy and
    private helpers only, never a public l2x function.

    Scratch, used by one pass at a time: ``mask``, the relu mask of the
    layer at hand; ``weight_scratch``, a layer's float32 weight gradient,
    which jobs write one after another; when threaded, ``spare``, a
    float32 array as large as the widest hidden layer over ``rows``
    rows, for an input gradient while the thread reads the arrays that
    would otherwise hold it.  ``readers`` maps an array the thread reads
    to its last reader's ticket.  ``jobs`` counts the jobs handed over.
    """

    def __init__(self, rows: int, nets: list[Mlp]):
        widths = [net.spec.layer_widths for net in nets]
        macs = [rows * a * b for w in widths for a, b in zip(w, w[1:])]
        self.threaded = max(macs) >= WORKER_MIN_MACS and allowed_cpus() >= 2 and blas_threads() == 1
        hidden = rows * max(max(w[1:-1]) for w in widths)
        self.spare = np.empty(hidden if self.threaded else 0, TRAIN_DTYPE)
        self.mask = np.empty(hidden, bool)
        self.weight_scratch = np.empty(max(a * b for w in widths for a, b in zip(w, w[1:])), TRAIN_DTYPE)
        self.readers: dict[int, int] = {}  # id of an array -> ticket of the last job handed over that reads it
        self.jobs = 0
        self._todo: queue.SimpleQueue = queue.SimpleQueue()
        self._done = threading.Condition()
        self._finished = 0
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="l2x-training-worker") if self.threaded else None

    def __enter__(self) -> "_Worker":
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._todo.put(None)
            self._thread.join()

    def submit(self, fn, *args) -> int:
        """Hand ``fn(*args)`` to the thread; its ticket, for :meth:`wait`."""
        self.jobs += 1
        self._todo.put((fn, args))
        return self.jobs

    def wait(self, ticket: int | None = None) -> None:
        """Return once job ``ticket`` has run, and so every job before it; without a ticket, every job.

        An exception a job raised is raised here.
        """
        ticket = self.jobs if ticket is None else ticket
        with self._done:
            self._done.wait_for(lambda: self._finished >= ticket)
        if self._error is not None:
            raise self._error

    def _run(self) -> None:
        for fn, args in iter(self._todo.get, None):
            try:
                fn(*args)
            except BaseException as e:  # raised again on the calling thread, by wait
                self._error = e
            with self._done:
                self._finished += 1
                self._done.notify()


def _view(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading entries of a C-contiguous ``array`` as a C-contiguous array of ``shape``."""
    return array.reshape(-1)[: math.prod(shape)].reshape(shape)


def _batch_noise(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Gumbel draws filling ``out``, of shape (b, k, d); ``random`` draws the bits ``uniform`` would."""
    u = rng.random(out=out)
    return gumbel_from_uniform(u, out=u)


class _Pass:
    """One network's float32 training pass over batches of up to ``rows`` rows, in arrays it keeps.

    ``block`` is the network's flat float64 parameter buffer
    (``Mlp.buffer``) and ``grads`` a float64 block laid out alike
    (``MlpSpec.split``), which :meth:`backward` fills.  The float32
    weights, the cast input, each layer's output, the relu mask, the cast
    incoming gradient and the float32 weight gradients are reused from
    step to step; a smaller batch uses their leading rows.  Fresh arrays
    per step give the same bytes but cost many times the page faults and
    measurably more time (CHANGES.md, the cheaper-training-steps change).

    The float32 layer outputs are the pass's own; the relu mask and the
    float32 weight-gradient scratch are ``worker``'s, shared by the
    call's passes.  With a threaded ``worker``, :meth:`backward` hands
    it each layer's weight and bias gradients and walks the
    input-gradient chain meanwhile; the caller waits for the worker
    before reading ``grads``.  Every product keeps the operands it has
    without the worker, so the bytes do not depend on it.
    """

    def __init__(self, net: Mlp, rows: int, worker: _Worker):
        self.net = net
        self.worker = worker
        self.block = net.buffer
        self.grads = np.empty_like(self.block)
        self.cast = np.empty(self.block.shape, TRAIN_DTYPE)
        self.weights = list(net.spec.split(self.cast).values())
        views = list(net.spec.split(self.grads).values())
        self.weight_grads = views[::2]
        self.bias_grads = views[1::2]
        self.weight_scratch = [_view(worker.weight_scratch, view.shape) for view in self.weight_grads]
        widths = net.spec.layer_widths
        self.x = np.empty((rows, widths[0]), TRAIN_DTYPE)
        self.g = np.empty((rows, widths[-1]), TRAIN_DTYPE)
        self.layers = [np.empty((rows, w), TRAIN_DTYPE) for w in widths[1:]]
        self.masks = [_view(worker.mask, (rows, w)) for w in widths[1:-1]] + [None]  # the hidden layers' relu masks
        self.kept: list[np.ndarray] = []  # each layer's input, as the last forward left it

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The float64 output, before the head, over a float64 batch; its rows count as evaluations."""
        self.net._evaluate(x)
        np.copyto(self.cast, self.block, casting="same_kind")
        b = len(x)
        kept: list = []
        arrays = [(out[:b], None if mask is None else mask[:b]) for out, mask in zip(self.layers, self.masks)]
        h = ad.dense_array(cast_array(x, self.x[:b]), self.weights, kept, arrays)
        self.kept = [hd for hd, _ in kept]  # not the masks: they share one array, which each layer wrote over
        return h.astype(np.float64)

    def backward(self, g: np.ndarray, need_input: bool = False) -> np.ndarray | None:
        """Fill ``grads`` from the float64 gradient of the last forward output; the input's, if ``need_input``.

        Bit for bit ``autodiff.dense_backward`` over the kept inputs.  A
        layer's relu mask is remade from its output (``> 0``, exactly the
        mask the forward pass applied) before anything is written over it.
        Each input gradient is written over an array no job still to run
        reads (:meth:`_free`).
        """
        worker = self.worker
        g = cast_array(g, self.g[: len(g)])
        for i in reversed(range(len(self.kept))):
            hd = self.kept[i]
            ticket = 0
            if worker.threaded:
                ticket = worker.submit(self._layer_gradient, i, hd, g)
                worker.readers[id(hd.base)] = worker.readers[id(g.base)] = ticket
            else:
                self._layer_gradient(i, hd, g)
            if not (i or need_input):
                break
            if i:  # the relu mask of the layer below, hd > 0 as it was made, read before hd may be written over
                mask = np.greater(hd, 0.0, out=self.masks[i - 1][: len(hd)])
            g = np.matmul(g, self.weights[2 * i].T, out=self._free(i, g, ticket))
            if i:
                g *= mask  # relu'(0) = 0
        return g.astype(np.float64) if need_input else None

    def _layer_gradient(self, i: int, hd: np.ndarray, g: np.ndarray) -> None:
        """Layer ``i``'s weight and bias gradients into ``grads``, from its kept input and its output's gradient."""
        g.sum(axis=0, dtype=np.float64, out=self.bias_grads[i])
        np.copyto(self.weight_grads[i], np.matmul(hd.T, g, out=self.weight_scratch[i]))

    def _free(self, i: int, g: np.ndarray, ticket: int) -> np.ndarray:
        """An array to write layer ``i``'s input gradient into, returned once no job handed over still reads it.

        ``g``, the layer's output gradient, is read by job ``ticket`` (0:
        run here, so the layer's kept input is free).  Else the spare or
        the output of this layer or one above whose last reader was
        handed over first, if one is large enough; else the kept input.
        """
        hd, worker = self.kept[i], self.worker
        if ticket == 0:
            return hd
        fits = [a for a in (worker.spare, *self.layers[i:]) if a.size >= hd.size and a is not g.base]
        if fits:
            array = min(fits, key=lambda a: worker.readers.get(id(a), 0))
            worker.wait(worker.readers.get(id(array), 0))
            return _view(array, hd.shape)
        worker.wait(ticket)
        return hd


def _head_step(net: _Pass, x: np.ndarray, target: np.ndarray,
               need_input: bool = False) -> tuple[float, np.ndarray | None]:
    """The log-likelihood of ``target`` under ``net``'s softmax head on the batch ``x``, and the input's gradient.

    The gradient of the log-likelihood's negation goes to ``net.grads``;
    the input's is returned if ``need_input``, else None.
    """
    probs = ad.softmax_array(net.forward(x))
    if not np.all(np.isfinite(probs)):
        raise NumericError(f"{net.net.kind} output became non-finite")
    value, g = _log_likelihood(target, probs)
    if not -math.inf < value <= 0.0:
        raise NumericError(f"{net.net.kind} log-likelihood became {value}")
    return value, net.backward(ad.softmax_vjp(g, probs), need_input)


def _selector_step(explainer: _Pass, variational: _Pass, x: np.ndarray, pm: np.ndarray, noise: np.ndarray,
                   temperature: float, warmup: bool) -> float:
    """:func:`l2x_objective`'s value on the batch ``x``; the gradient of its negation goes to the passes' ``grads``.

    In ``warmup`` no gradient is computed for the mask, the masked input
    or the explainer, whose ``grads`` keep what they held.
    """
    if not np.all(np.isfinite(pm)):
        raise NumericError("classifier probabilities are non-finite")
    scores = explainer.forward(x)
    if not np.all(np.isfinite(scores)):
        raise NumericError("explainer scores became non-finite")
    v, mask_vjp = batched_relaxed_mask(scores, noise, temperature)
    value, g = _head_step(variational, v * x, pm, need_input=not warmup)
    if not warmup:
        explainer.backward(mask_vjp(g * x))
    return value


def _epochs(config: TrainConfig, n: int, nets: list[Mlp], step) -> list[EpochStat]:
    """Run ``config.epochs`` epochs of shuffled mini-batches; the curve of mean objectives.

    ``step(epoch, idx, step_index)`` trains on the rows ``idx`` and
    returns the batch's objective; ``step_index`` counts steps across
    epochs, and a :class:`NumericError` it raises gets the index.  A
    non-finite parameter of ``nets`` at the end of an epoch (an update
    that overflowed) raises :class:`NumericError`, so it is never saved.
    """
    curve: list[EpochStat] = []
    step_index = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = substream(config.seed, "shuffle", epoch).permutation(n)
        values = []
        for start in range(0, n, config.batch_size):
            try:
                values.append(step(epoch, order[start : start + config.batch_size], step_index))
            except NumericError as e:
                raise NumericError(f"{e} at step {step_index}") from None
            step_index += 1
        for net in nets:
            bad = net.spec.first_non_finite(net.buffer)
            if bad is not None:
                raise NumericError(f"parameter {net.kind}.{bad[0]} became non-finite in epoch {epoch}")
        curve.append(EpochStat(epoch, float(np.mean(values)), (time.perf_counter() - t0) * 1e3))
    return curve


def train_classifier(
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
) -> tuple[Mlp, TrainReport]:
    """Cross-entropy training on hard labels, each 0 or 1 (held-out accuracy is ``metrics.accuracy``)."""
    x = _features(x)
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels must be (n,), got {y.shape} for n={x.shape[0]}")
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {y[bad[0]]} in row {bad[0]}")
    n, d = x.shape

    clf = build_classifier(d, N_CLASSES, substream(config.seed, "init"), config.classifier_hidden)
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), y.astype(int)] = 1.0

    opt = RmsProp(config.learning_rate)
    rows = min(config.batch_size, n)
    with _Worker(rows, [clf]) as worker:
        net = _Pass(clf, rows, worker)

        def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
            value, _ = _head_step(net, x[idx], onehot[idx])
            worker.wait()  # the gradients are complete
            opt.step([(net.block, net.grads)], worker)
            return -value

        curve = _epochs(config, n, [clf], step)
    return clf, TrainReport(curve, worker.jobs)


def train_l2x(
    x: np.ndarray,
    classifier: Mlp,
    config: TrainConfig,
) -> tuple[Mlp, Mlp, TrainReport]:
    """Jointly train explainer and variational net against a frozen classifier.

    Labels never enter: each batch is scored against the classifier's
    output distribution.  Both networks update simultaneously from one
    backward pass per step, with fresh noise per example per step.

    The first ``config.warmup_epochs`` epochs update only the variational
    net while the explainer stays at its initialization, so selection is
    noise-driven and near uniform.  Without that head start the explainer
    chases the gradients of a still-uninformative density model and can
    settle on arbitrary features before any signal exists to correct it.
    In those epochs no gradient is computed for the explainer, the
    relaxed mask or the masked input.
    """
    x = _features(x)
    n, d = x.shape
    if config.k > d:
        raise ValueError(f"k={config.k} exceeds feature count d={d}")
    n_classes = classifier.spec.output_width

    init_rng = substream(config.seed, "init", 1)
    explainer = build_explainer(d, init_rng, config.explainer_hidden)
    variational = build_variational(d, n_classes, init_rng, config.variational_hidden)

    opt = RmsProp(config.learning_rate)
    rows = min(config.batch_size, n)
    with _Worker(rows, [explainer, variational]) as worker:
        passes = (_Pass(explainer, rows, worker), _Pass(variational, rows, worker))
        noise = np.empty((rows, config.k, d))

        # the classifier is frozen: its probabilities are constants
        pm_all = classifier.predict_proba(x)

        def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
            warmup = epoch < config.warmup_epochs
            batch_noise = _batch_noise(substream(config.seed, "noise", step_index), noise[: len(idx)])
            value = _selector_step(*passes, x[idx], pm_all[idx], batch_noise, config.temperature, warmup)
            worker.wait()  # the gradients are complete
            opt.step([(p.block, p.grads) for p in (passes[1:] if warmup else passes)], worker)
            return value

        curve = _epochs(config, n, [explainer, variational], step)
    return explainer, variational, TrainReport(curve, worker.jobs)


def write_curve_csv(curve: list[EpochStat], path) -> None:
    with atomic_open(path) as fh:
        fh.write("epoch,objective,wall_ms\n")
        for stat in curve:
            fh.write(f"{stat.epoch},{repr(stat.objective)},{stat.wall_ms:.3f}\n")
