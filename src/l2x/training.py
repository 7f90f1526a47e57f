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

Both loops train in mixed precision: each network pass is one
``autodiff.dense`` node computing in ``TRAIN_DTYPE`` (float32) over the
float64 parameters, while the heads, the relaxed mask, the objective,
gradient accumulation and RMSprop stay float64, and so do checkpoints.
Each call owns an ``autodiff.Workspace`` that holds its float32 passes'
arrays and the Gumbel noise from step to step, and drops it on return.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .datasets import N_CLASSES
from .errors import NumericError
from .files import atomic_open
from .networks import Mlp, build_classifier, build_explainer, build_variational, is_int
from .rng import substream
from .sampling import batched_relaxed_mask, gumbel_from_uniform

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
# compute dtype of the taped network passes in both training loops
TRAIN_DTYPE = np.float32


class RmsProp:
    """RMSprop with a squared-gradient accumulator per parameter buffer.

    acc <- DECAY * acc + (1 - DECAY) * g^2;  p <- p - lr * g / (sqrt(acc) + EPSILON)

    computed in place, in that order of operations, once per flat block of
    ``ParameterSet.buffers()`` (a whole network, when ``networks`` built
    it) through two scratch arrays, the first holding the gathered
    gradient, so each entry gets the bits a per-tensor step would give
    it.  State is keyed by the buffer: a network keeps its accumulator
    when it is stepped in a larger set.  ``acc[name]`` is the view of a
    tensor's accumulator.
    """

    def __init__(self, learning_rate: float):
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.acc: dict[str, np.ndarray] = {}
        # (id of a block's first array, its size) -> (that array, the block, its accumulator, two scratch arrays)
        self._blocks: dict[tuple[int, int], tuple] = {}
        # ids of a set's arrays -> (those arrays, [(block state, names)]); the arrays keep the ids unique
        self._sets: dict[tuple[int, ...], tuple] = {}

    def _layout(self, params: ParameterSet) -> list:
        """(state, names) for each block of ``params``; a block's state is made on its first step."""
        arrays = [t.data for t in params.values()]
        entry = self._sets.get(tuple(map(id, arrays)))
        if entry is None:
            layout = []
            for block, names in params.buffers():
                first = params[names[0]].data
                key = (id(first), block.size)
                if key not in self._blocks:
                    acc = np.zeros_like(block)
                    self._blocks[key] = (first, block, acc, np.empty_like(block), np.empty_like(block))
                    start = 0
                    for name in names:
                        a = params[name].data
                        self.acc[name] = acc[start : start + a.size].reshape(a.shape)
                        start += a.size
                layout.append((self._blocks[key], names))
            entry = self._sets[tuple(map(id, arrays))] = (arrays, layout)
        return entry[1]

    def step(self, params: ParameterSet, grads: dict[str, np.ndarray]) -> None:
        for name, t in params.items():
            if grads[name].shape != t.data.shape:
                raise ValueError(
                    f"gradient shape {grads[name].shape} does not match parameter {name!r} {t.data.shape}"
                )
        for (_, block, acc, g, scratch), names in self._layout(params):
            np.concatenate([grads[name].reshape(-1) for name in names], out=g)
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

    Counts, the seed and widths must be integers (numpy integers too).
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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
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
    val_accuracy: float | None = None


def _log_likelihood(target: np.ndarray, probs: Tensor) -> Tensor:
    """Batch mean of sum_y target_y * log max(probs_y, PROB_CLAMP), the quantity both loops train on, as one node.

    The classifier minimizes its negation against one-hot labels; the
    selector maximizes it against the classifier's probabilities.  Value
    and gradient are those of the op chain ``reduce_mean(reduce_sum(mul(
    target, log(maximum(probs, PROB_CLAMP))), 1))``, bit for bit: the
    same numpy calls in the same order, ties at the floor going to
    ``probs``.  ``probs`` must be finite.
    """
    target = np.asarray(target, dtype=np.float64)
    clamped = np.maximum(probs.data, PROB_CLAMP)
    above = probs.data >= PROB_CLAMP
    n = clamped.shape[0]

    def vjp(g: np.ndarray):
        grad = target * (g.reshape(()) / n)
        grad /= clamped
        grad *= above
        return (grad,)

    value = (target * np.log(clamped)).sum(axis=(1,)).mean(axis=(0,))
    return Tensor(value, requires_grad=probs.requires_grad, op="log_likelihood", parents=(probs,),
                  vjp=vjp if probs.requires_grad else None)


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
        raise ValueError(
            f"class-count mismatch: classifier emits {pm.shape[1]}, variational emits {q_width}"
        )
    return _frozen_objective(x, pm, explainer.forward_tensor, variational.forward_tensor, noise, temperature)


def _features(x: np.ndarray) -> np.ndarray:
    """A training feature matrix as float64, checked nonempty and within the range of ``TRAIN_DTYPE``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need a nonempty (n, d) feature matrix, got shape {x.shape}")
    big = np.argwhere(np.abs(x) > np.finfo(TRAIN_DTYPE).max)
    if big.size:
        row, col = big[0]
        raise NumericError(
            f"feature value {float(x[row, col])!r} (row {row}, column {col}) overflows {np.dtype(TRAIN_DTYPE)}, "
            f"the training dtype"
        )
    return x


def _batch_noise(rng: np.random.Generator, b: int, k: int, d: int, workspace: ad.Workspace) -> np.ndarray:
    """(b, k, d) Gumbel draws, in the workspace's noise array; ``random`` draws the bits ``uniform`` would."""
    u = rng.random(out=workspace.take("noise", (b, k, d), np.float64))
    return gumbel_from_uniform(u, out=u)


def _epochs(config: TrainConfig, n: int, params: ParameterSet, step) -> list[EpochStat]:
    """Run ``config.epochs`` epochs of shuffled mini-batches; the curve of mean objectives.

    ``step(epoch, idx, step_index)`` trains on the rows ``idx`` and
    returns the batch's objective; ``step_index`` counts steps across epochs.
    A non-finite entry in ``params`` at the end of an epoch (an update
    that overflowed) raises :class:`NumericError`, so it is never saved.
    """
    curve: list[EpochStat] = []
    step_index = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = substream(config.seed, "shuffle", epoch).permutation(n)
        values = []
        for start in range(0, n, config.batch_size):
            values.append(step(epoch, order[start : start + config.batch_size], step_index))
            step_index += 1
        for block, names in params.buffers():
            if not np.isfinite(block).all():
                name = next(name for name in names if not np.isfinite(params[name].data).all())
                raise NumericError(f"parameter {name} became non-finite in epoch {epoch}")
        curve.append(EpochStat(epoch, float(np.mean(values)), (time.perf_counter() - t0) * 1e3))
    return curve


def train_classifier(
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[Mlp, TrainReport]:
    """Cross-entropy training on hard labels; optional held-out accuracy."""
    x = _features(x)
    y = np.asarray(y, dtype=int)
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels must be (n,), got {y.shape} for n={x.shape[0]}")
    n, d = x.shape

    clf = build_classifier(d, N_CLASSES, substream(config.seed, "init"), config.classifier_hidden)
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), y] = 1.0

    opt = RmsProp(config.learning_rate)
    workspace = ad.Workspace()

    def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
        probs = clf.forward_tensor(ad.constant(x[idx]), TRAIN_DTYPE, workspace=workspace)
        if not np.all(np.isfinite(probs.data)):
            raise NumericError(f"classifier probabilities became non-finite at step {step_index}")
        loss = ad.neg(_log_likelihood(onehot[idx], probs))
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(f"classifier loss became {value} at step {step_index}")
        opt.step(clf.params, ad.backward(loss, clf.params))
        return value

    curve = _epochs(config, n, clf.params, step)

    val_accuracy = None
    if x_val is not None and y_val is not None:
        pred = clf.predict_proba(np.asarray(x_val, dtype=np.float64)).argmax(axis=1)
        val_accuracy = float((pred == np.asarray(y_val, dtype=int)).mean())
    return clf, TrainReport(curve=curve, val_accuracy=val_accuracy)


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
    In those epochs the explainer's pass is taped frozen, so no gradient
    is computed for it, for the relaxed mask, or for the masked input.
    """
    x = _features(x)
    n, d = x.shape
    if config.k > d:
        raise ValueError(f"k={config.k} exceeds feature count d={d}")
    n_classes = classifier.spec.output_width

    init_rng = substream(config.seed, "init", 1)
    explainer = build_explainer(d, init_rng, config.explainer_hidden)
    variational = build_variational(d, n_classes, init_rng, config.variational_hidden)

    joint = ParameterSet()
    joint.merge("explainer", explainer.params)
    joint.merge("variational", variational.params)
    # same prefixed names as in joint, so optimizer state carries over
    variational_only = ParameterSet()
    variational_only.merge("variational", variational.params)
    opt = RmsProp(config.learning_rate)
    workspace = ad.Workspace()

    # the classifier is frozen: probabilities are constants on the tape
    pm_all = classifier.predict_proba(x)

    def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
        warmup = epoch < config.warmup_epochs
        active = variational_only if warmup else joint
        noise = _batch_noise(substream(config.seed, "noise", step_index), len(idx), config.k, d, workspace)
        try:
            est = _frozen_objective(
                x[idx], pm_all[idx],
                lambda t: explainer.forward_tensor(t, TRAIN_DTYPE, frozen=warmup, workspace=workspace),
                lambda t: variational.forward_tensor(t, TRAIN_DTYPE, workspace=workspace),
                noise, config.temperature,
            )
        except NumericError as e:
            raise NumericError(f"{e} at step {step_index}") from None
        if not np.isfinite(est.value):
            raise NumericError(f"objective became {est.value} at step {step_index}")
        # ascent on the objective
        opt.step(active, ad.backward(ad.neg(est.root), active))
        return est.value

    return explainer, variational, TrainReport(curve=_epochs(config, n, joint, step))


def _frozen_objective(
    x: np.ndarray,
    pm: np.ndarray,
    scores_of,
    q_of,
    noise: np.ndarray,
    temperature: float,
) -> ObjectiveEstimate:
    """Objective graph with precomputed classifier probabilities, through the
    explainer's and the variational net's taped passes ``scores_of`` and ``q_of``."""
    if not np.all(np.isfinite(pm)):
        raise NumericError("classifier probabilities are non-finite")
    scores = scores_of(ad.constant(x))
    if not np.all(np.isfinite(scores.data)):
        raise NumericError("explainer scores became non-finite")
    v = batched_relaxed_mask(scores, noise, temperature)
    masked = ad.mul(v, ad.constant(x))
    q = q_of(masked)
    if not np.all(np.isfinite(q.data)):
        raise NumericError("variational output became non-finite")
    root = _log_likelihood(pm, q)
    return ObjectiveEstimate(value=root.item(), root=root)


def write_curve_csv(curve: list[EpochStat], path) -> None:
    with atomic_open(path) as fh:
        fh.write("epoch,objective,wall_ms\n")
        for stat in curve:
            fh.write(f"{stat.epoch},{repr(stat.objective)},{stat.wall_ms:.3f}\n")
