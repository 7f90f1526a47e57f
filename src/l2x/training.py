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
from .networks import Classifier, Explainer, VariationalNet, build_classifier, build_explainer, build_variational
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
    """RMSprop with a per-parameter squared-gradient accumulator.

    acc <- DECAY * acc + (1 - DECAY) * g^2;  p <- p - lr * g / (sqrt(acc) + EPSILON)

    computed in place, through two scratch arrays per parameter, in that order of operations.
    """

    def __init__(self, learning_rate: float):
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.acc: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: ParameterSet, grads: dict[str, np.ndarray]) -> None:
        for name, t in params.items():
            g = grads[name]
            if g.shape != t.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {name!r} {t.data.shape}"
                )
            acc = self.acc.get(name)
            if acc is None:
                acc = self.acc[name] = np.zeros_like(t.data)
                self._scratch[name] = (np.empty_like(t.data), np.empty_like(t.data))
            update, denom = self._scratch[name]
            np.multiply(1.0 - DECAY, g, out=update)
            update *= g
            acc *= DECAY
            acc += update
            np.sqrt(acc, out=denom)
            denom += EPSILON
            np.multiply(self.learning_rate, g, out=update)
            update /= denom
            t.data -= update


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Knobs and network widths for both training loops; ``RunConfig`` extends it, and the CLI takes its defaults."""

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
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        for name in ("learning_rate", "temperature", "batch_size"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        # zero epochs is allowed: it yields an untrained network
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be nonnegative, got {self.warmup_epochs}")
        for name in ("classifier_hidden", "explainer_hidden", "variational_hidden"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
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
    """Batch mean of sum_y target_y * log max(probs_y, PROB_CLAMP), the quantity both loops train on.

    The classifier minimizes its negation against one-hot labels; the
    selector maximizes it against the classifier's probabilities.
    """
    target = ad.constant(target)
    floor = ad.constant(np.full(probs.shape, PROB_CLAMP))
    ll = ad.mul(target, ad.log(ad.maximum(probs, floor)))
    return ad.reduce_mean(ad.reduce_sum(ll, axis=1))


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
    q_width = variational.spec.output_width if hasattr(variational, "spec") else pm.shape[1]
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


def _batch_noise(rng: np.random.Generator, b: int, k: int, d: int) -> np.ndarray:
    return gumbel_from_uniform(rng.uniform(size=(b, k, d)))


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
        for name, t in params.items():
            if not np.isfinite(t.data).all():
                raise NumericError(f"parameter {name} became non-finite in epoch {epoch}")
        curve.append(EpochStat(epoch, float(np.mean(values)), (time.perf_counter() - t0) * 1e3))
    return curve


def train_classifier(
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[Classifier, TrainReport]:
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

    def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
        probs = clf.forward_tensor(ad.constant(x[idx]), TRAIN_DTYPE)
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
    classifier: Classifier,
    config: TrainConfig,
) -> tuple[Explainer, VariationalNet, TrainReport]:
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

    # the classifier is frozen: probabilities are constants on the tape
    pm_all = classifier.predict_proba(x)

    def step(epoch: int, idx: np.ndarray, step_index: int) -> float:
        warmup = epoch < config.warmup_epochs
        active = variational_only if warmup else joint
        noise = _batch_noise(substream(config.seed, "noise", step_index), len(idx), config.k, d)
        try:
            est = _frozen_objective(
                x[idx], pm_all[idx],
                lambda t: explainer.forward_tensor(t, TRAIN_DTYPE, frozen=warmup),
                lambda t: variational.forward_tensor(t, TRAIN_DTYPE),
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
