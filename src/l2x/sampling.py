"""Continuous relaxation of drawing k features out of d.

A subset is represented by k independent Concrete (Gumbel-softmax)
vectors sharing one set of log-weights; their elementwise maximum V is a
soft k-hot mask that multiplies the input.  Because softmax is
shift-invariant, raw explainer scores act directly as unnormalized
log-weights.  Low temperatures sharpen V toward an exact k-hot vector;
the training default is 0.1 and is never annealed.  k, the number of
noise rows, must lie in [1, d]; a temperature <= 0 is rejected, and one
that overflows the scaled scores is a :class:`NumericError` (:func:`_concrete`).

On the tape the mask is an autodiff op chain (:func:`relaxed_mask_graph`).
Training runs the plain-array kernel :func:`batched_relaxed_mask`
instead, with the chain's values and gradients bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericError

__all__ = [
    "GumbelNoise",
    "RelaxedMask",
    "sample_gumbel",
    "gumbel_from_uniform",
    "concrete_vector",
    "relaxed_subset_mask",
    "relaxed_mask_graph",
    "batched_relaxed_mask",
    "hard_top_k",
]

# Uniform draws are clamped away from {0, 1} so -log(-log u) stays finite.
_U_LO = 1e-12
_U_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class GumbelNoise:
    """A rows x cols matrix of standard Gumbel draws.

    ``seed`` records the integer seed when one was supplied, so the exact
    noise can be regenerated later.
    """

    values: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Gumbel noise contains non-finite entries")


@dataclass(frozen=True)
class RelaxedMask:
    """Soft k-hot mask V with entries inside (0, 1).

    Strict interiority holds in exact arithmetic; at low temperature
    float64 rounds saturated entries to exactly 0.0 or 1.0, so the
    runtime check admits the closed interval.
    """

    V: Tensor

    def __post_init__(self):
        v = self.V.data
        if not (np.all(v >= 0.0) and np.all(v <= 1.0)):
            raise ValueError("relaxed mask entries must lie in [0, 1]")


def gumbel_from_uniform(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-log(-log u) of uniform draws clamped away from {0, 1}, in one fresh array or in ``out`` (which may be ``u``)."""
    g = np.asarray(np.clip(u, _U_LO, _U_HI, out=out))  # a scalar u clips to a scalar, which out= cannot take
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    return np.negative(g, out=g)


def sample_gumbel(rng: np.random.Generator | int, rows: int, cols: int) -> GumbelNoise:
    """Draw a rows x cols matrix of Gumbel(0, 1) noise, G = -log(-log u)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"noise shape must be positive, got ({rows}, {cols})")
    if isinstance(rng, (int, np.integer)):
        seed: int | None = int(rng)
        rng = np.random.default_rng(seed)
    else:
        seed = None
    u = rng.uniform(0.0, 1.0, size=(rows, cols))
    return GumbelNoise(values=gumbel_from_uniform(u), seed=seed)


def _concrete(softmax, z, temperature: float):
    """``softmax(z, temperature)``, the Concrete samples; NumericError, not numpy's warnings, if any overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = softmax(z, temperature)
    if not np.isfinite(out.data if isinstance(out, Tensor) else out).all():
        raise NumericError(f"relaxed mask became non-finite (temperature {temperature!r})")
    return out


def concrete_vector(log_weights: Tensor, gumbel_row, temperature: float) -> Tensor:
    """One Concrete sample: softmax((log_weights + G) / temperature).

    Differentiable with respect to ``log_weights``; the noise enters as a
    constant.  The result lies in the simplex interior.
    """
    g = gumbel_row.data if isinstance(gumbel_row, Tensor) else np.asarray(gumbel_row, dtype=np.float64)
    if g.shape != log_weights.shape:
        raise ValueError(f"gumbel row shape {g.shape} does not match log_weights {log_weights.shape}")
    return _concrete(ad.softmax, ad.add(log_weights, ad.constant(g)), temperature)


def relaxed_subset_mask(log_weights: Tensor, noise: GumbelNoise, temperature: float) -> RelaxedMask:
    """Elementwise maximum of k Concrete vectors sharing one score vector.

    ``noise`` must hold exactly k rows of width d; row j perturbs the
    j-th Concrete sample.  Gradient flows through the max with the
    lowest-index tie rule.
    """
    if log_weights.data.ndim != 1:
        raise ValueError(f"log_weights must be a vector, got shape {log_weights.shape}")
    (d,), k = log_weights.shape, noise.values.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= d={d}, got {k}")
    return RelaxedMask(V=relaxed_mask_graph(log_weights, noise.values, temperature))


def relaxed_mask_graph(scores: Tensor, noise: np.ndarray, temperature: float) -> Tensor:
    """The relaxed subset mask of (..., d) scores, taped: the reference for :func:`batched_relaxed_mask`.

    ``reduce_max(softmax(add(expand(scores), noise), temperature))`` over the k rows of the (..., k, d) ``noise``.
    """
    axis = scores.data.ndim - 1
    tiled = ad.expand(scores, axis, noise.shape[axis])
    return ad.reduce_max(_concrete(ad.softmax, ad.add(tiled, ad.constant(noise)), temperature), axis)


def batched_relaxed_mask(scores: np.ndarray, noise: np.ndarray, temperature: float) -> tuple[np.ndarray, Callable]:
    """The relaxed subset mask of every score row in a (..., d) float64 array, and its vjp.

    ``noise`` has shape (..., k, d): k independent Gumbel rows per score
    row, left as is.  Row b of a (B, d) batch equals the mask of row b
    alone, bit for bit.  Returns the mask and ``vjp(g)``, which maps the
    mask's gradient ``g`` (left as is) to a fresh gradient of the scores,
    both bit for bit those of :func:`relaxed_mask_graph`: the softmax and
    its vjp are the op's kernels, run in place; the max and the first
    argmax over the k samples are taken by an exact loop; the vjp routes
    each mask entry's gradient to the lowest-index sample attaining the
    max.
    """
    *lead, d = scores.shape
    axis = len(lead)
    if noise.ndim != axis + 2 or noise.shape[:axis] != tuple(lead) or noise.shape[-1] != d:
        raise ValueError(f"noise must have shape {(*lead, 'k', d)}, got {noise.shape}")
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    k = noise.shape[axis]
    concrete = _concrete(lambda z, t: ad.softmax_array(np.divide(z, t, out=z)),
                         np.add(np.expand_dims(scores, axis), noise), temperature)
    rows = concrete.reshape(-1, k, d)
    mask = rows[:, 0].copy()
    first = np.zeros(mask.shape, dtype=np.intp)  # lowest sample index attaining the max
    above = np.empty(mask.shape, dtype=bool)
    for j in range(1, k):
        np.putmask(first, np.greater(rows[:, j], mask, out=above), j)
        np.maximum(mask, rows[:, j], out=mask)
    inv_t = 1.0 / temperature

    def vjp(g: np.ndarray) -> np.ndarray:
        grad = np.zeros(rows.shape)
        np.put_along_axis(grad, first[:, None, :], g.reshape(-1, 1, d), axis=1)
        return ad.softmax_vjp(grad.reshape(concrete.shape), concrete, inv_t).sum(axis=axis)

    return mask.reshape(scores.shape), vjp


def hard_top_k(scores, k: int):
    """Indices of the k largest scores, ascending; ties go to lower indices.

    A (d,) vector gives a tuple of ints.  An (n, d) matrix gives an (n, k)
    int array whose row i is the selection for score row i.
    """
    s = scores.data if isinstance(scores, Tensor) else np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2):
        raise ValueError(f"scores must be a vector or a matrix, got shape {s.shape}")
    if not 1 <= k <= s.shape[-1]:
        raise ValueError(f"k must satisfy 1 <= k <= {s.shape[-1]}, got {k}")
    # stable sort of -scores keeps equal entries in index order
    top = np.sort(np.argsort(-s, axis=-1, kind="stable")[..., :k], axis=-1)
    return tuple(top.tolist()) if s.ndim == 1 else top
