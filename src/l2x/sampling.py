"""Continuous relaxation of drawing k features out of d.

A subset is represented by k independent Concrete (Gumbel-softmax)
vectors sharing one set of log-weights; their elementwise maximum V is a
soft k-hot mask that multiplies the input.  Because softmax is
shift-invariant, raw explainer scores act directly as unnormalized
log-weights.  Low temperatures sharpen V toward an exact k-hot vector;
the training default is 0.1 and is never annealed.  k, the number of
noise rows, must lie in [1, d]; a temperature <= 0 is rejected.

The mask of a batch is one tape node (:func:`batched_relaxed_mask`,
built by ``autodiff.node``), with the values and gradients of the
autodiff op chain it replaces, ``reduce_max(softmax(add(expand(scores),
noise)))``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "GumbelNoise",
    "RelaxedMask",
    "sample_gumbel",
    "gumbel_from_uniform",
    "concrete_vector",
    "relaxed_subset_mask",
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


def concrete_vector(log_weights: Tensor, gumbel_row, temperature: float) -> Tensor:
    """One Concrete sample: softmax((log_weights + G) / temperature).

    Differentiable with respect to ``log_weights``; the noise enters as a
    constant.  The result lies in the simplex interior.
    """
    g = gumbel_row.data if isinstance(gumbel_row, Tensor) else np.asarray(gumbel_row, dtype=np.float64)
    if g.shape != log_weights.shape:
        raise ValueError(f"gumbel row shape {g.shape} does not match log_weights {log_weights.shape}")
    return ad.softmax(ad.add(log_weights, ad.constant(g)), temperature=temperature)


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
    return RelaxedMask(V=batched_relaxed_mask(log_weights, noise.values, temperature))


def batched_relaxed_mask(log_weights: Tensor, noise: np.ndarray, temperature: float) -> Tensor:
    """The relaxed subset mask of every score row in a (..., d) array of scores, as one node.

    ``noise`` has shape (..., k, d): k independent Gumbel rows per score
    row, left as is.  Each score row is perturbed by each of its noise
    rows, softmaxed at ``temperature`` and max-reduced over the k samples,
    so row b of a (B, d) batch equals the mask of row b alone, bit for
    bit.  Values and gradients are those of the op chain ``reduce_max(
    softmax(add(expand(log_weights), noise), temperature))``, bit for
    bit: the softmax is the op's own kernel, run in place on the perturbed
    scores; the max and the first argmax over the k samples are taken by
    an exact loop; the vjp routes each mask entry's gradient to the
    lowest-index sample attaining the max by ``np.put_along_axis``; and
    every sum is numpy's same call.
    """
    *lead, d = log_weights.shape
    axis = len(lead)
    if noise.ndim != axis + 2 or noise.shape[:axis] != tuple(lead) or noise.shape[-1] != d:
        raise ValueError(f"noise must have shape {(*lead, 'k', d)}, got {noise.shape}")
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    k = noise.shape[axis]
    concrete = np.add(np.expand_dims(log_weights.data, axis), noise)
    concrete /= temperature
    ad.softmax_array(concrete)
    rows = concrete.reshape(-1, k, d)
    mask = rows[:, 0].copy()
    first = np.zeros(mask.shape, dtype=np.intp)  # lowest sample index attaining the max
    above = np.empty(mask.shape, dtype=bool)
    for j in range(1, k):
        np.putmask(first, np.greater(rows[:, j], mask, out=above), j)
        np.maximum(mask, rows[:, j], out=mask)
    inv_t = 1.0 / temperature

    def vjp(g: np.ndarray):
        grad = np.zeros(rows.shape)
        np.put_along_axis(grad, first[:, None, :], g.reshape(-1, 1, d), axis=1)
        grad = grad.reshape(concrete.shape)
        inner = np.multiply(grad, concrete).sum(axis=-1, keepdims=True)
        grad -= inner
        grad *= concrete
        grad *= inv_t
        return (grad.sum(axis=axis),)

    return ad.node(mask.reshape(log_weights.shape), "relaxed_mask", (log_weights,), vjp)


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
