"""Exact information-theoretic computations on small discrete joints.

Everything here works by full enumeration over a finite alphabet of
feature vectors, so the quantities the learned pipeline only estimates
(mutual information of a feature subset, the optimal per-input subset,
the variational bound's gap) are available exactly, in nats.  These are
the oracles the statistical machinery is validated against.

Key facts being exercised:

* For a fixed subset S, I(X_S; Y) = H(Y) - H(Y | X_S).
* The per-input rule picking argmin_S of the expected code length
  E[-log P(Y | x_S) | x] maximizes the subset-information objective over
  all per-input rules, and its aggregate value is always at least the
  best fixed subset's mutual information.
* E[log P(Y|X_S)] - E[log Q(Y|X_S)] equals the average KL divergence
  from the exact conditional to Q, hence is nonnegative and zero exactly
  when Q matches the exact conditional on every positive-mass group.
  Both expectations are one sum over the (x_S, y) outcomes with mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiscreteJoint",
    "BruteForceResult",
    "entropy",
    "random_binary_joint",
    "exact_conditional",
    "exact_mutual_information",
    "brute_force_best_subset",
    "jensen_gap",
    "expected_log_likelihood",
]


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats; 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    pos = p > 0.0
    return float(-(p[pos] * np.log(p[pos])).sum())


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite joint: feature alphabet, its weights, and Y's conditionals.

    ``xs`` lists the alphabet of feature vectors, one per row; ``px`` is
    the probability of each row; ``py_given_x`` holds P(Y | X = row) on
    the simplex.
    """

    xs: np.ndarray
    px: np.ndarray
    py_given_x: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        px = np.asarray(self.px, dtype=np.float64)
        pyx = np.asarray(self.py_given_x, dtype=np.float64)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "px", px)
        object.__setattr__(self, "py_given_x", pyx)
        if xs.ndim != 2:
            raise ValueError(f"xs must be (m, d), got shape {xs.shape}")
        m = xs.shape[0]
        if px.shape != (m,):
            raise ValueError(f"px must be ({m},), got {px.shape}")
        if pyx.ndim != 2 or pyx.shape[0] != m:
            raise ValueError(f"py_given_x must be ({m}, c), got {pyx.shape}")
        if np.any(px < 0) or abs(px.sum() - 1.0) > 1e-9:
            raise ValueError("px must be nonnegative and sum to 1 within 1e-9")
        if np.any(pyx < 0) or np.any(np.abs(pyx.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("each py_given_x row must lie on the simplex within 1e-9")

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def n_classes(self) -> int:
        return self.py_given_x.shape[1]

    def py(self) -> np.ndarray:
        """Marginal distribution of Y."""
        return self.px @ self.py_given_x


def random_binary_joint(rng: np.random.Generator, d: int, c: int) -> DiscreteJoint:
    """Dirichlet-random joint over all 2^d binary feature vectors."""
    if d < 1 or c < 2:
        raise ValueError(f"need d >= 1 and c >= 2, got d={d}, c={c}")
    xs = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    px = rng.dirichlet(np.ones(len(xs)))
    pyx = rng.dirichlet(np.ones(c), size=len(xs))
    return DiscreteJoint(xs=xs, px=px, py_given_x=pyx)


def _check_subset(d: int, S) -> tuple[int, ...]:
    S = tuple(int(i) for i in S)
    if len(set(S)) != len(S):
        raise ValueError(f"subset {S} contains duplicate indices")
    if any(i < 0 or i >= d for i in S):
        raise ValueError(f"subset {S} out of range for d={d}")
    return tuple(sorted(S))


def _groups(joint: DiscreteJoint, S):
    """Group atoms by their S-subvector, after checking S.

    Returns (inverse mapping atom -> group, group weights, group
    conditionals P(Y | X_S = value), group key tuples).
    """
    S = _check_subset(joint.d, S)
    m = joint.xs.shape[0]
    if len(S) == 0:
        inv = np.zeros(m, dtype=int)
        keys = [()]
    else:
        sub = joint.xs[:, S]
        uniq, inv = np.unique(sub, axis=0, return_inverse=True)
        keys = [tuple(row.tolist()) for row in uniq]
    n_groups = len(keys)
    w = np.zeros(n_groups)
    np.add.at(w, inv, joint.px)
    cond = np.zeros((n_groups, joint.n_classes))
    np.add.at(cond, inv, joint.px[:, None] * joint.py_given_x)
    pos = w > 0.0
    cond[pos] /= w[pos, None]
    return inv, w, cond, keys


def exact_conditional(joint: DiscreteJoint, S) -> dict[tuple, np.ndarray]:
    """P(Y | X_S = v) for every subvector value v with positive mass."""
    _, w, cond, keys = _groups(joint, S)
    return {key: cond[g].copy() for g, key in enumerate(keys) if w[g] > 0.0}


def exact_mutual_information(joint: DiscreteJoint, S) -> float:
    """I(X_S; Y) = H(Y) - H(Y | X_S), in nats, by exact marginalization."""
    _, w, cond, _ = _groups(joint, S)
    h_y_given = sum(float(w[g]) * entropy(cond[g]) for g in range(len(w)) if w[g] > 0.0)
    return entropy(joint.py()) - h_y_given


@dataclass
class BruteForceResult:
    """Both characterizations of the optimal subset of size k.

    ``best_subset`` / ``best_mi``: the fixed subset maximizing I(X_S;Y)
    (lexicographically smallest among ties).  ``per_x_subsets``: for each
    positive-mass atom, the subset minimizing expected code length given
    that atom (None for zero-mass atoms).  ``rule_value``: the aggregate
    objective of the per-x rule; always >= best_mi.
    """

    best_subset: tuple[int, ...]
    best_mi: float
    per_x_subsets: list = field(repr=False)
    rule_value: float = 0.0


def brute_force_best_subset(
    joint: DiscreteJoint, k: int, max_subsets: int = 10_000
) -> BruteForceResult:
    """Enumerate all size-k subsets; cross-check the per-x optimality rule.

    Verifies internally, per positive-mass atom, that the subset
    minimizing expected code length is the one maximizing that atom's
    contribution to the information objective (they differ by a constant
    in S), and that the per-x rule's aggregate value is at least the best
    fixed subset's mutual information.
    """
    d = joint.d
    if not 1 <= k <= d:
        raise ValueError(f"k must satisfy 1 <= k <= d={d}, got {k}")
    n_subsets = math.comb(d, k)
    if n_subsets > max_subsets:
        raise ValueError(
            f"resource cap: C({d},{k}) = {n_subsets} subsets exceeds limit {max_subsets}"
        )

    px = joint.px
    pyx = joint.py_given_x
    support = px > 0.0
    log_py = np.where(joint.py() > 0.0, np.log(np.where(joint.py() > 0.0, joint.py(), 1.0)), 0.0)
    h_y = entropy(joint.py())

    subsets = list(itertools.combinations(range(d), k))
    best_subset, best_mi = None, -np.inf
    # per atom: minimal expected code length and maximal MI contribution, and the
    # index of the first subset attaining each (-1 for zero-mass atoms)
    best_code = np.full(len(px), np.inf)
    best_contrib = np.full(len(px), -np.inf)
    code_pick = np.full(len(px), -1)
    contrib_pick = np.full(len(px), -1)

    for j, S in enumerate(subsets):
        inv, w, cond, _ = _groups(joint, S)
        cond_per_atom = cond[inv]
        # log P(y | x_S); safe where the atom has mass and P(y|x) > 0
        with np.errstate(divide="ignore"):
            log_cond = np.log(cond_per_atom)
        terms = np.where(pyx > 0.0, pyx * log_cond, 0.0)
        code = -terms.sum(axis=1)  # E[-log P(Y|x_S) | x]
        contrib = terms.sum(axis=1) - (pyx * log_py[None, :]).sum(axis=1)

        # I(X_S;Y) two ways: entropy difference vs px-weighted contribution
        mi = float((px[support] * contrib[support]).sum())
        mi_entropy = h_y - sum(
            float(w[g]) * entropy(cond[g]) for g in range(len(w)) if w[g] > 0.0
        )
        if abs(mi - mi_entropy) > 1e-10:
            raise RuntimeError(
                f"MI routes disagree for S={S}: contribution {mi} vs entropy {mi_entropy}"
            )
        if mi > best_mi + 1e-15 or best_subset is None:
            best_subset, best_mi = S, mi

        better = support & (code < best_code - 1e-15)
        best_code[better], code_pick[better] = code[better], j
        better = support & (contrib > best_contrib + 1e-15)
        best_contrib[better], contrib_pick[better] = contrib[better], j

    # the two per-atom characterizations must pick the same subset
    disagree = np.flatnonzero(code_pick != contrib_pick)
    if disagree.size:
        i = int(disagree[0])
        raise RuntimeError(
            f"per-x characterizations disagree at atom {i}: "
            f"code-length picks {subsets[code_pick[i]]}, contribution picks {subsets[contrib_pick[i]]}"
        )

    rule_value = float((px[support] * best_contrib[support]).sum())
    if rule_value < best_mi - 1e-10:
        raise RuntimeError(
            f"per-x rule value {rule_value} fell below best fixed-subset MI {best_mi}"
        )
    return BruteForceResult(
        best_subset=tuple(best_subset),
        best_mi=best_mi,
        per_x_subsets=[subsets[j] if j >= 0 else None for j in code_pick.tolist()],
        rule_value=rule_value,
    )


def _outcome_terms(joint: DiscreteJoint, S, q: dict):
    """Joint mass, exact P(y | x_S) and Q(y | x_S) of every (x_S, y) with positive mass.

    ``q`` must hold, for each positive-mass subvector value, a row of one
    probability per class on the simplex.  The three arrays are flat, in
    group-then-class order.
    """
    _, w, cond, keys = _groups(joint, S)
    q_rows = np.zeros_like(cond)
    for g in np.flatnonzero(w > 0.0):
        key = keys[g]
        if key not in q:
            raise ValueError(f"q missing conditional for subvector {key}")
        row = np.asarray(q[key], dtype=np.float64)
        if row.shape != (joint.n_classes,):
            raise ValueError(f"q[{key}] must have {joint.n_classes} entries, got {row.shape}")
        if np.any(row < 0) or abs(row.sum() - 1.0) > 1e-9:
            raise ValueError(f"q[{key}] must lie on the simplex within 1e-9")
        q_rows[g] = row
    on = cond > 0.0  # a group without mass has an all-zero conditional
    return (w[:, None] * cond)[on], cond[on], q_rows[on]


def jensen_gap(joint: DiscreteJoint, S, q: dict) -> float:
    """E[log P(Y|X_S)] - E[log Q(Y|X_S)]; >= 0, 0 iff Q is exact.

    ``q`` maps each positive-mass subvector value (as a tuple) to a
    probability row.  A zero Q-probability on an outcome with positive
    joint mass makes the gap +inf.
    """
    mass, p, q_on = _outcome_terms(joint, S, q)
    if np.any(q_on <= 0.0):
        return float("inf")
    # term by term, so that Q equal to the exact conditional gives exactly 0
    return float((mass * (np.log(p) - np.log(q_on))).sum())


def expected_log_likelihood(joint: DiscreteJoint, S, q: dict) -> float:
    """E over the joint of log Q(Y | X_S); -inf if Q is zero on mass."""
    mass, _, q_on = _outcome_terms(joint, S, q)
    if np.any(q_on <= 0.0):
        return float("-inf")
    return float((mass * np.log(q_on)).sum())
