"""Shipping gates: ten numbered end-to-end checks.

Each test is one gate with its tolerance stated inline: gradient
correctness against central differences (C01), the subset-relaxation
contract (C02), the exact information oracles (C03, C04), full-scale
benchmark quality on the four synthetic datasets (C05-C08), the cost of
the explanation stage (C09), and bit-level reproducibility (C10).

The full-scale gates share session-scoped benchmark runs at the package
defaults: 10^5 train / 10^4 validation samples, learning rate 0.001,
temperature 0.1, seed 0.  Each dataset is run twice into separate
directories so C10 can compare the artifact bytes.
"""

from __future__ import annotations

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from l2x import autodiff as ad
from l2x import datasets as ds
from l2x import oracle as oc
from l2x import sampling as sp
from l2x import training as tr
from l2x.networks import build_classifier, build_explainer, build_variational, load_model
from l2x.pipeline import RunConfig, explain_dataset, ranks_for, run_benchmark
from l2x.rng import substream

KINDS = ("xor", "orange_skin", "nonlinear_additive", "switch")

# metric artifacts that must be byte-stable across same-seed runs;
# timings.json and the jsonl wall-clock fields are measurements, not results
STABLE_FILES = (
    "ranks.csv",
    "posthoc.json",
    "summary.json",
    "model.l2x",
    "explainer.l2x",
    "variational.l2x",
)


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Full-scale benchmark runs at package defaults, one pair per dataset."""
    cache: dict = {}

    def run(kind: str) -> SimpleNamespace:
        if kind not in cache:
            base = tmp_path_factory.mktemp(f"bench_{kind}")
            t0 = time.perf_counter()
            summary = run_benchmark(RunConfig(dataset=kind, seed=0), base / "a")
            wall = time.perf_counter() - t0
            run_benchmark(RunConfig(dataset=kind, seed=0), base / "b")
            cache[kind] = SimpleNamespace(
                summary=summary, dir_a=base / "a", dir_b=base / "b", wall=wall
            )
        return cache[kind]

    return run


def double_sum_mi(joint: oc.DiscreteJoint, S) -> float:
    """Independent MI implementation: plain dict-grouped double summation."""
    S = tuple(S)
    p_vy: dict = {}
    p_v: dict = {}
    c = joint.n_classes
    for i in range(joint.xs.shape[0]):
        v = tuple(joint.xs[i, list(S)].tolist())
        p_v[v] = p_v.get(v, 0.0) + joint.px[i]
        for y in range(c):
            p_vy[(v, y)] = p_vy.get((v, y), 0.0) + joint.px[i] * joint.py_given_x[i, y]
    p_y = [sum(p_vy.get((v, y), 0.0) for v in p_v) for y in range(c)]
    total = 0.0
    for (v, y), pvy in p_vy.items():
        if pvy > 0.0:
            total += pvy * math.log(pvy / (p_v[v] * p_y[y]))
    return total


def composite_graph(seed: int):
    """A small graph touching every differentiable op in the engine."""
    rng = np.random.default_rng(seed)
    params = ad.ParameterSet()
    w1 = params.add("w1", rng.normal(size=(3, 4)) * 0.6)
    b1 = params.add("b1", rng.normal(size=4) * 0.2)
    w2 = params.add("w2", rng.normal(size=(4, 3)) * 0.6)
    b2 = params.add("b2", rng.normal(size=3) * 0.2)
    v = params.add("v", rng.normal(size=3) * 0.5)
    x = rng.normal(size=(2, 3))

    def f() -> ad.Tensor:
        xt = ad.constant(x)
        z1 = ad.add_bias(ad.matmul(xt, w1), b1)
        h = ad.relu(z1)
        z2 = ad.add_bias(ad.matmul(h, w2), b2)
        p = ad.softmax(z2, temperature=0.7)
        lp = ad.log(ad.add(p, ad.constant(np.full((2, 3), 0.05))))
        sg = ad.sigmoid(z2)
        e = ad.exp(ad.mul(z2, ad.constant(np.full((2, 3), 0.3))))
        m = ad.maximum(z2, ad.neg(sg))
        a = ad.absolute(lp)
        tv = ad.expand(v, axis=0, reps=2)
        q = ad.mul(tv, m)
        r1 = ad.reduce_sum(ad.reduce_max(q, axis=1))
        r2 = ad.reduce_mean(ad.add(sg, e))
        r3 = ad.reduce_mean(ad.reduce_sum(a, axis=0))
        return ad.add(r1, ad.add(r2, r3))

    return f, params


def _relu_margin(net, x: np.ndarray) -> float:
    """Smallest |pre-activation| over the net's hidden relu units on x."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(net.spec.layer_widths) - 1
    margin = np.inf
    for i in range(n_layers):
        z = h @ net.params[f"w{i}"].data + net.params[f"b{i}"].data
        if i < n_layers - 1:
            margin = min(margin, float(np.abs(z).min()))
            h = z * (z > 0.0)
        else:
            h = z
    return margin


def _objective_is_fd_resolvable(ex, var, x, noise, tau) -> bool:
    """True when no kink or row tie sits within finite-difference reach.

    Central differences cannot certify a gradient across a relu boundary
    or a tie between the per-feature maxima of the Concrete rows; both
    are measure-zero in the draw, so draws that land one inside the
    +-1e-6 window are skipped rather than miscounted.  Ties only matter
    where the winning row carries material mass: below that the whole
    path sits under the difference quotient's resolution anyway.
    """
    scores = ex.scores(x)
    z = (scores[:, None, :] + noise) / tau
    z = z - z.max(axis=2, keepdims=True)
    c = np.exp(z)
    c = c / c.sum(axis=2, keepdims=True)
    top = np.sort(c, axis=1)
    gap = top[:, -1, :] - top[:, -2, :]
    material = top[:, -1, :] > 1e-3
    if np.any(gap[material] < 1e-2):
        return False
    v = c.max(axis=1)
    return min(_relu_margin(ex, x), _relu_margin(var, x * v)) > 1e-4


def test_c01_gradients_match_central_differences():
    # relative error <= 1e-4 on every resolvable coordinate, >= 100 seeds
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(100):
        f, params = composite_graph(seed)
        report = ad.finite_diff_check(f, params, step=1e-6)
        worst = max(worst, report.max_rel_error)
        checked += report.n_checked

    # the full selection objective, end to end, at a resolvable temperature
    accepted = 0
    for seed in range(100):
        if accepted == 10:
            break
        rng = np.random.default_rng(seed)
        clf = build_classifier(4, 2, rng, hidden=(6, 6, 6))
        ex = build_explainer(4, rng, hidden=(5, 5))
        var = build_variational(4, 2, rng, hidden=(6, 6, 6))
        x = rng.normal(size=(3, 4))
        noise = sp.gumbel_from_uniform(rng.uniform(size=(3, 2, 4)))
        if not _objective_is_fd_resolvable(ex, var, x, noise, tau=0.5):
            continue
        accepted += 1
        joint = ad.ParameterSet()
        joint.merge("explainer", ex.params)
        joint.merge("variational", var.params)

        def f():
            return tr.l2x_objective(x, clf, ex, var, noise, temperature=0.5, k=2).root

        report = ad.finite_diff_check(f, joint, step=1e-6)
        worst = max(worst, report.max_rel_error)
        checked += report.n_checked
    wall = time.perf_counter() - t0

    assert accepted == 10
    assert checked > 3000
    assert worst < 1e-4
    assert wall < 60.0
    print(f"[C01] PASS worst relative error {worst:.3g} over {checked} coordinates "
          f"(110 seeds, {wall:.1f}s)")


def test_c02_subset_relaxation_contract():
    # simplex rows to 1e-9; shift invariance; per-row argmax invariant
    # under temperature; at temperature 0.01 at most k entries stay
    # active over 1000 draws
    d, k = 10, 4
    rng = np.random.default_rng(7)

    lw = ad.parameter(rng.normal(size=d))
    noise = sp.sample_gumbel(rng, k, d)
    for j in range(k):
        row = sp.concrete_vector(lw, noise.values[j], temperature=0.1)
        assert abs(row.data.sum() - 1.0) <= 1e-9
        assert np.all(row.data >= 0.0)
        # softmax is monotone, so the row argmax never depends on the
        # temperature: it is always the argmax of the perturbed scores
        hot = int(np.argmax(lw.data + noise.values[j]))
        for tau in (0.01, 0.1, 1.0, 10.0):
            warm = sp.concrete_vector(lw, noise.values[j], temperature=tau)
            assert int(np.argmax(warm.data)) == hot

    mask = sp.relaxed_subset_mask(lw, noise, temperature=0.1)
    shifted = ad.parameter(lw.data + 11.25)
    mask_shifted = sp.relaxed_subset_mask(shifted, noise, temperature=0.1)
    assert np.allclose(mask.V.data, mask_shifted.V.data, rtol=0.0, atol=1e-9)
    assert int(np.argmax(mask.V.data)) == int(np.argmax(mask_shifted.V.data))

    # "active" means > 1e-6, which float64 can only certify when every
    # row's top-two perturbed scores are separated by more than
    # tau * log(1e6); draws with a closer tie are checked against the
    # weaker majority-mass bound instead of being miscounted
    resolvable_gap = 0.01 * math.log(1e6) * 1.2
    resolved = 0
    max_active = 0
    for _ in range(1000):
        lw_i = rng.normal(size=d)
        noise_i = sp.sample_gumbel(rng, k, d)
        v = sp.relaxed_subset_mask(ad.constant(lw_i), noise_i, temperature=0.01).V.data
        assert int((v > 0.5).sum()) <= k
        z = np.sort(lw_i[None, :] + noise_i.values, axis=1)
        if np.all(z[:, -1] - z[:, -2] > resolvable_gap):
            active = int((v > 1e-6).sum())
            assert 1 <= active <= k
            max_active = max(max_active, active)
            resolved += 1
    assert resolved >= 400
    print(f"[C02] PASS simplex/shift/argmax hold; at temperature 0.01 "
          f"max active entries {max_active} <= k={k} over {resolved} resolved of 1000 draws")


def test_c03_best_subset_attains_exact_information():
    # on 100 random discrete joints (binary features d <= 6, classes <= 3)
    # the enumerated best subset matches an independent double-summation MI
    # to 1e-10, and the bound with the exact conditional attains it
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(100):
        d = int(rng.integers(2, 7))
        c = int(rng.integers(2, 4))
        k = int(rng.integers(1, d + 1))
        joint = oc.random_binary_joint(rng, d, c)

        res = oc.brute_force_best_subset(joint, k)  # raises if inconsistent
        assert abs(res.best_mi - double_sum_mi(joint, res.best_subset)) <= 1e-10
        for S in itertools.combinations(range(d), k):
            assert double_sum_mi(joint, S) <= res.best_mi + 1e-10
        assert abs(oc.exact_mutual_information(joint, res.best_subset) - res.best_mi) <= 1e-10

        # plugging the exact conditional into the bound recovers the MI
        ell = oc.expected_log_likelihood(joint, res.best_subset,
                                         oc.exact_conditional(joint, res.best_subset))
        assert abs(ell + oc.entropy(joint.py()) - res.best_mi) <= 1e-10
        # a free per-atom choice never falls below the best fixed subset
        assert res.rule_value >= res.best_mi - 1e-10
    wall = time.perf_counter() - t0
    assert wall < 120.0
    print(f"[C03] PASS 100 joints consistent to 1e-10 ({wall:.1f}s)")


def test_c04_jensen_gap_nonnegative_and_tight():
    # gap >= 0 for any conditional; exactly 0 (to 1e-12) iff the
    # conditional is the exact one
    rng = np.random.default_rng(13)
    for trial in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 4))
        joint = oc.random_binary_joint(rng, d, c)
        size = int(rng.integers(1, d + 1))
        S = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

        exact = oc.exact_conditional(joint, S)
        assert abs(oc.jensen_gap(joint, S, exact)) <= 1e-12
        ell = oc.expected_log_likelihood(joint, S, exact)
        h_cond = oc.entropy(joint.py()) - oc.exact_mutual_information(joint, S)
        assert abs(ell + h_cond) <= 1e-12

        mixed = {key: 0.7 * row + 0.3 / c for key, row in exact.items()}
        assert oc.jensen_gap(joint, S, mixed) > 1e-12

        random_q = {key: rng.dirichlet(np.ones(c)) for key in exact}
        assert oc.jensen_gap(joint, S, random_q) >= -1e-15
    print("[C04] PASS gap nonnegative, zero only at the exact conditional (50 joints)")


@pytest.mark.slow
def test_c05_xor_median_rank(bench):
    b = bench("xor")
    med = b.summary["median_ranks"]["l2x"]["median"]
    assert b.summary["k"] == 2
    assert med <= 2.0  # optimal 1.5
    assert b.wall < 600.0
    print(f"[C05] PASS xor median rank {med} <= 2.0 (optimal 1.5, {b.wall:.0f}s)")


@pytest.mark.slow
def test_c06_orange_skin_median_rank(bench):
    b = bench("orange_skin")
    med = b.summary["median_ranks"]["l2x"]["median"]
    assert b.summary["k"] == 4
    assert med <= 3.0  # optimal 2.5
    assert b.wall < 600.0
    print(f"[C06] PASS orange_skin median rank {med} <= 3.0 (optimal 2.5, {b.wall:.0f}s)")


@pytest.mark.slow
def test_c07_learned_selection_orders_with_gradient_baselines(bench):
    # on the two harder datasets the learned method's summary median stays
    # within +0.5 of every gradient baseline's
    for kind in ("nonlinear_additive", "switch"):
        b = bench(kind)
        ranks = b.summary["median_ranks"]
        med = ranks["l2x"]["median"]
        for baseline in ("saliency", "taylor"):
            assert med <= ranks[baseline]["median"] + 0.5, (
                f"{kind}: l2x {med} vs {baseline} {ranks[baseline]['median']}"
            )
        print(f"[C07] PASS {kind} l2x median {med} vs "
              f"saliency {ranks['saliency']['median']} / taylor {ranks['taylor']['median']}")


@pytest.mark.slow
def test_c08_orange_skin_posthoc_fidelity(bench):
    b = bench("orange_skin")
    post = b.summary["post_hoc"]
    gap = abs(post["l2x"] - post["truth"])
    assert gap <= 0.05
    print(f"[C08] PASS post-hoc accuracy {post['l2x']} within "
          f"{gap:.4f} of ground-truth-mask reference {post['truth']}")


@pytest.mark.slow
def test_c09_explanation_stage_costs_no_classifier_evals(bench):
    b = bench("xor")
    explainer = load_model(b.dir_a / "explainer.l2x")
    clf = load_model(b.dir_a / "model.l2x")
    x_va, _, _, _ = ds.as_arrays(ds.generate("xor", 10_000, substream(0, "data", 1)))

    clf.reset_eval_count()
    t0 = time.perf_counter()
    explanations = explain_dataset("l2x", x_va, 2, explainer=explainer,
                                   classifier=clf, threads=1)
    wall = time.perf_counter() - t0
    assert len(explanations) == 10_000
    assert clf.eval_count == 0
    assert wall < 10.0
    print(f"[C09] PASS 10^4 samples explained in {wall:.2f}s with 0 classifier evaluations")


@pytest.mark.slow
def test_c10_same_seed_runs_are_byte_identical(bench):
    for kind in KINDS:
        b = bench(kind)
        for name in STABLE_FILES:
            a_bytes = (b.dir_a / name).read_bytes()
            b_bytes = (b.dir_b / name).read_bytes()
            assert a_bytes == b_bytes, f"{kind}/{name} differs between same-seed runs"
    print(f"[C10] PASS {len(STABLE_FILES)} artifacts byte-identical across "
          f"same-seed runs on all {len(KINDS)} datasets")
