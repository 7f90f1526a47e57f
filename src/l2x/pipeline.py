"""End-to-end benchmark driver shared by the command line and the tests.

A benchmark run generates a train/validation split, trains the classifier
and then the selector pair against it, explains the validation set with
every requested method (one ``Explanations`` record of columns each), and
writes the artifact set:

* ``model.l2x``, ``explainer.l2x``, ``variational.l2x`` checkpoints,
* ``model_curve.csv``, ``l2x_curve.csv`` training curves,
* ``explanations_<method>.jsonl`` per-sample scores and selections,
* ``ranks.csv`` per-sample median ranks in long format,
* ``posthoc.json`` masked-input fidelity per method,
* ``summary.json`` the deterministic metric roll-up,
* ``timings.json`` wall-clock figures, and how they were taken: the
  CPUs the process could use, the thread count of the OpenBLAS under
  numpy (null where none is found) and the jobs each training call's
  worker thread ran (0: it did not run; null: training was skipped).

Explaining rows is ``explain.explain_dataset``, re-exported here for the
callers that reach it through this module; held-out accuracy is
``metrics.accuracy``, whether the classifier was trained or loaded.

Wall-clock measurements vary between identically-seeded runs: all of
``timings.json``, both curves' ``wall_ms`` column and the ``ns`` field
of every explanation record.  Everything else is byte-stable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import DEFAULT_SIN_COEFF, D, as_arrays, canonical_kind, generate, k_for
from .explain import Explanations, check_method, explain_dataset, write_jsonl  # explain_dataset re-exported
from .files import atomic_open
from .metrics import MedianRankReport, PostHocReport, accuracy, median_rank, post_hoc_accuracy, write_ranks_csv
from .networks import is_int, load_model, save_model
from .oracle import brute_force_best_subset, exact_conditional, jensen_gap, random_binary_joint
from .rng import substream
from .training import TrainConfig, allowed_cpus, blas_threads, train_classifier, train_l2x, write_curve_csv

__all__ = [
    "RunConfig",
    "METHODS",
    "explain_dataset",
    "ranks_for",
    "posthoc_for",
    "run_benchmark",
    "run_oracle_suite",
    "write_json",
]

METHODS = ("l2x", "saliency", "taylor")  # the default; any of explain.ALL_METHODS may be run


@dataclass(frozen=True, kw_only=True)
class RunConfig(TrainConfig):
    """Benchmark parameters: the training settings, the data and the methods.

    Validated before any work starts; ``k`` defaults to the dataset's truth size.
    """

    dataset: str
    k: int | None = None
    n_train: int = 100_000
    n_valid: int = 10_000
    sin_coeff: float = DEFAULT_SIN_COEFF
    methods: tuple[str, ...] = METHODS

    def __post_init__(self):
        object.__setattr__(self, "dataset", canonical_kind(self.dataset))
        if self.k is None:
            object.__setattr__(self, "k", k_for(self.dataset))
        if not 1 <= self.k <= D:
            raise ValueError(f"k must satisfy 1 <= k <= {D}, got {self.k}")
        for name in ("n_train", "n_valid"):
            if not is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if isinstance(self.sin_coeff, bool):
            raise ValueError(f"sin_coeff must be a number, got {self.sin_coeff!r}")
        for m in self.methods:
            check_method(m)
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must name at least one method, each once; got {self.methods}")
        super().__post_init__()


def _id_order(ids: np.ndarray, n: int):
    """Index that puts ``ids`` in row order; ValueError unless they cover the ``n`` rows exactly once."""
    order = slice(None) if (ids[1:] >= ids[:-1]).all() else np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(n)):
        raise ValueError("explanation ids do not cover the dataset exactly once")
    return order


def ranks_for(explanations: Explanations, truths, d: int) -> MedianRankReport:
    """Median-rank report for one method's explanations, aligned by id."""
    order = _id_order(explanations.ids, len(truths))
    return median_rank(explanations.scores[order], truths, d)


def posthoc_for(classifier, x: np.ndarray, explanations: Explanations) -> PostHocReport:
    """Post-hoc accuracy of one method's selections against the classifier, aligned by id."""
    order = _id_order(explanations.ids, x.shape[0])
    return post_hoc_accuracy(classifier, x, explanations.selected[order])


def write_json(payload: dict, path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_benchmark(config: RunConfig, out_dir, reuse: bool = False) -> dict:
    """Run the full pipeline for one dataset and write the artifact set.

    With ``reuse`` the three checkpoints are loaded from ``out_dir``
    instead of retrained, and only explanation and evaluation run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, k = config.dataset, config.k

    train = generate(kind, config.n_train, substream(config.seed, "data", 0), sin_coeff=config.sin_coeff)
    valid = generate(kind, config.n_valid, substream(config.seed, "data", 1), sin_coeff=config.sin_coeff)
    x_tr, _, y_tr, _ = as_arrays(train)
    x_va, _, y_va, truths = as_arrays(valid)

    timings: dict = {"n_valid": config.n_valid, "explain": {}, "cpus": allowed_cpus(), "blas_threads": blas_threads()}
    summary: dict = {
        "dataset": kind,
        "k": k,
        "seed": config.seed,
        "n_train": config.n_train,
        "n_valid": config.n_valid,
        "epochs": config.epochs,
        "warmup_epochs": config.warmup_epochs,
        "temperature": config.temperature,
        "learning_rate": config.learning_rate,
        "batch_size": min(config.batch_size, config.n_train),
    }

    if reuse:
        clf = load_model(out / "model.l2x", kind="classifier")
        explainer = load_model(out / "explainer.l2x", kind="explainer")
        variational = load_model(out / "variational.l2x", kind="variational")
        summary["classifier"] = {"val_accuracy": accuracy(clf, x_va, y_va)}
        timings["train_model_ms"] = None
        timings["train_l2x_ms"] = None
        timings["train_model_worker_jobs"] = timings["train_l2x_worker_jobs"] = None
    else:
        t0 = time.perf_counter()
        clf, clf_report = train_classifier(x_tr, y_tr, config)
        summary["classifier"] = {
            "val_accuracy": accuracy(clf, x_va, y_va),
            "final_loss": clf_report.curve[-1].objective if clf_report.curve else None,
        }
        timings["train_model_ms"] = (time.perf_counter() - t0) * 1e3
        timings["train_model_worker_jobs"] = clf_report.worker_jobs
        save_model(clf, out / "model.l2x")
        write_curve_csv(clf_report.curve, out / "model_curve.csv")

        t0 = time.perf_counter()
        explainer, variational, l2x_report = train_l2x(x_tr, clf, config)
        timings["train_l2x_ms"] = (time.perf_counter() - t0) * 1e3
        timings["train_l2x_worker_jobs"] = l2x_report.worker_jobs
        save_model(explainer, out / "explainer.l2x")
        save_model(variational, out / "variational.l2x")
        write_curve_csv(l2x_report.curve, out / "l2x_curve.csv")
        summary["l2x_final_objective"] = l2x_report.curve[-1].objective if l2x_report.curve else None

    ranks: dict = {}
    summary["median_ranks"] = {}
    summary["classifier_evals"] = {}
    post_hoc: dict = {}
    for method in config.methods:
        clf.reset_eval_count()
        t0 = time.perf_counter_ns()
        explanations = explain_dataset(method, x_va, k, explainer=explainer, classifier=clf)
        total_ns = time.perf_counter_ns() - t0
        summary["classifier_evals"][method] = clf.eval_count
        timings["explain"][method] = {"total_ms": total_ns / 1e6, "mean_ns_per_sample": total_ns / config.n_valid}
        write_jsonl(explanations, out / f"explanations_{method}.jsonl")

        report = ranks_for(explanations, truths, d=D)
        summary["median_ranks"][method] = report.summary
        summary["optimal_median"] = report.optimal_median
        ranks[method] = report.per_sample
        post_hoc[method] = posthoc_for(clf, x_va, explanations).accuracy

    # reference: masking down to the generator's true features
    post_hoc["truth"] = post_hoc_accuracy(clf, x_va, truths).accuracy
    summary["post_hoc"] = post_hoc

    write_ranks_csv(ranks, kind, out / "ranks.csv")
    write_json({"dataset": kind, "k": k, "accuracy": post_hoc}, out / "posthoc.json")
    write_json(summary, out / "summary.json")
    write_json(timings, out / "timings.json")
    return summary


def run_oracle_suite(
    n_joints: int = 100, seed: int = 0, max_d: int = 6, max_c: int = 3
) -> dict:
    """Exercise the exact-information results on random finite joints.

    For each joint: the brute-force search's two subset characterizations
    must agree (it raises internally if not), adding a feature never
    lowers the best mutual information, the exact conditional attains a
    zero gap, and a perturbed conditional pays a positive one.

    ``max_d`` lies in [2, 15] and ``max_c`` in [2, 64]: a joint lists all
    2^d feature vectors, 15 is the largest d whose every C(d, k) fits
    :func:`brute_force_best_subset`'s subset cap, and ``max_c`` bounds
    each vector's class distribution.  A setting out of range raises
    ValueError before any work.
    """
    for name, value, least, most in (("joints", n_joints, 1, None), ("max_d", max_d, 2, 15),
                                     ("max_c", max_c, 2, 64)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"{name} must be at most {most}, got {value}")
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_monotonicity = 0.0
    for _ in range(n_joints):
        d = int(rng.integers(2, max_d + 1))
        c = int(rng.integers(2, max_c + 1))
        joint = random_binary_joint(rng, d, c)
        k = int(rng.integers(1, d))
        result = brute_force_best_subset(joint, k)
        if k < d:
            bigger = brute_force_best_subset(joint, k + 1)
            worst_monotonicity = min(worst_monotonicity, bigger.best_mi - result.best_mi)
        S = result.best_subset
        q = exact_conditional(joint, S)
        worst_gap = max(worst_gap, abs(jensen_gap(joint, S, q)))
        key = next(iter(q))
        row = q[key] * 0.7 + 0.3 / joint.n_classes
        perturbed = dict(q)
        perturbed[key] = row / row.sum()
        if np.allclose(row, q[key]):
            continue
        if jensen_gap(joint, S, perturbed) <= 0.0:
            raise RuntimeError("perturbed conditional did not pay a positive gap")
    report = {
        "joints": n_joints,
        "seed": seed,
        "max_d": max_d,
        "max_c": max_c,
        "worst_exact_gap": worst_gap,
        "worst_monotonicity_violation": max(0.0, -worst_monotonicity),
        "all_consistent": True,
    }
    return report
