"""Instancewise feature selection toolkit.

Trains a small explainer network to pick, per input, the feature subset
most informative about a black-box classifier's prediction, and ships
the surrounding apparatus: a reverse-mode autodiff engine, continuous
subset-sampling relaxations, gradient baselines, synthetic benchmark
generators, and exact information-theoretic oracles for validating the
whole stack on small discrete distributions.
"""

from .datasets import Dataset, as_arrays, canonical_kind, generate, k_for, read_csv, write_csv
from .errors import CsvFormatError, JsonlFormatError, ModelFormatError, NumericError
from .explain import Explanation, Explanations, explain_l2x, read_jsonl, write_jsonl
from .metrics import median_rank, post_hoc_accuracy, ranks_of
from .networks import (
    build_classifier,
    build_explainer,
    build_variational,
    load_model,
    save_model,
)
from .oracle import (
    DiscreteJoint,
    brute_force_best_subset,
    exact_mutual_information,
    jensen_gap,
)
from .pipeline import RunConfig, explain_dataset, run_benchmark, run_oracle_suite
from .rng import substream
from .sampling import hard_top_k, relaxed_subset_mask, sample_gumbel
from .training import TrainConfig, l2x_objective, train_classifier, train_l2x

__version__ = "0.1.0"

__all__ = [
    "CsvFormatError",
    "Dataset",
    "DiscreteJoint",
    "Explanation",
    "Explanations",
    "JsonlFormatError",
    "ModelFormatError",
    "NumericError",
    "RunConfig",
    "TrainConfig",
    "as_arrays",
    "brute_force_best_subset",
    "build_classifier",
    "build_explainer",
    "build_variational",
    "canonical_kind",
    "exact_mutual_information",
    "explain_dataset",
    "explain_l2x",
    "generate",
    "hard_top_k",
    "jensen_gap",
    "k_for",
    "l2x_objective",
    "load_model",
    "median_rank",
    "post_hoc_accuracy",
    "ranks_of",
    "read_csv",
    "read_jsonl",
    "relaxed_subset_mask",
    "run_benchmark",
    "run_oracle_suite",
    "sample_gumbel",
    "save_model",
    "substream",
    "train_classifier",
    "train_l2x",
    "write_csv",
    "write_jsonl",
]
