"""End-to-end run on a small xor problem: train, explain, evaluate.

Scaled down from the benchmark defaults so it finishes in a few seconds.
The label depends only on the product of features 0 and 1; a good
explainer should put those two on top for every sample.

Run: python3 demos/train_and_explain.py
"""

import numpy as np

from l2x import datasets as ds
from l2x.metrics import accuracy
from l2x.pipeline import explain_dataset, posthoc_for, ranks_for
from l2x.rng import substream
from l2x.training import TrainConfig, train_classifier, train_l2x


def main():
    seed, k = 0, 2
    x_tr, _, y_tr, _ = ds.as_arrays(ds.generate("xor", 20_000, substream(seed, "data", 0)))
    x_va, _, y_va, truths = ds.as_arrays(ds.generate("xor", 2_000, substream(seed, "data", 1)))

    # one training run, the three networks' hidden widths included
    cfg = TrainConfig(k=k, epochs=8, seed=seed, classifier_hidden=(64, 64, 64),
                      explainer_hidden=(64, 64), variational_hidden=(64, 64, 64))
    clf, _ = train_classifier(x_tr, y_tr, cfg)
    print(f"classifier validation accuracy: {accuracy(clf, x_va, y_va):.4f}")

    explainer, variational, report = train_l2x(x_tr, clf, cfg)
    for stat in report.curve:
        print(f"epoch {stat.epoch}: objective {stat.objective:.4f}")

    explanations = explain_dataset("l2x", x_va, k, explainer=explainer, classifier=clf)
    ranks = ranks_for(explanations, truths, d=x_va.shape[1])
    print(f"median rank of the true features: {ranks.summary['median']} "
          f"(optimal {ranks.optimal_median})")

    posthoc = posthoc_for(clf, x_va, explanations)
    print(f"post-hoc accuracy on selected features: {posthoc.accuracy:.4f}")

    sample, first = x_va[0], explanations[0]
    print(f"first sample: x0*x1 = {sample[0] * sample[1]:+.3f}")
    print(f"  scores: {np.array2string(first.scores, precision=2)}")
    print(f"  selected: {first.selected}")


if __name__ == "__main__":
    main()
