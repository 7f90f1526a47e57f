"""The four synthetic benchmarks and their ground-truth features.

Every dataset has d=10 standard normal features and a binary label;
they differ in which features drive the label and how.  The switch
dataset mixes two mechanisms, so its truth set varies per sample.

Run: python3 demos/synthetic_data.py
"""

import numpy as np

from l2x import datasets as ds


def main():
    n = 5000
    for kind in ("xor", "orange_skin", "nonlinear_additive", "switch"):
        data = ds.generate(kind, n, rng=0)
        x, p, y, truth = ds.as_arrays(data)
        truth_sets, counts = np.unique(truth, axis=0, return_counts=True)
        print(f"{kind}: k={ds.k_for(kind)}, label mean {y.mean():.3f}, "
              f"P(y=1|x) range [{p.min():.3f}, {p.max():.3f}]")
        for t, count in zip(truth_sets, counts):
            print(f"  truth {tuple(t.tolist())} ({count / n:.0%} of samples)")

    # the exact conditional probability is available for scoring oracles
    x, p, _, _ = ds.as_arrays(ds.generate("xor", 5, rng=1))
    print()
    print("xor: P(y=1|x) depends only on the product of features 0 and 1")
    for i in range(5):
        print(f"  x0*x1 = {x[i, 0] * x[i, 1]:+.3f} -> p = {p[i]:.4f}")


if __name__ == "__main__":
    main()
