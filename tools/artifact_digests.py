"""Print one sha256 per byte-stable artifact of a fixed set of runs.

Usage::

    PYTHONPATH=src python tools/artifact_digests.py [WORKDIR] > digests.txt

It imports ``l2x`` from ``PYTHONPATH`` and needs numpy alone.  On one
BLAS thread it runs five ``run_benchmark`` configurations and one CLI
chain (``generate``, ``train-model --val-data``, ``train-explainer``,
``explain`` with every method, ``evaluate --out-posthoc``, then
``benchmark --all`` and ``benchmark`` reusing its checkpoints), and
prints ``<sha256>  <run>/<file>`` for every artifact that same-seed runs
write byte for byte: checkpoints, CSVs, ``ranks.csv``, ``posthoc.json``,
``summary.json``, explanation JSONL with each record's ``ns`` dropped,
training curves without their ``wall_ms`` column, and each CLI command's
stdout.  ``timings.json`` varies by design and is left out.  It then
prints ``<sha256>  objective/<case>/<what>`` for the taped reference
graph, which no run builds: ``l2x_objective``'s value and each
``ad.backward`` gradient over the explainer and variational parameters,
then over the variational parameters alone, for a few fixed seeds and
widths (one net 200 wide).  Two trees write the same bytes when ``diff``
finds their outputs equal.  Without WORKDIR the runs go to a temporary
directory, removed at the end.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads: the bits of a matmul depend on the thread count

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from l2x import autodiff as ad
from l2x import cli
from l2x.explain import ALL_METHODS
from l2x.networks import build_classifier, build_explainer, build_variational
from l2x.pipeline import RunConfig, run_benchmark
from l2x.sampling import gumbel_from_uniform
from l2x.training import l2x_objective

WIDE_64 = {"classifier_hidden": (64, 64), "explainer_hidden": (64, 64), "variational_hidden": (64, 64)}

# run name -> RunConfig fields
CONFIGS = {
    "switch_10k": {"dataset": "switch", "n_train": 10_000, "n_valid": 2_000, "methods": ("l2x",)},
    "orange_skin_10k": {"dataset": "orange_skin", "n_train": 10_000, "n_valid": 2_000,
                        "methods": ("l2x", "saliency", "taylor"), **WIDE_64},
    "xor_1050": {"dataset": "xor", "n_train": 1050, "n_valid": 300, "batch_size": 400},
    "nonlinear_additive_3k": {"dataset": "nonlinear_additive", "n_train": 3000, "n_valid": 400,
                              "methods": ALL_METHODS},
    "switch_2500": {"dataset": "switch", "n_train": 2500, "n_valid": 400, "batch_size": 1000},
}

# case name -> (seed, hidden widths of all three networks, batch rows, k, temperature); d = 10, two classes
OBJECTIVES = {
    "narrow": (0, (6, 6, 6), 3, 2, 0.5),
    "wide_64": (1, (64, 64), 33, 4, 0.1),
    "wide_200": (2, (200, 200, 200), 257, 5, 0.1),
}

TRAIN = ["--epochs", "3", "--seed", "5"]
SELECTOR = [*TRAIN, "--warmup-epochs", "1", "--explainer-hidden", "32,32", "--variational-hidden", "32,32"]
BENCHMARK = ["benchmark", "--dataset", "xor", "--out-dir", "bench", "--n-train", "1500", "--n-valid", "300",
             "--classifier-hidden", "32,32", *SELECTOR]
# CLI chain over small xor files; every path is relative to the chain's directory
CHAIN = [
    ["generate", "--dataset", "xor", "--n", "2000", "--seed", "1", "--out", "train.csv"],
    ["generate", "--dataset", "xor", "--n", "500", "--seed", "2", "--out", "valid.csv"],
    ["train-model", "--data", "train.csv", "--val-data", "valid.csv", "--out-model", "model.l2x",
     "--out-curve", "model_curve.csv", "--hidden", "32,32", *TRAIN],
    ["train-explainer", "--data", "train.csv", "--model", "model.l2x", "--out-explainer", "explainer.l2x",
     "--out-variational", "variational.l2x", "--out-curve", "l2x_curve.csv", *SELECTOR],
    *(["explain", "--data", "valid.csv", "--method", method, "--explainer", "explainer.l2x",
       "--model", "model.l2x", "--out", f"explanations_{method}.jsonl"] for method in ALL_METHODS),
    ["evaluate", "--data", "valid.csv", "--explanations", *(f"explanations_{m}.jsonl" for m in ALL_METHODS),
     "--model", "model.l2x", "--out-ranks", "ranks.csv", "--out-posthoc", "posthoc.json"],
    [*BENCHMARK, "--all"],
    BENCHMARK,  # reuses the checkpoints the run before wrote
]


def _stable_bytes(path: Path) -> bytes:
    """The bytes of an artifact that same-seed runs must reproduce."""
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        for record in records:
            del record["ns"]
        return json.dumps(records).encode()
    if path.name.endswith("_curve.csv"):
        return b"\n".join(line.rsplit(b",", 1)[0] for line in path.read_bytes().splitlines())
    return path.read_bytes()


def _digests(root: Path, run: Path) -> list[str]:
    return [f"{hashlib.sha256(_stable_bytes(path)).hexdigest()}  {path.relative_to(root)}"
            for path in sorted(run.rglob("*")) if path.is_file() and path.name != "timings.json"]


def _chain(root: Path, directory: Path) -> list[str]:
    """Run the CLI chain in ``directory``, each command's stdout saved next to its artifacts; their digests.

    Both ``benchmark`` commands write to one directory, so its digests are
    taken after each of them.
    """
    directory.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(directory)
    lines = []
    try:
        for i, argv in enumerate(CHAIN):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited with {code}")
            Path(f"stdout_{i:02d}_{argv[0]}.txt").write_text(out.getvalue())
            if argv[0] == "benchmark":
                lines += [f"{line} after command {i}" for line in _digests(root, directory / "bench")]
    finally:
        os.chdir(here)
    return lines + _digests(root, directory)


def _objective_digests() -> list[str]:
    """The digests of each :data:`OBJECTIVES` case's taped objective value and ``backward`` gradients.

    The gradients are taken twice: over both selector networks, then over
    the variational net alone.
    """
    lines = []
    for case, (seed, hidden, rows, k, temperature) in OBJECTIVES.items():
        rng = np.random.default_rng(seed)
        nets = build_classifier(10, 2, rng, hidden), build_explainer(10, rng, hidden), build_variational(10, 2, rng, hidden)
        x = rng.normal(size=(rows, 10))
        noise = gumbel_from_uniform(rng.uniform(size=(rows, k, 10)))
        root = l2x_objective(x, *nets, noise, temperature, k).root
        variational = ad.ParameterSet()
        variational.merge("variational", nets[2].params)
        joint = ad.ParameterSet()
        joint.merge("explainer", nets[1].params)
        joint.merge("variational", nets[2].params)
        arrays = {"value": root.data, **ad.backward(root, joint),
                  **{f"variational_only/{name}": g for name, g in ad.backward(root, variational).items()}}
        lines += [f"{hashlib.sha256(a.tobytes()).hexdigest()}  objective/{case}/{what}" for what, a in arrays.items()]
    return lines


def main(argv: list[str]) -> int:
    with contextlib.ExitStack() as stack:
        root = Path(argv[0]) if argv else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        lines = []
        for name, fields in CONFIGS.items():
            run_benchmark(RunConfig(**fields), root / name)
            lines += _digests(root, root / name)
        lines += _chain(root, root / "cli")
    lines += _objective_digests()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
