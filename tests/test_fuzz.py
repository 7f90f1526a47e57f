"""Seeded byte mutations of every input file keep the exit-code contract.

A 40-row xor CSV, its l2x explanations and both checkpoints are each
mutated a fixed number of times (bytes replaced, inserted or deleted,
or the file cut short), and every mutant goes through ``cli.main`` in
process.  A run may succeed (0) or reject its input (4); a usage error
(2), a numeric failure (3), an exception escaping ``main`` (1) or a
traceback on stderr is a defect.  A ``--config`` file holds flags, so a
mutant of one may also be a usage error (2).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from l2x import cli

MUTANTS = 100  # per input file
SEED = 20260


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz")
    for argv in (
        ["generate", "--dataset", "xor", "--n", 200, "--seed", 3, "--out", root / "train.csv"],
        ["generate", "--dataset", "xor", "--n", 40, "--seed", 4, "--out", root / "valid.csv"],
        ["train-model", "--data", root / "train.csv", "--out-model", root / "model.l2x",
         "--epochs", 1, "--hidden", "8,8,8", "--seed", 1],
        ["train-explainer", "--data", root / "train.csv", "--model", root / "model.l2x",
         "--out-explainer", root / "ex.l2x", "--out-variational", root / "var.l2x", "--epochs", 1,
         "--explainer-hidden", "8,8", "--variational-hidden", "8,8,8", "--seed", 1],
        ["explain", "--data", root / "valid.csv", "--method", "l2x", "--explainer", root / "ex.l2x",
         "--out", root / "valid.jsonl"],
    ):
        assert run(*argv) == 0, argv[0]
    return root


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to three byte edits: replace, insert or delete a byte, or cut the tail."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(out))) if out else 0
        edit = int(rng.integers(4))
        if edit == 0 and out:
            out[at] = int(rng.integers(256))
        elif edit == 1:
            out.insert(at, int(rng.integers(256)))
        elif edit == 2 and out:
            del out[at]
        elif edit == 3:
            del out[at:]
    return bytes(out)


def _evaluate(w, data, jsonl, model, t):
    return ["evaluate", "--data", data, "--explanations", jsonl, "--model", model,
            "--out-ranks", t / "r.csv", "--out-posthoc", t / "p.json"]


# input file -> argv builders taking (corpus, mutant, tmp_path); mutant i runs builder i % len
TARGETS = {
    "valid.csv": (
        lambda w, bad, t: _evaluate(w, bad, w / "valid.jsonl", w / "model.l2x", t),
        lambda w, bad, t: ["explain", "--data", bad, "--method", "l2x", "--explainer", w / "ex.l2x",
                           "--out", t / "e.jsonl"],
    ),
    "valid.jsonl": (
        lambda w, bad, t: _evaluate(w, w / "valid.csv", bad, w / "model.l2x", t),
    ),
    "model.l2x": (
        lambda w, bad, t: _evaluate(w, w / "valid.csv", w / "valid.jsonl", bad, t),
        lambda w, bad, t: ["explain", "--data", w / "valid.csv", "--method", "saliency",
                           "--model", bad, "--out", t / "e.jsonl"],
    ),
    "ex.l2x": (
        lambda w, bad, t: ["explain", "--data", w / "valid.csv", "--method", "l2x",
                           "--explainer", bad, "--out", t / "e.jsonl"],
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mutated weights may overflow to inf or NaN
@pytest.mark.parametrize("index, name", list(enumerate(TARGETS)), ids=list(TARGETS))
def test_mutated_input_exits_0_or_4(corpus, tmp_path, capsys, index, name):
    rng = np.random.default_rng([SEED, index])
    original = (corpus / name).read_bytes()
    builders = TARGETS[name]
    bad = tmp_path / f"mutant{Path(name).suffix}"
    failures, rejected = [], 0
    for i in range(MUTANTS):
        bad.write_bytes(mutate(original, rng))
        try:
            code = run(*builders[i % len(builders)](corpus, bad, tmp_path))
        except Exception as e:  # what would exit 1 with a traceback
            code = f"{type(e).__name__}: {e}"
        err = capsys.readouterr().err
        rejected += code == 4
        if code not in (0, 4) or "Traceback" in err:
            failures.append(f"mutant {i}: {code!r} {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
    assert rejected > 0  # the mutations do reach the readers' checks


CONFIG = "# a small generate run\ndataset=nonlinear_additive\nn=30\nseed=4\nsin_coeff=-2.5\n"


def test_mutated_config_exits_0_2_or_4(tmp_path, capsys):
    rng = np.random.default_rng([SEED, len(TARGETS)])
    bad = tmp_path / "mutant.cfg"
    failures, codes = [], set()
    for i in range(MUTANTS):
        bad.write_bytes(mutate(CONFIG.encode(), rng))
        try:
            code = run("generate", "--config", bad, "--out", tmp_path / "x.csv")
        except Exception as e:  # what would exit 1 with a traceback
            code = f"{type(e).__name__}: {e}"
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 2, 4) or "Traceback" in err:
            failures.append(f"mutant {i}: {code!r} {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
    assert codes == {0, 2, 4}  # mutants pass, and reach both the flag checks and the reader's
