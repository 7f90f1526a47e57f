"""The three benchmark workloads, each driving the public l2x API from outside.

Every workload has the same shape: ``setup(r)`` runs once per set-up
repetition, ``run(i)`` is one timed iteration, and ``check(i, state)``
verifies that iteration's outputs outside the timed region.  Library
calls go through module attributes (``pipeline.explain_dataset``, not a
name bound at import) so the traced run sees them.

Inputs come from the benchmark seed only.  Iteration ``i`` uses input
set ``i % inputs``; where a workload trains, each input set has its own
model set, trained from sub-seed ``seed*100 + index``.  Quality is the
mean over the first iteration on each set, which averages out part of the
seed-to-seed spread of small-scale training.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from l2x import cli, datasets, networks, pipeline
from l2x.explain import explain_l2x
from l2x.sampling import hard_top_k

D = datasets.D
SETUPS = 6  # set-up repetitions; the reported set-up time is their median


def _sub_seed(seed: int, r: int) -> int:
    return seed * 100 + r


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _jsonl_without_ns(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    for record in records:
        del record["ns"]
    return records


def _selection_failures(records: list[dict], k: int, label: str) -> list[str]:
    """Selections must be the top-k of the scores they were written with."""
    for record in records:
        if tuple(record["selected"]) != hard_top_k(np.asarray(record["scores"]), k):
            return [f"{label}: row {record['id']} selection is not top-{k} of its scores"]
    return []


def _quality_failures(rank_mean: float, posthoc: float, optimum: float, label: str) -> list[str]:
    out = []
    if not (math.isfinite(rank_mean) and optimum <= rank_mean <= D):
        out.append(f"{label}: rank mean {rank_mean} outside [{optimum}, {D}]")
    if not (math.isfinite(posthoc) and 0.0 <= posthoc <= 1.0):
        out.append(f"{label}: post-hoc accuracy {posthoc} outside [0, 1]")
    return out


class Workload:
    """One set of inputs; subclasses fill in set-up, iteration and checks."""

    name = ""
    ops_per_iteration = 1
    inputs = SETUPS  # distinct input sets the iterations cycle through

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[int, str] = {}  # input index -> digest of first run

    def setup(self, r: int) -> None:
        pass

    def input_index(self, i: int) -> int:
        """Iterations with the same index have identical inputs and outputs."""
        return i % self.inputs

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, state) -> tuple[list[str], dict | None]:
        """Return (failures, outcome); outcome holds quality and digest.

        The outcome is None when the iteration produced nothing to measure.
        """
        raise NotImplementedError

    def same_as_before(self, i: int, digest: str) -> list[str]:
        """Same inputs must give byte-identical stable outputs."""
        first = self.digests.setdefault(self.input_index(i), digest)
        return [] if first == digest else [f"iteration {i}: outputs differ from a same-input run"]


class FitSwitch(Workload):
    """Full ``run_benchmark`` on switch, l2x explanation only, default widths."""

    name = "fit_switch"
    inputs = 6
    n_train = 10_000
    n_valid = 2_000
    stable_files = ("ranks.csv", "posthoc.json", "summary.json",
                    "model.l2x", "explainer.l2x", "variational.l2x")

    def setup(self, r: int) -> None:
        # warm-up pipeline on every code path the timed iterations use
        config = pipeline.RunConfig(dataset="switch", n_train=2000, n_valid=200, epochs=2,
                                    warmup_epochs=1, seed=_sub_seed(self.seed, r), methods=("l2x",))
        pipeline.run_benchmark(config, self.workdir / "warmup")

    def run(self, i: int):
        config = pipeline.RunConfig(
            dataset="switch", n_train=self.n_train, n_valid=self.n_valid,
            seed=_sub_seed(self.seed, self.input_index(i)), methods=("l2x",),
        )
        out = self.workdir / f"run{self.input_index(i)}"
        return config, out, pipeline.run_benchmark(config, out)

    def check(self, i: int, state):
        config, out, summary = state
        label = f"{self.name}[{i}]"
        failures = []
        evals = summary["classifier_evals"]["l2x"]
        if evals != 0:
            failures.append(f"{label}: l2x explanation made {evals} classifier evaluations")
        records = _jsonl_without_ns(out / "explanations_l2x.jsonl")
        if len(records) != config.n_valid:
            failures.append(f"{label}: {len(records)} explanations for {config.n_valid} rows")
        failures += _selection_failures(records, config.k, label)
        rank_mean = summary["median_ranks"]["l2x"]["mean"]
        posthoc = summary["post_hoc"]["l2x"]
        failures += _quality_failures(rank_mean, posthoc, summary["optimal_median"], label)
        digest = _digest(json.dumps(records).encode(),
                         *((out / name).read_bytes() for name in self.stable_files))
        failures += self.same_as_before(i, digest)
        return failures, {"quality": (rank_mean, posthoc), "digest": digest}


class ExplainOrange(Workload):
    """Explain one validation set with l2x, saliency and taylor, then score it."""

    name = "explain_orange"
    ops_per_iteration = 9  # three explanations, three rank reports, three post-hoc reports
    n_train = 10_000
    n_explain = 2_000
    methods = ("l2x", "saliency", "taylor")
    probe_rows = 50
    # Small networks: each per-row graph then fits in cache, so the baselines
    # are bound by the interpreter and not by which tenant shares the cache.
    hidden = (64, 64)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.k = datasets.k_for("orange_skin")
        samples = datasets.generate("orange_skin", self.n_explain, np.random.default_rng([seed, 1]))
        self.x, _, _, self.truths = datasets.as_arrays(samples)
        self.models: list[tuple] = []

    def setup(self, r: int) -> None:
        config = pipeline.RunConfig(dataset="orange_skin", n_train=self.n_train, n_valid=100,
                                    seed=_sub_seed(self.seed, r), methods=("l2x",),
                                    classifier_hidden=self.hidden, explainer_hidden=self.hidden,
                                    variational_hidden=self.hidden)
        out = self.workdir / f"model{r}"
        pipeline.run_benchmark(config, out)
        self.models.append((networks.load_model(out / "model.l2x"),
                            networks.load_model(out / "explainer.l2x")))

    def run(self, i: int):
        clf, explainer = self.models[self.input_index(i)]
        explained, evals = {}, {}
        for method in self.methods:
            clf.reset_eval_count()
            explained[method] = pipeline.explain_dataset(
                method, self.x, self.k, explainer=explainer, classifier=clf, threads=1
            )
            evals[method] = clf.eval_count
        reports = {
            method: (pipeline.ranks_for(explained[method], self.truths, d=D),
                     pipeline.posthoc_for(clf, self.x, explained[method]))
            for method in self.methods
        }
        return explainer, explained, evals, reports

    def check(self, i: int, state):
        explainer, explained, evals, reports = state
        label = f"{self.name}[{i}]"
        failures = []
        if evals["l2x"] != 0:
            failures.append(f"{label}: l2x explanation made {evals['l2x']} classifier evaluations")
        l2x = explained["l2x"]
        failures += _selection_failures(
            [{"id": e.sample_id, "scores": e.scores, "selected": e.selected} for e in l2x], self.k, label
        )
        for row in range(0, self.n_explain, self.n_explain // self.probe_rows):
            if explain_l2x(explainer, self.x[row], self.k).selected != l2x[row].selected:
                failures.append(f"{label}: l2x row {row} batched and single-row selections differ")
                break
        parts = []
        for method in self.methods:
            ranks, posthoc = reports[method]
            failures += _quality_failures(float(ranks.per_sample.mean()), posthoc.accuracy,
                                          ranks.optimal_median, f"{label} {method}")
            parts += [np.stack([e.scores for e in explained[method]]).tobytes(),
                      ranks.per_sample.tobytes(), repr(posthoc.accuracy).encode()]
        digest = _digest(*parts)
        failures += self.same_as_before(i, digest)
        ranks, posthoc = reports["l2x"]
        quality = (float(ranks.per_sample.mean()), posthoc.accuracy)
        return failures, {"quality": quality, "digest": digest}


class RoundtripOrange(Workload):
    """generate -> explain -> evaluate through the CLI, all state in files.

    Set-up trains small checkpoints (hidden widths 64,64) with the CLI as
    well.  Every iteration regenerates the same data; iteration ``i``
    explains it with checkpoint set ``i % inputs``.
    """

    name = "roundtrip_orange"
    ops_per_iteration = 3
    kind = "orange_skin"
    n_train = 10_000
    n_rows = 10_000
    hidden = "64,64"

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    def setup(self, r: int) -> None:
        w, seed = self.workdir, _sub_seed(self.seed, r)
        for argv in (
            ["generate", "--dataset", self.kind, "--n", self.n_train, "--seed", seed,
             "--out", w / f"train{r}.csv"],
            ["train-model", "--data", w / f"train{r}.csv", "--out-model", w / f"model{r}.l2x",
             "--hidden", self.hidden, "--seed", seed],
            ["train-explainer", "--data", w / f"train{r}.csv", "--model", w / f"model{r}.l2x",
             "--out-explainer", w / f"explainer{r}.l2x", "--out-variational", w / f"variational{r}.l2x",
             "--explainer-hidden", self.hidden, "--variational-hidden", self.hidden, "--seed", seed],
        ):
            code = self._cli(*argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]!r} exited with {code}")

    def run(self, i: int):
        w, r = self.workdir, self.input_index(i)
        return (
            self._cli("generate", "--dataset", self.kind, "--n", self.n_rows, "--seed", self.seed,
                      "--out", w / "data.csv"),
            self._cli("explain", "--data", w / "data.csv", "--method", "l2x",
                      "--explainer", w / f"explainer{r}.l2x", "--out", w / "l2x.jsonl"),
            self._cli("evaluate", "--data", w / "data.csv", "--explanations", w / "l2x.jsonl",
                      "--model", w / f"model{r}.l2x", "--out-ranks", w / "ranks.csv",
                      "--out-posthoc", w / "posthoc.json"),
        )

    def check(self, i: int, codes):
        w = self.workdir
        label = f"{self.name}[{i}]"
        failures = [f"{label}: cli call {n} exited with {c}" for n, c in enumerate(codes) if c != 0]
        if failures:
            return failures, None
        k = datasets.k_for(self.kind)
        records = _jsonl_without_ns(w / "l2x.jsonl")
        failures += _selection_failures(records, k, label)
        ranks = [float(line.split(",")[2]) for line in (w / "ranks.csv").read_text().splitlines()[1:]]
        posthoc = json.loads((w / "posthoc.json").read_text())["accuracy"]["l2x"]
        rank_mean = sum(ranks) / len(ranks) if ranks else math.nan
        failures += _quality_failures(rank_mean, posthoc, (k + 1) / 2, label)
        if len(records) != self.n_rows or len(ranks) != self.n_rows:
            failures.append(f"{label}: {len(records)} explanations, {len(ranks)} ranks "
                            f"for {self.n_rows} rows")
        digest = _digest(json.dumps(records).encode(),
                         *((w / name).read_bytes() for name in ("data.csv", "ranks.csv", "posthoc.json")))
        failures += self.same_as_before(i, digest)
        return failures, {"quality": (rank_mean, posthoc), "digest": digest}


WORKLOADS = {w.name: w for w in (FitSwitch, ExplainOrange, RoundtripOrange)}
