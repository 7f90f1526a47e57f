"""Command-line behavior: files, determinism, and the exit-code contract."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from l2x import cli
from l2x.datasets import read_csv
from l2x.explain import read_jsonl
from l2x.metrics import read_ranks_csv
from l2x.networks import load_model


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """Tiny xor corpus with trained checkpoints, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    assert run("generate", "--dataset", "xor", "--n", 400, "--seed", 7,
               "--out", root / "train.csv") == 0
    assert run("generate", "--dataset", "xor", "--n", 80, "--seed", 8,
               "--out", root / "valid.csv") == 0
    assert run("train-model", "--data", root / "train.csv", "--val-data", root / "valid.csv",
               "--out-model", root / "model.l2x", "--out-curve", root / "model_curve.csv",
               "--epochs", 1, "--batch-size", 100, "--hidden", "8,8,8", "--seed", 1) == 0
    assert run("train-explainer", "--data", root / "train.csv", "--model", root / "model.l2x",
               "--out-explainer", root / "ex.l2x", "--out-variational", root / "var.l2x",
               "--epochs", 1, "--batch-size", 100, "--explainer-hidden", "8,8",
               "--variational-hidden", "8,8,8", "--seed", 1) == 0
    return root


class TestGenerate:
    def test_round_trip_and_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("generate", "--dataset", "orange_skin", "--n", 50, "--seed", 3, "--out", a) == 0
        assert run("generate", "--dataset", "orange-skin", "--n", 50, "--seed", 3, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        data = read_csv(a)
        assert len(data) == 50 and data.truth[0].tolist() == [0, 1, 2, 3]

    def test_unknown_dataset_exits_2(self, tmp_path, capsys):
        assert run("generate", "--dataset", "mnist", "--out", tmp_path / "x.csv") == 2
        assert "usage" in capsys.readouterr().err

    def test_unwritable_path_exits_4(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert run("generate", "--dataset", "xor", "--n", 5, "--out", out) == 4


class TestTrainModel:
    def test_outputs_exist(self, workdir):
        assert load_model(workdir / "model.l2x").spec.output_width == 2
        header = (workdir / "model_curve.csv").read_text().splitlines()[0]
        assert header == "epoch,objective,wall_ms"

    def test_same_seed_identical_checkpoints(self, workdir, tmp_path):
        out = tmp_path / "again.l2x"
        assert run("train-model", "--data", workdir / "train.csv",
                   "--val-data", workdir / "valid.csv",
                   "--out-model", out, "--epochs", 1, "--batch-size", 100,
                   "--hidden", "8,8,8", "--seed", 1) == 0
        assert out.read_bytes() == (workdir / "model.l2x").read_bytes()

    def test_missing_data_exits_4(self, tmp_path):
        assert run("train-model", "--data", tmp_path / "absent.csv",
                   "--out-model", tmp_path / "m.l2x") == 4

    def test_zero_epochs_warns_and_writes(self, workdir, tmp_path, capsys):
        out = tmp_path / "untrained.l2x"
        assert run("train-model", "--data", workdir / "train.csv", "--out-model", out,
                   "--epochs", 0, "--hidden", "8,8,8") == 0
        assert "untrained" in capsys.readouterr().err
        assert load_model(out).spec.output_width == 2


class TestExplain:
    @pytest.mark.parametrize("method", ["l2x", "saliency", "taylor", "taylor-abs"])
    def test_each_method_writes_jsonl(self, workdir, tmp_path, method):
        out = tmp_path / f"{method}.jsonl"
        argv = ["explain", "--data", workdir / "valid.csv", "--method", method, "--out", out]
        if method == "l2x":
            argv += ["--explainer", workdir / "ex.l2x"]
        else:
            argv += ["--model", workdir / "model.l2x"]
        assert run(*argv) == 0
        items = read_jsonl(out)
        assert len(items) == 80
        assert [e.sample_id for e in items] == list(range(80))
        assert all(e.method == method and len(e.selected) == 2 for e in items)

    def test_l2x_without_explainer_exits_2(self, workdir, tmp_path):
        assert run("explain", "--data", workdir / "valid.csv", "--method", "l2x",
                   "--out", tmp_path / "x.jsonl") == 2

    def test_unknown_method_exits_2(self, workdir, tmp_path):
        assert run("explain", "--data", workdir / "valid.csv", "--method", "lime",
                   "--model", workdir / "model.l2x", "--out", tmp_path / "x.jsonl") == 2


class TestEvaluate:
    def test_ranks_and_posthoc(self, workdir, tmp_path):
        l2x_out = tmp_path / "l2x.jsonl"
        sal_out = tmp_path / "sal.jsonl"
        assert run("explain", "--data", workdir / "valid.csv", "--method", "l2x",
                   "--explainer", workdir / "ex.l2x", "--out", l2x_out) == 0
        assert run("explain", "--data", workdir / "valid.csv", "--method", "saliency",
                   "--model", workdir / "model.l2x", "--out", sal_out) == 0
        ranks_path = tmp_path / "ranks.csv"
        ph_path = tmp_path / "ph.json"
        assert run("evaluate", "--data", workdir / "valid.csv",
                   "--explanations", l2x_out, sal_out,
                   "--model", workdir / "model.l2x",
                   "--out-ranks", ranks_path, "--out-posthoc", ph_path,
                   "--dataset-label", "xor") == 0
        rows = read_ranks_csv(ranks_path)
        assert len(rows) == 160
        assert {r[0] for r in rows} == {"l2x", "saliency"}
        assert all(r[1] == "xor" and 1.0 <= r[2] <= 10.0 for r in rows)
        payload = json.loads(ph_path.read_text())
        assert set(payload["accuracy"]) == {"l2x", "saliency", "truth"}
        assert all(0.0 <= v <= 1.0 for v in payload["accuracy"].values())


BENCH_ARGS = (
    "--n-train", 300, "--n-valid", 60, "--epochs", 1, "--batch-size", 100,
    "--classifier-hidden", "8,8,8", "--explainer-hidden", "8,8",
    "--variational-hidden", "8,8,8", "--seed", 5,
)

ARTIFACTS = (
    "model.l2x", "explainer.l2x", "variational.l2x", "model_curve.csv", "l2x_curve.csv",
    "explanations_l2x.jsonl", "explanations_saliency.jsonl", "explanations_taylor.jsonl",
    "ranks.csv", "posthoc.json", "summary.json", "timings.json",
)


class TestBenchmark:
    def test_all_writes_artifact_set(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dataset"] == "xor" and summary["k"] == 2
        assert summary["classifier_evals"]["l2x"] == 0
        assert summary["classifier_evals"]["saliency"] == 60
        assert summary["optimal_median"] == 1.5
        rows = read_ranks_csv(out / "ranks.csv")
        assert len(rows) == 180  # 3 methods x 60 samples

    def test_reuse_skips_training(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS) == 0
        before = (out / "model.l2x").read_bytes()
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, *BENCH_ARGS) == 0
        assert (out / "model.l2x").read_bytes() == before
        timings = json.loads((out / "timings.json").read_text())
        assert timings["train_model_ms"] is None

    def test_warmup_epochs_reach_the_run(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all",
                   "--warmup-epochs", 0, "--methods", "l2x", *BENCH_ARGS) == 0
        assert json.loads((out / "summary.json").read_text())["warmup_epochs"] == 0

    def test_missing_artifacts_without_all_exits_4(self, tmp_path):
        assert run("benchmark", "--dataset", "xor", "--out-dir", tmp_path / "empty",
                   *BENCH_ARGS) == 4

    def test_same_seed_metric_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("benchmark", "--dataset", "xor", "--out-dir", a, "--all", *BENCH_ARGS) == 0
        assert run("benchmark", "--dataset", "xor", "--out-dir", b, "--all", *BENCH_ARGS) == 0
        for name in ("ranks.csv", "posthoc.json", "summary.json",
                     "model.l2x", "explainer.l2x", "variational.l2x"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestConfigFile:
    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("dataset=xor\nn=30\nseed=4\n# comment\n\n")
        out = tmp_path / "from_file.csv"
        assert run("generate", "--config", cfg, "--out", out) == 0
        assert len(read_csv(out)) == 30
        out2 = tmp_path / "overridden.csv"
        assert run("generate", "--config", cfg, "--n", 12, "--out", out2) == 0
        assert len(read_csv(out2)) == 12

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset=xor\nbogus_key=1\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "x.csv") == 2

    def test_malformed_line_exits_4(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset xor\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "x.csv") == 4


class TestOracleCommand:
    def test_report_written_and_printed(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run("oracle", "--joints", 5, "--seed", 2, "--max-d", 4, "--out", out) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out.read_text())
        assert printed == on_disk
        assert on_disk["joints"] == 5 and on_disk["all_consistent"]


class TestUsage:
    def test_no_command_exits_2(self):
        assert run() == 2

    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("generate", "--dataset", "xor") == 2


def _edit_csv(src: Path, dst: Path, line: int, column: int, value: str) -> Path:
    """Copy of a dataset CSV with one field replaced (1-based line)."""
    lines = src.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _edit_bytes(src: Path, dst: Path, edit) -> Path:
    dst.write_bytes(edit(src.read_bytes()))
    return dst


def _drop_last_score(line: str) -> str:
    record = json.loads(line)
    record["scores"].pop()
    return json.dumps(record)


def _written(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _edit_lines(src: Path, dst: Path, edit) -> Path:
    """Copy of a text file with its list of lines (no line ends) passed through ``edit``."""
    dst.write_text("\n".join(edit(src.read_text().splitlines())) + "\n")
    return dst


def _replace_line(line: int, text):
    """Edit for :func:`_edit_lines`: line ``line`` (1-based) becomes ``text(old)``."""
    return lambda lines: [text(old) if i == line else old for i, old in enumerate(lines, start=1)]


# (id, argv builder taking (workdir, tmp_path), expected exit code[, line named in the error])
MALFORMED = [
    ("nan-feature", lambda w, t: [
        "train-model", "--data", _edit_csv(w / "train.csv", t / "bad.csv", 2, 0, "nan"),
        "--out-model", t / "m.l2x", "--epochs", 1, "--hidden", "8,8,8"], 4, 2),
    ("inf-feature", lambda w, t: [
        "explain", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 5, 3, "inf"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 5),
    ("truth-sizes-differ-explain", lambda w, t: [
        "explain", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 4, 12, "0|1|2"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 4),
    ("truth-sizes-differ-evaluate", lambda w, t: [
        "evaluate", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 4, 12, "0"),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 4),
    ("blank-line-mid-csv", lambda w, t: [
        "explain", "--data", _edit_lines(w / "valid.csv", t / "bad.csv",
                                         lambda lines: lines[:6] + [""] + lines[6:]),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 7),
    ("short-csv-row", lambda w, t: [
        "explain", "--data", _edit_lines(w / "valid.csv", t / "bad.csv",
                                         _replace_line(9, lambda old: old.rsplit(",", 2)[0])),
        "--method", "saliency", "--model", w / "model.l2x", "--out", t / "e.jsonl"], 4, 9),
    ("quoted-csv-field", lambda w, t: [
        "evaluate", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 3, 1, '"0.25"'),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 3),
    ("truncated-jsonl", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_bytes(w / "valid_l2x.jsonl", t / "bad.jsonl", lambda b: b[:-40]),
        "--out-ranks", t / "r.csv"], 4, 80),
    ("jsonl-missing-key", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(6, lambda old: old.replace('"scores"', '"s"'))),
        "--out-ranks", t / "r.csv"], 4, 6),
    ("jsonl-scores-wrong-width", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      lambda lines: [_drop_last_score(line) for line in lines]),
        "--out-ranks", t / "r.csv"], 4),
    ("explainer-given-a-classifier", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", w / "model.l2x", "--out", t / "e.jsonl"], 4),
    ("model-given-an-explainer", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", w / "ex.l2x", "--out", t / "e.jsonl"], 4),
    ("evaluate-model-given-a-variational", lambda w, t: [
        "evaluate", "--data", w / "valid.csv", "--explanations", w / "valid_l2x.jsonl",
        "--model", w / "var.l2x", "--out-ranks", t / "r.csv"], 4),
    ("train-explainer-model-given-an-explainer", lambda w, t: [
        "train-explainer", "--data", w / "train.csv", "--model", w / "ex.l2x",
        "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x", "--epochs", 1], 4),
    ("missing-data-file", lambda w, t: [
        "explain", "--data", t / "absent.csv", "--method", "l2x",
        "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4),
    ("bad-csv-header", lambda w, t: [
        "explain", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 1, 0, "feature0"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4),
    ("header-only-csv", lambda w, t: [
        "explain", "--data", _edit_bytes(w / "valid.csv", t / "bad.csv", lambda b: b.split(b"\n")[0] + b"\n"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4),
    ("bad-checkpoint-magic", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x", lambda b: b"NOPE" + b[4:]),
        "--out", t / "e.jsonl"], 4),
    ("truncated-checkpoint", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x", lambda b: b[:-50]),
        "--out", t / "e.jsonl"], 4),
    ("unknown-method", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "lime",
        "--model", w / "model.l2x", "--out", t / "e.jsonl"], 2),
    ("unknown-config-key", lambda w, t: [
        "explain", "--config", _written(t / "bad.cfg", "bogus_key=1\n"),
        "--data", w / "valid.csv", "--method", "l2x", "--out", t / "e.jsonl"], 2),
    ("removed-threads-flag", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", w / "model.l2x", "--threads", 2, "--out", t / "e.jsonl"], 2),
]


@pytest.fixture(scope="module")
def malformed_workdir(workdir) -> Path:
    """The shared corpus plus one valid explanation file to evaluate."""
    if not (workdir / "valid_l2x.jsonl").exists():
        assert run("explain", "--data", workdir / "valid.csv", "--method", "l2x",
                   "--explainer", workdir / "ex.l2x", "--out", workdir / "valid_l2x.jsonl") == 0
    return workdir


@pytest.mark.parametrize("row", MALFORMED, ids=[row[0] for row in MALFORMED])
def test_malformed_input_exit_code(malformed_workdir, tmp_path, capsys, row):
    _, build, expected, *line = row
    assert run(*build(malformed_workdir, tmp_path)) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("bad input file" in err or "io error" in err) if expected == 4 else "usage" in err
    if line:
        assert f"(line {line[0]})" in err
