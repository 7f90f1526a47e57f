"""Command-line behavior: files, determinism, and the exit-code contract."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from l2x import autodiff, cli, pipeline, training
from l2x.datasets import read_csv
from l2x.explain import read_jsonl
from l2x.networks import load_model
from l2x.pipeline import RunConfig
from l2x.training import TrainConfig


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def ranks_rows(path: Path) -> list[list[str]]:
    """The fields of each body line of a ranks.csv, after checking its header."""
    header, *body = path.read_text().splitlines()
    assert header == "method,dataset,median_rank"
    return [line.split(",") for line in body]


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sin_coeff_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        assert run("generate", "--dataset", "nonlinear_additive", "--n", 5,
                   "--sin-coeff", value, "--out", out) == 2
        assert "sin_coeff must be finite" in capsys.readouterr().err
        assert not out.exists()


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


class TestFeatureOverflowingTheTrainingDtype:
    """A feature finite in float64 but past float32's range: exit 3 naming it, before any step."""

    @pytest.mark.parametrize("command", ["train-model", "train-explainer"])
    def test_training_commands_exit_3_and_write_nothing(self, workdir, tmp_path, capsys, command):
        data = _edit_csv(workdir / "train.csv", tmp_path / "big.csv", 5, 1, "1e39")
        outputs = {"train-model": ["--out-model", tmp_path / "m.l2x"],
                   "train-explainer": ["--model", workdir / "model.l2x",
                                       "--out-explainer", tmp_path / "e.l2x",
                                       "--out-variational", tmp_path / "v.l2x"]}[command]
        assert run(command, "--data", data, *outputs, "--epochs", 1, "--batch-size", 100) == 3
        err = capsys.readouterr().err
        assert "numeric failure: feature value 1e+39 (row 3, column 1) overflows float32" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.l2x"))

    def test_benchmark_exits_3(self, tmp_path, capsys, monkeypatch):
        # generated features never reach float32's range, so one is put there
        real = pipeline.as_arrays

        def with_a_huge_cell(data):
            x, *rest = real(data)
            x = x.copy()
            x[2, 0] = -1e39
            return (x, *rest)

        monkeypatch.setattr(pipeline, "as_arrays", with_a_huge_cell)
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS) == 3
        assert "feature value -1e+39 (row 2, column 0) overflows float32" in capsys.readouterr().err
        assert not (out / "model.l2x").exists()


def test_tiny_temperature_exits_3_naming_the_mask_without_numpy_warnings(workdir, tmp_path):
    # in a child process, where numpy's warnings print to stderr instead of raising
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["train-explainer", "--data", workdir / "train.csv", "--model", workdir / "model.l2x",
            "--out-explainer", tmp_path / "e.l2x", "--out-variational", tmp_path / "v.l2x",
            "--epochs", 1, "--batch-size", 100, "--explainer-hidden", "8,8", "--variational-hidden", "8,8,8",
            "--temperature", "1e-310"]
    result = subprocess.run([sys.executable, "-W", "default", "-m", "l2x", *map(str, argv)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 3, result.stderr
    assert result.stderr == "numeric failure: relaxed mask became non-finite (temperature 1e-310) at step 0\n"
    assert not list(tmp_path.glob("*.l2x"))


def test_no_command_makes_a_tape_tensor(tmp_path, monkeypatch):
    # networks are built, trained, loaded and run as flat buffers; only the reference graph wraps them
    made, parameter = [], autodiff.parameter
    monkeypatch.setattr(autodiff, "parameter", lambda data: made.append(1) or parameter(data))
    data, model, ex = tmp_path / "d.csv", tmp_path / "m.l2x", tmp_path / "e.l2x"
    assert run("generate", "--dataset", "xor", "--n", 200, "--seed", 7, "--out", data) == 0
    assert run("train-model", "--data", data, "--out-model", model, "--epochs", 1, "--batch-size", 100,
               "--hidden", "8,8,8", "--val-data", data) == 0
    assert run("train-explainer", "--data", data, "--model", model, "--out-explainer", ex,
               "--out-variational", tmp_path / "v.l2x", "--epochs", 1, "--batch-size", 100,
               "--explainer-hidden", "8,8", "--variational-hidden", "8,8,8") == 0
    outs = [tmp_path / f"{method}.jsonl" for method in ("l2x", "saliency", "taylor", "taylor-abs")]
    for out in outs:
        assert run("explain", "--data", data, "--method", out.stem, "--explainer", ex, "--model", model,
                   "--out", out) == 0
    assert run("evaluate", "--data", data, "--explanations", *outs, "--model", model,
               "--out-ranks", tmp_path / "r.csv", "--out-posthoc", tmp_path / "p.json") == 0
    assert run("benchmark", "--dataset", "xor", "--out-dir", tmp_path / "run", "--all", *BENCH_ARGS) == 0
    assert made == []


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
        records = read_jsonl(out)
        assert list(records) == [method]
        items = records[method]
        assert len(items) == 80
        assert items.ids.tolist() == list(range(80))
        assert items.selected.shape == (80, 2) and items.scores.shape == (80, 10)

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
        rows = ranks_rows(ranks_path)
        assert len(rows) == 160
        assert {r[0] for r in rows} == {"l2x", "saliency"}
        assert all(r[1] == "xor" and 1.0 <= float(r[2]) <= 10.0 for r in rows)
        payload = json.loads(ph_path.read_text())
        assert set(payload["accuracy"]) == {"l2x", "saliency", "truth"}
        assert all(0.0 <= v <= 1.0 for v in payload["accuracy"].values())

    def test_posthoc_without_model_exits_2_before_any_output(self, malformed_workdir, tmp_path,
                                                             capsys):
        w = malformed_workdir
        ranks_path = tmp_path / "ranks.csv"
        assert run("evaluate", "--data", w / "valid.csv", "--explanations", w / "valid_l2x.jsonl",
                   "--out-ranks", ranks_path, "--out-posthoc", tmp_path / "ph.json") == 2
        out, err = capsys.readouterr()
        assert out == "" and "--out-posthoc needs --model" in err
        assert not ranks_path.exists()


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
        rows = ranks_rows(out / "ranks.csv")
        assert len(rows) == 180  # 3 methods x 60 samples
        assert all(len(r) == 3 and r[1] == "xor" and 1.0 <= float(r[2]) <= 10.0 for r in rows)

    @pytest.mark.parametrize("worker", [False, True], ids=["one-thread", "worker"])
    def test_timings_record_how_they_were_taken(self, tmp_path, monkeypatch, worker):
        cpus, blas = training.allowed_cpus(), training.blas_threads()
        if worker:  # as on two CPUs under a one-thread OpenBLAS, with these 8-wide networks above the gate
            monkeypatch.setattr(training, "allowed_cpus", lambda: 2)
            monkeypatch.setattr(training, "blas_threads", lambda: 1)
            monkeypatch.setattr(training, "WORKER_MIN_MACS", 1)
        else:
            monkeypatch.setattr(training, "allowed_cpus", lambda: 1)
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", "--methods", "l2x", *BENCH_ARGS) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert timings["cpus"] == cpus >= 1 and timings["blas_threads"] == blas
        jobs = timings["train_model_worker_jobs"], timings["train_l2x_worker_jobs"]
        assert all(isinstance(n, int) and (n > 0) == worker for n in jobs), jobs

    def test_reuse_skips_training(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS) == 0
        before = (out / "model.l2x").read_bytes()
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, *BENCH_ARGS) == 0
        assert (out / "model.l2x").read_bytes() == before
        timings = json.loads((out / "timings.json").read_text())
        assert timings["train_model_ms"] is None
        assert timings["train_model_worker_jobs"] is timings["train_l2x_worker_jobs"] is None

    def test_warmup_epochs_reach_the_run(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all",
                   "--warmup-epochs", 0, "--methods", "l2x", *BENCH_ARGS) == 0
        assert json.loads((out / "summary.json").read_text())["warmup_epochs"] == 0

    def test_non_finite_sin_coeff_fails_before_training(self, tmp_path):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "switch", "--out-dir", out, "--all",
                   "--sin-coeff", "nan", *BENCH_ARGS) == 2
        assert not (out / "model.l2x").exists()

    @pytest.mark.parametrize("flag", ["--classifier-hidden", "--explainer-hidden", "--variational-hidden"])
    def test_width_below_one_exits_2_before_any_work(self, tmp_path, capsys, flag):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS, flag, 0) == 2
        err = capsys.readouterr().err
        assert "usage" in err and f"{flag[2:].replace('-', '_')} must be one or more positive widths" in err
        assert not out.exists()

    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("benchmark", "--dataset", "xor", "--out-dir", out, "--all", *BENCH_ARGS, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "seed must be nonnegative, got -1" in err
        assert not out.exists()

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


# command -> (the function its settings reach, its required arguments)
SETTING_COMMANDS = {
    "train-model": ("train_classifier", lambda w, t: [
        "--data", w / "train.csv", "--out-model", t / "m.l2x"]),
    "train-explainer": ("train_l2x", lambda w, t: [
        "--data", w / "train.csv", "--model", w / "model.l2x",
        "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x"]),
    "benchmark": ("run_benchmark", lambda w, t: ["--dataset", "xor", "--out-dir", t / "run"]),
    "oracle": ("run_oracle_suite", lambda w, t: []),
}

# (command, flag, a value other than the default, the field or keyword it sets, parsed value)
SETTINGS = [
    *((command, *row) for command in ("train-model", "train-explainer", "benchmark") for row in [
        ("--seed", 9, "seed", 9),
        ("--epochs", 3, "epochs", 3),
        ("--batch-size", 7, "batch_size", 7),
        ("--learning-rate", 0.25, "learning_rate", 0.25),
    ]),
    ("train-model", "--hidden", "4,4", "classifier_hidden", (4, 4)),
    *((command, *row) for command in ("train-explainer", "benchmark") for row in [
        ("--k", 3, "k", 3),
        ("--warmup-epochs", 1, "warmup_epochs", 1),
        ("--temperature", 0.5, "temperature", 0.5),
        ("--explainer-hidden", "4,4", "explainer_hidden", (4, 4)),
        ("--variational-hidden", "4,4,4", "variational_hidden", (4, 4, 4)),
    ]),
    ("benchmark", "--n-train", 300, "n_train", 300),
    ("benchmark", "--n-valid", 60, "n_valid", 60),
    ("benchmark", "--sin-coeff", 2.5, "sin_coeff", 2.5),
    ("benchmark", "--classifier-hidden", "4,4", "classifier_hidden", (4, 4)),
    ("benchmark", "--methods", "l2x,taylor", "methods", ("l2x", "taylor")),
    ("oracle", "--joints", 5, "n_joints", 5),
    ("oracle", "--seed", 3, "seed", 3),
    ("oracle", "--max-d", 4, "max_d", 4),
    ("oracle", "--max-c", 2, "max_c", 2),
]


class _Captured(Exception):
    pass


def settings_reached(monkeypatch, workdir, tmp_path, command, *extra) -> dict:
    """The config fields and keyword settings ``command`` passes on; nothing runs.

    The training functions take their settings in the config and their
    data by keyword; every keyword that ``oracle`` passes is a setting.
    """
    target, required = SETTING_COMMANDS[command]
    seen = {}

    def capture(*args, **kwargs):
        for config in (a for a in args if isinstance(a, (TrainConfig, RunConfig))):
            seen.update(dataclasses.asdict(config))
        if command == "oracle":
            seen.update(kwargs)
        raise _Captured

    monkeypatch.setattr(cli, target, capture)
    with pytest.raises(_Captured):
        run(command, *required(workdir, tmp_path), *extra)
    return seen


class TestSettings:
    """Each training setting is declared once and reaches exactly its own field."""

    @pytest.mark.parametrize("source", ["flag", "config", "config-with-underscores"])
    @pytest.mark.parametrize("command, flag, value, field, parsed", SETTINGS,
                             ids=[f"{row[0]}{row[1]}" for row in SETTINGS])
    def test_each_setting_reaches_its_field(self, monkeypatch, workdir, tmp_path,
                                            source, command, flag, value, field, parsed):
        unset = settings_reached(monkeypatch, workdir, tmp_path, command)
        if source == "flag":
            extra = [flag, value]
        else:
            key = flag[2:] if source == "config" else flag[2:].replace("-", "_")
            extra = ["--config", _written(tmp_path / "c.cfg", f"{key}={value}\n")]
        given = settings_reached(monkeypatch, workdir, tmp_path, command, *extra)
        changed = {name for name in unset.keys() | given.keys()
                   if unset.get(name) != given.get(name)}
        assert changed == {field}
        assert given[field] == parsed

    @pytest.mark.parametrize("command", SETTING_COMMANDS)
    def test_table_lists_every_setting_flag(self, command):
        _, commands = cli.build_parser()
        declared = {a.option_strings[0] for a in commands[command]._actions
                    if a.option_strings and a.option_strings[0] in cli._SETTINGS}
        assert declared == {row[1] for row in SETTINGS if row[0] == command}

    def test_unset_settings_take_the_config_defaults(self, monkeypatch, workdir, tmp_path):
        reached = lambda command: settings_reached(monkeypatch, workdir, tmp_path, command)
        assert reached("train-model") == dataclasses.asdict(TrainConfig(k=1))
        assert reached("train-explainer") == dataclasses.asdict(TrainConfig(k=2))
        assert reached("benchmark") == dataclasses.asdict(RunConfig(dataset="xor"))

    def test_bare_oracle_calls_the_suite_with_no_arguments(self, monkeypatch):
        calls = []

        def capture(*args, **kwargs):
            calls.append((args, kwargs))
            raise _Captured

        monkeypatch.setattr(cli, "run_oracle_suite", capture)
        with pytest.raises(_Captured):
            run("oracle")
        assert calls == [((), {})]


class TestOracleCommand:
    def test_report_written_and_printed(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run("oracle", "--joints", 5, "--seed", 2, "--max-d", 4, "--out", out) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out.read_text())
        assert printed == on_disk
        assert on_disk["joints"] == 5 and on_disk["all_consistent"]

    @pytest.mark.parametrize("argv, name, bound", [
        (("--joints", -3), "joints", "at least 1"), (("--joints", 0), "joints", "at least 1"),
        (("--max-d", 1), "max_d", "at least 2"), (("--max-c", 1), "max_c", "at least 2"),
        (("--max-d", 40), "max_d", "at most 15"), (("--max-c", 10**9), "max_c", "at most 64"),
    ], ids=["negative-joints", "zero-joints", "max-d-1", "max-c-1", "max-d-40", "max-c-1e9"])
    def test_out_of_range_setting_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, argv, name, bound):
        def no_joint(*args):
            raise AssertionError("a joint was drawn for an out-of-range setting")

        # 2^40 feature vectors or 10^9 classes would exhaust memory: no joint may be drawn
        monkeypatch.setattr(pipeline, "random_binary_joint", no_joint)
        assert run("oracle", *argv, "--out", tmp_path / "oracle.json") == 2
        captured = capsys.readouterr()
        assert f"error: {name} must be {bound}, got {argv[1]}" in captured.err
        assert "usage" in captured.err and captured.out == ""
        assert not (tmp_path / "oracle.json").exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ("generate", "--dataset", "xor", "--n", 5, "--seed", -1, "--out"),
        ("oracle", "--joints", 2, "--seed", -1, "--out"),
    ], ids=["generate", "oracle"])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, out) == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and "argument --seed: seed must be nonnegative, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_no_command_exits_2(self):
        assert run() == 2

    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run("generate", "--dataset", "xor") == 2

    @pytest.mark.parametrize("command, setting, message", [
        ("train-model", ["--hidden", 0], "classifier_hidden must be one or more positive widths"),
        ("train-model", ["--seed", -1], "seed must be nonnegative"),
        ("train-explainer", ["--temperature", 0], "temperature must be positive and finite"),
        ("train-explainer", ["--k", 0], "k must be positive"),
    ], ids=["model-hidden-0", "model-seed-negative", "explainer-temperature-0", "explainer-k-0"])
    def test_invalid_setting_exits_2_before_reading_inputs(self, tmp_path, capsys, command, setting, message):
        outputs = {"train-model": ["--out-model", tmp_path / "m.l2x"],
                   "train-explainer": ["--model", tmp_path / "absent.l2x", "--out-explainer", tmp_path / "e.l2x",
                                       "--out-variational", tmp_path / "v.l2x"]}[command]
        assert run(command, "--data", tmp_path / "absent.csv", *outputs, *setting) == 2
        err = capsys.readouterr().err
        assert "usage" in err and message in err and "io error" not in err
        assert list(tmp_path.iterdir()) == []


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


def _with(line: str, **fields) -> str:
    """A JSONL record with some of its fields replaced."""
    return json.dumps({**json.loads(line), **fields})


def _written(path: Path, text) -> Path:
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


def _edit_lines(src: Path, dst: Path, edit) -> Path:
    """Copy of a text file with its list of lines (no line ends) passed through ``edit``."""
    dst.write_text("\n".join(edit(src.read_text().splitlines())) + "\n")
    return dst


def _replace_line(line: int, text):
    """Edit for :func:`_edit_lines`: line ``line`` (1-based) becomes ``text(old)``."""
    return lambda lines: [text(old) if i == line else old for i, old in enumerate(lines, start=1)]


def _without_truth_sets(lines):
    """Edit for :func:`_edit_lines`: every body line of a dataset CSV with an empty truth field."""
    return lines[:1] + [line.rsplit(",", 1)[0] + "," for line in lines[1:]]


def _bad_byte(line: int):
    """Edit for :func:`_edit_bytes`: a 0xff byte, never UTF-8, inside line ``line`` (1-based)."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
        return b"\n".join(lines)
    return edit


def _edit_header(edit):
    """Edit for :func:`_edit_bytes`: a checkpoint whose JSON header goes through ``edit``."""
    def apply(data: bytes) -> bytes:
        size = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12 : 12 + size])
        edit(header)
        text = json.dumps(header).encode()
        return data[:8] + len(text).to_bytes(4, "little") + text + data[12 + size :]
    return apply


def _split_jsonl(src: Path, t: Path, edit_second) -> list[Path]:
    """The first 40 lines of an explanations file, and the rest passed through ``edit_second``."""
    lines = src.read_text().splitlines()
    first, second = t / "first.jsonl", t / "second.jsonl"
    first.write_text("\n".join(lines[:40]) + "\n")
    second.write_text("\n".join(map(edit_second, lines[40:])) + "\n")
    return [first, second]


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
    ("truth-index-past-d", lambda w, t: [
        "evaluate", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 2, 12, "0|12"),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 2),
    ("negative-truth-index", lambda w, t: [
        "evaluate", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 6, 12, "-1|0"),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 6),
    ("huge-truth-index", lambda w, t: [
        "explain", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 3, 12, "0|99999999999999999999"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 3),
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
    ("jsonl-id-past-the-rows", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(5, lambda old: _with(old, id=80))),
        "--out-ranks", t / "r.csv"], 4),
    ("jsonl-duplicated-record", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      lambda lines: lines + lines[3:4]),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4),
    ("jsonl-selected-sizes-differ", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(5, lambda old: _with(old, selected=[0, 1, 2]))),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4, 5),
    ("jsonl-selected-index-past-d", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(7, lambda old: _with(old, selected=[0, 10]))),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4, 7),
    ("jsonl-id-past-int64", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(5, lambda old: _with(old, id=99999999999999999999))),
        "--out-ranks", t / "r.csv"], 4, 5),
    ("jsonl-ns-past-int64", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(8, lambda old: _with(old, ns=99999999999999999999))),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4, 8),
    ("jsonl-negative-id", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(1, lambda old: _with(old, id=-1))),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4),
    ("jsonl-selected-sizes-differ-across-files", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", *_split_jsonl(w / "valid_l2x.jsonl", t, lambda old: _with(old, selected=[0, 1, 2])),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv"], 4),
    ("csv-empty-truth-set", lambda w, t: [
        "evaluate", "--data", _edit_lines(w / "valid.csv", t / "bad.csv", _without_truth_sets),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 2),
    ("csv-empty-truth-set-explain", lambda w, t: [
        "explain", "--data", _edit_lines(w / "valid.csv", t / "bad.csv", _without_truth_sets),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 2),
    ("csv-empty-truth-set-train-explainer", lambda w, t: [
        "train-explainer", "--data", _edit_lines(w / "train.csv", t / "bad.csv", _without_truth_sets),
        "--model", w / "model.l2x", "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x",
        "--epochs", 1, "--explainer-hidden", "8,8", "--variational-hidden", "8,8,8"], 4, 2),
    ("csv-repeated-truth-index", lambda w, t: [
        "evaluate", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 3, 12, "1|1"),
        "--explanations", w / "valid_l2x.jsonl", "--out-ranks", t / "r.csv"], 4, 3),
    ("csv-repeated-truth-index-explain", lambda w, t: [
        "explain", "--data", _edit_csv(w / "valid.csv", t / "bad.csv", 5, 12, "1|1"),
        "--method", "l2x", "--explainer", w / "ex.l2x", "--out", t / "e.jsonl"], 4, 5),
    ("csv-repeated-truth-index-train-explainer", lambda w, t: [
        "train-explainer", "--data", _edit_csv(w / "train.csv", t / "bad.csv", 7, 12, "0|0"),
        "--model", w / "model.l2x", "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x",
        "--epochs", 1, "--explainer-hidden", "8,8", "--variational-hidden", "8,8,8"], 4, 7),
    ("jsonl-repeated-selection-index", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      _replace_line(4, lambda old: _with(old, selected=[3, 3]))),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv", "--out-posthoc", t / "p.json"], 4, 4),
    ("jsonl-empty-selection", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl",
                                      lambda lines: [_with(line, selected=[]) for line in lines]),
        "--model", w / "model.l2x", "--out-ranks", t / "r.csv", "--out-posthoc", t / "p.json"], 4, 1),
    ("jsonl-boolean-score", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_lines(w / "valid_l2x.jsonl", t / "bad.jsonl", _replace_line(
            1, lambda old: _with(old, scores=[True, False, *json.loads(old)["scores"][2:]]))),
        "--out-ranks", t / "r.csv"], 4, 1),
    ("non-utf8-jsonl", lambda w, t: [
        "evaluate", "--data", w / "valid.csv",
        "--explanations", _edit_bytes(w / "valid_l2x.jsonl", t / "bad.jsonl", _bad_byte(6)),
        "--out-ranks", t / "r.csv"], 4, 6),
    ("non-utf8-csv", lambda w, t: [
        "train-model", "--data", _edit_bytes(w / "train.csv", t / "bad.csv", _bad_byte(5)),
        "--out-model", t / "m.l2x", "--epochs", 1, "--hidden", "8,8,8"], 4, 5),
    ("checkpoint-tensor-without-name", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h["tensors"][2].pop("name"))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-tensors-not-a-list", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h.update(tensors=5))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-shape-not-integers", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x",
                                   _edit_header(lambda h: h["tensors"][0].update(shape=["x", 4]))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-dimension-past-the-payload", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x",
                                   _edit_header(lambda h: h["tensors"][0].update(shape=[0, 10**20]))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-duplicate-tensor-name", lambda w, t: [
        "evaluate", "--data", w / "valid.csv", "--explanations", w / "valid_l2x.jsonl",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h["tensors"][1].update(name="w0"))),
        "--out-ranks", t / "r.csv"], 4),
    ("checkpoint-extra-tensor", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x", lambda b: _edit_header(
            lambda h: h["tensors"].append({"name": "w9", "shape": [2]}))(b) + bytes(16)),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-tensors-reordered", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h["tensors"].insert(0, h["tensors"].pop(1)))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-kind-not-a-string", lambda w, t: [
        "evaluate", "--data", w / "valid.csv", "--explanations", w / "valid_l2x.jsonl",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h.update(kind=["classifier"]))),
        "--out-ranks", t / "r.csv"], 4),
    ("checkpoint-activation-not-relu", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x",
                                   _edit_header(lambda h: h["spec"].update(activation="gelu"))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-fractional-width", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x", _edit_header(lambda h: (
            h["spec"]["layer_widths"].__setitem__(1, 8.7), h["tensors"][0].update(shape=[10, 8.2])))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-kind-contradicts-head", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                                   _edit_header(lambda h: h.update(kind="explainer"))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-head-contradicts-kind", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x",
                               _edit_header(lambda h: h["spec"].update(head="linear"))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-explainer-width-mismatch", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "model.l2x", t / "bad.l2x", _edit_header(
            lambda h: (h.update(kind="explainer"), h["spec"].update(head="linear")))),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-spec-not-an-object", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x", _edit_header(lambda h: h.update(spec=5))),
        "--out", t / "e.jsonl"], 4),
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
    ("non-utf8-config", lambda w, t: [
        "generate", "--dataset", "xor", "--config", _written(t / "bad.cfg", b"n=5\xff\n"),
        "--out", t / "x.csv"], 4, 1),
    ("config-bad-value", lambda w, t: [
        "generate", "--dataset", "xor", "--config", _written(t / "bad.cfg", "n=abc\n"),
        "--out", t / "x.csv"], 2),
    ("config-key-config", lambda w, t: [
        "generate", "--config", _written(t / "bad.cfg", f"dataset=xor\nconfig={t / 'other.cfg'}\n"),
        "--out", t / "x.csv"], 2),
    ("unknown-config-key", lambda w, t: [
        "explain", "--config", _written(t / "bad.cfg", "bogus_key=1\n"),
        "--data", w / "valid.csv", "--method", "l2x", "--out", t / "e.jsonl"], 2),
    ("removed-threads-flag", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", w / "model.l2x", "--threads", 2, "--out", t / "e.jsonl"], 2),
    ("removed-abs-flag", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "taylor",
        "--model", w / "model.l2x", "--abs", "--out", t / "e.jsonl"], 2),
    ("benchmark-empty-methods", lambda w, t: [
        "benchmark", "--dataset", "xor", "--out-dir", t / "run", "--all", "--methods", "",
        *BENCH_ARGS], 2),
    ("benchmark-repeated-methods", lambda w, t: [
        "benchmark", "--dataset", "xor", "--out-dir", t / "run", "--all", "--methods", "l2x,l2x",
        *BENCH_ARGS], 2),
    ("zero-temperature", lambda w, t: [
        "train-explainer", "--data", w / "train.csv", "--model", w / "model.l2x",
        "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x", "--temperature", 0], 2),
    ("inf-temperature", lambda w, t: [
        "train-explainer", "--data", w / "train.csv", "--model", w / "model.l2x",
        "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x", "--temperature", "inf"], 2),
    ("inf-learning-rate", lambda w, t: [
        "train-model", "--data", w / "train.csv", "--out-model", t / "m.l2x",
        "--learning-rate", "inf", "--epochs", 1, "--hidden", "8,8,8"], 2),
    ("inf-learning-rate-explainer", lambda w, t: [
        "train-explainer", "--data", w / "train.csv", "--model", w / "model.l2x",
        "--out-explainer", t / "e.l2x", "--out-variational", t / "v.l2x", "--learning-rate", "inf"], 2),
    ("checkpoint-nan-weight", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "saliency",
        "--model", _edit_bytes(w / "model.l2x", t / "bad.l2x", lambda b: b[:-8] + struct.pack("<d", math.nan)),
        "--out", t / "e.jsonl"], 4),
    ("checkpoint-inf-weight", lambda w, t: [
        "explain", "--data", w / "valid.csv", "--method", "l2x",
        "--explainer", _edit_bytes(w / "ex.l2x", t / "bad.l2x", lambda b: b[:-800] + struct.pack("<d", -math.inf)
                                   + b[-792:]),
        "--out", t / "e.jsonl"], 4),
]


@pytest.fixture(scope="module")
def malformed_workdir(workdir) -> Path:
    """The shared corpus plus one valid explanation file to evaluate."""
    if not (workdir / "valid_l2x.jsonl").exists():
        assert run("explain", "--data", workdir / "valid.csv", "--method", "l2x",
                   "--explainer", workdir / "ex.l2x", "--out", workdir / "valid_l2x.jsonl") == 0
    return workdir


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evaluate_refuses_a_non_finite_score_naming_the_file(malformed_workdir, tmp_path, capsys, value):
    # json reads NaN and Infinity as floats, and the JSONL round trip keeps them; evaluate cannot rank them
    good, bad = malformed_workdir / "valid_l2x.jsonl", tmp_path / "bad.jsonl"
    _edit_lines(good, bad, _replace_line(3, lambda old: _with(old, scores=[value, *json.loads(old)["scores"][1:]])))
    row = json.loads(bad.read_text().splitlines()[2])["id"]
    assert run("evaluate", "--data", malformed_workdir / "valid.csv", "--explanations", bad,
               "--out-ranks", tmp_path / "r.csv") == 4
    err = capsys.readouterr().err
    assert f"bad input file: the l2x explanations in {bad} cannot be ranked" in err
    assert f"non-finite score {value!r} (row {row}, column 0)" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")  # a malformed input is refused before numpy can warn about it
@pytest.mark.parametrize("row", MALFORMED, ids=[row[0] for row in MALFORMED])
def test_malformed_input_exit_code(malformed_workdir, tmp_path, capsys, row):
    _, build, expected, *line = row
    assert run(*build(malformed_workdir, tmp_path)) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("bad input file" in err or "io error" in err) if expected == 4 else "usage" in err
    if line:
        assert f"(line {line[0]})" in err
