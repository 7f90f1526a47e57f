"""Command-line driver.

Subcommands: generate, train-model, train-explainer, explain, evaluate,
benchmark, oracle.  Every command is deterministic given --seed.

Exit codes are a stable scripting contract:

* 0  success
* 2  usage problems (bad flags, config keys or values, unknown dataset or method)
* 3  numeric failure during training or evaluation (non-finite loss)
* 4  IO problems (missing or malformed input files: CSV, JSONL, checkpoints;
     unwritable output)

Flags may also come from a plain ``key=value`` file via --config: each
line becomes the argument ``--key=value`` (``_`` in a key reads as ``-``),
placed before the command line's own, so that argparse checks both alike
and a flag on the command line wins.  The training settings of train-model,
train-explainer and benchmark (the network widths among them), and the
settings of oracle, have no defaults here: a setting given by flag or
config file is passed on, and one left unset takes the default of
``TrainConfig``, ``RunConfig`` or ``run_oracle_suite``.  An invalid
setting is a usage problem (2).  Checkpoints are loaded for the
role the command needs; a checkpoint of another kind is a malformed input
(4).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .datasets import D, as_arrays, canonical_kind, generate, read_csv, write_csv
from .errors import CsvFormatError, JsonlFormatError, ModelFormatError, NumericError, TextFormatError
from .explain import ALL_METHODS, Explanations, read_jsonl, write_jsonl
from .files import open_text, parse_blocks
from .metrics import accuracy, post_hoc_accuracy, write_ranks_csv
from .networks import load_model, save_model
from .pipeline import RunConfig, explain_dataset, posthoc_for, ranks_for, run_benchmark, run_oracle_suite, write_json
from .rng import substream
from .training import TrainConfig, train_classifier, train_l2x, write_curve_csv

__all__ = ["main"]


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _str_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _seed(text: str) -> int:
    """Every subcommand's ``--seed``: a nonnegative int."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _dataset(text: str) -> str:
    try:
        return canonical_kind(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


# The training settings, flag -> add_argument keywords, declared without
# defaults so that the dataclass or function each one reaches holds its
# only default.
_SETTINGS = {
    "--n-train": dict(type=int),
    "--n-valid": dict(type=int),
    "--seed": dict(type=_seed),
    "--k": dict(type=int, help="features per explanation (default: dataset truth size)"),
    "--epochs": dict(type=int),
    "--warmup-epochs": dict(type=int, help="initial epochs that train only the variational net"),
    "--batch-size": dict(type=int),
    "--learning-rate": dict(type=float),
    "--temperature": dict(type=float),
    "--sin-coeff": dict(type=float),
    "--methods": dict(type=_str_tuple),
    "--hidden": dict(type=_int_tuple, dest="classifier_hidden"),
    "--classifier-hidden": dict(type=_int_tuple),
    "--explainer-hidden": dict(type=_int_tuple),
    "--variational-hidden": dict(type=_int_tuple),
    "--joints": dict(type=int, dest="n_joints", help="random joints to check"),
    "--max-d": dict(type=int, help="largest feature count of a joint, 2 to 15"),
    "--max-c": dict(type=int, help="largest class count of a joint, 2 to 64"),
}

# Finds --config before the full parse; every subcommand declares it by
# taking this parser as a parent.
_CONFIG = argparse.ArgumentParser(prog="l2x", add_help=False)
_CONFIG.add_argument("--config", help="key=value file; flags win")


def _settings(cmd: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        cmd.add_argument(name, **_SETTINGS[name])


def _given(args, names) -> dict:
    """The settings among ``names`` that the user gave, by flag or config file."""
    values = vars(args)
    return {name: values[name] for name in names if values.get(name) is not None}


def _built(cmd: argparse.ArgumentParser, cls, args, **fixed):
    """``cls`` built from ``fixed`` and the given settings named like its fields."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    try:
        return cls(**fixed, **_given(args, names))
    except ValueError as e:
        cmd.error(str(e))


def _config_args(path) -> list[str]:
    """A config file's ``key=value`` lines as ``--key=value`` arguments, ``_`` in keys read as ``-``.

    Blank lines and ``#`` comments are skipped.
    """

    def parse(lines, state):
        args = []
        for line in map(str.strip, lines):
            if line and not line.startswith("#"):
                if "=" not in line:
                    raise ValueError(f"expected key=value in {path}")
                key, _, value = line.partition("=")
                args.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
        return args, state

    with open_text(path) as fh:
        return [arg for args in parse_blocks(fh, parse, CsvFormatError) for arg in args]


def _default_k(truths, override) -> int:
    return truths.shape[1] if override is None else override


def cmd_generate(args, cmd: argparse.ArgumentParser) -> int:
    data = generate(args.dataset, args.n, substream(args.seed, "data", 0), **_given(args, ["sin_coeff"]))
    write_csv(data, args.out)
    balance = float(data.y.mean())
    print(f"wrote {args.n} {args.dataset} samples to {args.out} (mean label {balance:.4f})")
    return 0


def cmd_train_model(args, cmd: argparse.ArgumentParser) -> int:
    cfg = _built(cmd, TrainConfig, args, k=1)
    x, _, y, _ = as_arrays(read_csv(args.data))
    if cfg.epochs == 0:
        print("warning: --epochs 0 emits an untrained checkpoint", file=sys.stderr)
    val = None if args.val_data is None else as_arrays(read_csv(args.val_data))  # read, and checked, before training
    clf, report = train_classifier(x, y, cfg)
    note = "" if val is None else f", val accuracy {accuracy(clf, val[0], val[2]):.4f}"
    save_model(clf, args.out_model)
    if args.out_curve is not None:
        write_curve_csv(report.curve, args.out_curve)
    print(f"wrote classifier to {args.out_model} ({cfg.epochs} epochs{note})")
    return 0


def cmd_train_explainer(args, cmd: argparse.ArgumentParser) -> int:
    # settings are checked before any input is read; an unset k is 1 until the data gives the truth size
    cfg = _built(cmd, TrainConfig, args, k=1 if args.k is None else args.k)
    x, _, _, truths = as_arrays(read_csv(args.data))
    classifier = load_model(args.model, kind="classifier")
    cfg = dataclasses.replace(cfg, k=_default_k(truths, args.k))
    if cfg.epochs == 0:
        print("warning: --epochs 0 emits untrained checkpoints", file=sys.stderr)
    explainer, variational, report = train_l2x(x, classifier, cfg)
    save_model(explainer, args.out_explainer)
    save_model(variational, args.out_variational)
    if args.out_curve is not None:
        write_curve_csv(report.curve, args.out_curve)
    last = f", final objective {report.curve[-1].objective:.6f}" if report.curve else ""
    print(f"wrote explainer to {args.out_explainer} (k={cfg.k}{last})")
    return 0


def cmd_explain(args, cmd: argparse.ArgumentParser) -> int:
    x, _, _, truths = as_arrays(read_csv(args.data))
    k = _default_k(truths, args.k)
    method = args.method
    explainer = classifier = None
    if method == "l2x":
        if args.explainer is None:
            cmd.error("method 'l2x' needs --explainer")
        explainer = load_model(args.explainer, kind="explainer")
    else:
        if args.model is None:
            cmd.error(f"method {method!r} needs --model")
        classifier = load_model(args.model, kind="classifier")
    explanations = explain_dataset(method, x, k, explainer=explainer, classifier=classifier)
    write_jsonl(explanations, args.out)
    print(f"wrote {len(explanations)} {method} explanations to {args.out}")
    return 0


def cmd_evaluate(args, cmd: argparse.ArgumentParser) -> int:
    if args.out_posthoc is not None and args.model is None:
        cmd.error("--out-posthoc needs --model")
    x, _, _, truths = as_arrays(read_csv(args.data))
    label = args.dataset_label or Path(args.data).stem
    classifier = load_model(args.model, kind="classifier") if args.model is not None else None

    parts: dict[str, list] = {}
    files: dict[str, list] = {}  # method -> the files holding its explanations
    for path in args.explanations:
        for method, record in read_jsonl(path).items():
            if record.scores.shape[1] != D:
                raise JsonlFormatError(f"{path} holds scores of width {record.scores.shape[1]}; the dataset has d={D}")
            parts.setdefault(method, []).append(record)
            files.setdefault(method, []).append(str(path))
    if not parts:
        cmd.error("no explanations given")

    ranks: dict[str, np.ndarray] = {}
    accuracy: dict[str, float] = {}
    for method in sorted(parts):
        try:
            record = Explanations.concatenate(parts[method])
        except ValueError:
            raise JsonlFormatError(f"the {method} explanations select unequal numbers of features") from None
        try:
            report = ranks_for(record, truths, d=D)
        except ValueError as e:  # widths and truths are checked above: the ids or the scores are at fault
            raise JsonlFormatError(
                f"the {method} explanations in {', '.join(files[method])} cannot be ranked "
                f"against the {len(truths)} rows of {args.data}: {e}"
            ) from None
        ranks[method] = report.per_sample
        line = f"{method}: summary median rank {report.summary['median']:.2f}"
        if classifier is not None:
            accuracy[method] = posthoc_for(classifier, x, record).accuracy
            line += f", post-hoc accuracy {accuracy[method]:.4f}"
        print(line + f" (optimal {report.optimal_median})")
    write_ranks_csv(ranks, label, args.out_ranks)
    if args.out_posthoc is not None:
        accuracy["truth"] = post_hoc_accuracy(classifier, x, truths).accuracy
        write_json({"dataset": label, "accuracy": accuracy}, args.out_posthoc)
    return 0


def cmd_benchmark(args, cmd: argparse.ArgumentParser) -> int:
    config = _built(cmd, RunConfig, args, dataset=args.dataset)
    summary = run_benchmark(config, args.out_dir, reuse=not args.all)
    median = summary["median_ranks"]["l2x"]["median"] if "l2x" in summary["median_ranks"] else None
    print(
        f"{config.dataset}: l2x summary median rank {median} "
        f"(optimal {summary['optimal_median']}); artifacts in {args.out_dir}"
    )
    return 0


def cmd_oracle(args, cmd: argparse.ArgumentParser) -> int:
    try:
        report = run_oracle_suite(**_given(args, ["n_joints", "seed", "max_d", "max_c"]))
    except ValueError as e:
        cmd.error(str(e))
    if args.out is not None:
        write_json(report, args.out)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


@functools.cache
def build_parser():
    """The ``l2x`` parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="l2x",
        description="Instancewise feature selection for black-box classifiers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        cmd = commands[name] = subparsers.add_parser(name, help=help, parents=[_CONFIG])
        cmd.set_defaults(_handler=handler, _cmd=cmd)
        return cmd

    c = command("generate", cmd_generate, "write a synthetic dataset CSV")
    c.add_argument("--dataset", type=_dataset, required=True,
                   help="xor | orange_skin | nonlinear_additive | switch")
    c.add_argument("--n", type=int, default=10_000)
    c.add_argument("--seed", type=_seed, default=0)
    _settings(c, "--sin-coeff")
    c.add_argument("--out", required=True)

    c = command("train-model", cmd_train_model, "train the classifier to be explained")
    c.add_argument("--data", required=True, help="training CSV from `generate`")
    c.add_argument("--val-data", help="optional CSV for validation accuracy")
    c.add_argument("--out-model", required=True)
    c.add_argument("--out-curve")
    _settings(c, "--epochs", "--batch-size", "--learning-rate", "--hidden", "--seed")

    c = command("train-explainer", cmd_train_explainer, "train the selector against a classifier")
    c.add_argument("--data", required=True)
    c.add_argument("--model", required=True, help="classifier checkpoint")
    c.add_argument("--out-explainer", required=True)
    c.add_argument("--out-variational", required=True)
    c.add_argument("--out-curve")
    _settings(c, "--k", "--epochs", "--warmup-epochs", "--batch-size", "--learning-rate",
              "--temperature", "--explainer-hidden", "--variational-hidden", "--seed")

    c = command("explain", cmd_explain, "write per-sample explanations as JSON lines")
    c.add_argument("--data", required=True)
    c.add_argument("--method", required=True, choices=ALL_METHODS)
    c.add_argument("--explainer", help="explainer checkpoint (l2x)")
    c.add_argument("--model", help="classifier checkpoint (gradient baselines)")
    _settings(c, "--k")
    c.add_argument("--out", required=True)

    c = command("evaluate", cmd_evaluate, "score explanations against ground truth")
    c.add_argument("--data", required=True)
    c.add_argument("--explanations", nargs="+", required=True, help="JSONL files")
    c.add_argument("--model", help="classifier checkpoint, enables post-hoc accuracy")
    c.add_argument("--dataset-label", help="dataset column for ranks.csv (default: data stem)")
    c.add_argument("--out-ranks", required=True)
    c.add_argument("--out-posthoc")

    c = command("benchmark", cmd_benchmark, "full pipeline: train, explain, evaluate")
    c.add_argument("--dataset", type=_dataset, required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--all", action="store_true",
                   help="train from scratch (otherwise reuse checkpoints in --out-dir)")
    fields = (f.name for f in dataclasses.fields(RunConfig) if f.name != "dataset")
    _settings(c, *(f"--{name}".replace("_", "-") for name in fields))

    c = command("oracle", cmd_oracle, "run the exact-information self-checks")
    _settings(c, "--joints", "--seed", "--max-d", "--max-c")
    c.add_argument("--out", help="optional JSON report path")

    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        found, rest = _CONFIG.parse_known_args(argv[1:])
        if found.config is not None and argv[0] in commands:
            argv = argv[:1] + _config_args(found.config) + rest
        args = parser.parse_args(argv)
        if args.config is not None:  # the command line's --config was taken out above
            args._cmd.error("a config file cannot name a config file")
        return args._handler(args, args._cmd)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (TextFormatError, ModelFormatError) as e:
        print(f"bad input file: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
