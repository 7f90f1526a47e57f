"""Atomic artifact writes: a writer that fails leaves the old file and no temp file."""

from __future__ import annotations

import os

import numpy as np
import pytest

from l2x import datasets as ds
from l2x import explain as ex
from l2x import files
from l2x.errors import CsvFormatError
from l2x.files import atomic_open, float_rows, open_text, parse_blocks
from l2x.networks import build_classifier, load_model, save_model


def test_success_replaces_the_target(tmp_path):
    target = tmp_path / "a.txt"
    target.write_text("old")
    with atomic_open(target) as fh:
        fh.write("new\r\n")
    assert target.read_bytes() == b"new\r\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_failure_midway_keeps_the_old_file_and_removes_the_temp(tmp_path):
    target = tmp_path / "a.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError, match="disk on fire"):
        with atomic_open(target) as fh:
            fh.write("half a file")
            raise RuntimeError("disk on fire")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_missing_directory_raises_and_creates_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_open(tmp_path / "no" / "a.bin", "wb") as fh:
            fh.write(b"x")
    assert os.listdir(tmp_path) == []


def test_failure_to_create_the_temp_names_the_given_path(tmp_path):
    target = tmp_path / "no" / "a.jsonl"
    with pytest.raises(FileNotFoundError) as exc:
        with atomic_open(target) as fh:
            fh.write("x")
    assert exc.value.filename == str(target) and exc.value.errno == 2
    assert str(exc.value) == f"[Errno 2] No such file or directory: {str(target)!r}"
    assert os.listdir(tmp_path) == []


def test_writer_errors_pass_through_unchanged(tmp_path):
    error = OSError(28, "No space left on device")
    with pytest.raises(OSError) as exc:
        with atomic_open(tmp_path / "a.txt"):
            raise error
    assert exc.value is error
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_non_regular_target_is_written_in_place():
    with atomic_open(os.devnull) as fh:
        fh.write("discarded")
    assert not os.path.isfile(os.devnull)


def test_csv_writer_failing_midway_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "data.csv"
    ds.write_csv(ds.generate("xor", 5, 0), target)
    before = target.read_bytes()
    blocks = []

    def fail_on_second_block(*columns):
        blocks.append(1)
        if len(blocks) == 2:
            raise MemoryError("out of memory in block 2")
        return real(*columns)

    real = ds._format_block
    monkeypatch.setattr(files, "BLOCK_ROWS", 4)
    monkeypatch.setattr(ds, "_format_block", fail_on_second_block)
    with pytest.raises(MemoryError):
        ds.write_csv(ds.generate("orange_skin", 10, 1), target)
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.csv"]


def test_jsonl_and_checkpoint_writers_are_atomic(tmp_path, monkeypatch):
    model = build_classifier(3, 2, np.random.default_rng(0), hidden=(4,))
    save_model(model, tmp_path / "m.l2x")
    items = ex.Explanations("l2x", np.zeros(1, np.int64), np.ones((1, 3)), np.zeros((1, 1), np.int64),
                            np.ones(1, np.int64))
    ex.write_jsonl(items, tmp_path / "e.jsonl")
    before = {name: (tmp_path / name).read_bytes() for name in ("m.l2x", "e.jsonl")}

    def broken(*args):
        raise OSError("device full")

    monkeypatch.setattr(ex, "_format_block", broken)
    monkeypatch.setattr("l2x.networks.serialize", broken)
    with pytest.raises(OSError):
        ex.write_jsonl(items, tmp_path / "e.jsonl")
    with pytest.raises(OSError):
        save_model(model, tmp_path / "m.l2x")
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(os.listdir(tmp_path)) == ["e.jsonl", "m.l2x"]
    assert load_model(tmp_path / "m.l2x").spec == model.spec


@pytest.mark.parametrize("sep", [", ", ","])
def test_float_rows_match_repr(sep):
    values = np.array([[-0.0, 5e-324, 1e-5], [1e16, 1e22, 0.1], [np.nan, np.inf, -np.inf]])
    assert float_rows(values, sep) == [sep.join(map(repr, row)) for row in values.tolist()]
    assert float_rows(np.zeros((2, 0)), sep) == ["", ""]
    assert float_rows(np.zeros((0, 3)), sep) == []


def _lines_read(path) -> list[str]:
    with open_text(path) as fh:
        blocks = parse_blocks(fh, lambda lines, state: (lines, state), CsvFormatError, first=2)
        return [line for lines in blocks for line in lines]


@pytest.mark.parametrize("block", [1, 2, 16])
def test_parse_blocks_names_a_line_that_is_not_utf8(tmp_path, monkeypatch, block):
    monkeypatch.setattr(files, "BLOCK_ROWS", block)
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\nb\xc3\xa9\nc\r\nd\xffe\nf\n")
    with pytest.raises(CsvFormatError, match="not UTF-8 text.*line 5"):
        _lines_read(path)
    path.write_bytes(b"a\nb\xc3\xa9\nc\r\nde\nf")
    assert _lines_read(path) == ["a\n", "b\u00e9\n", "c\n", "de\n", "f"]
