"""Synthetic generators: exact probabilities, truth sets, CSV round-trip."""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import pytest

from l2x import datasets as ds
from l2x import files
from l2x.errors import CsvFormatError


def straight_line_probability(kind, x, component=0, sin_coeff=ds.DEFAULT_SIN_COEFF):
    """Independent reimplementation of the four logits, scalar arithmetic only."""
    if kind == "xor":
        logit = x[0] * x[1]
    elif kind == "orange_skin":
        logit = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2 - 4.0
    elif kind == "nonlinear_additive":
        logit = sin_coeff * math.sin(2.0 * x[0]) + 2.0 * abs(x[1]) + x[2] + math.exp(-x[3])
    elif kind == "switch":
        if component == 1:
            logit = x[1] ** 2 + x[2] ** 2 + x[3] ** 2 + x[4] ** 2 - 4.0
        else:
            logit = sin_coeff * math.sin(2.0 * x[5]) + 2.0 * abs(x[6]) + x[7] + math.exp(-x[8])
    else:
        raise AssertionError(kind)
    if logit >= 0:
        return 1.0 / (1.0 + math.exp(-logit))
    return math.exp(logit) / (1.0 + math.exp(logit))


def switch_component(truth):
    """+1 for switch rows whose truth set is x0..x4 (x0 drawn around +3), -1 otherwise."""
    return np.where(truth[:, 1] == 1, 1, -1)


class TestExactProbability:
    """Hand-picked points pin the reference; ``generate``'s stored p must match it."""

    def test_xor_zero_logit(self):
        assert straight_line_probability("xor", np.zeros(10)) == 0.5

    def test_xor_known_point(self):
        x = np.zeros(10)
        x[0] = x[1] = 2.0  # logit 4
        np.testing.assert_allclose(straight_line_probability("xor", x), 0.9820137900379085, atol=1e-15)

    def test_xor_odd_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=10)
            x_neg = x.copy()
            x_neg[0] = -x_neg[0]
            total = straight_line_probability("xor", x) + straight_line_probability("xor", x_neg)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_orange_skin_zero_logit_sphere(self):
        x = np.zeros(10)
        x[0:4] = 1.0  # squared norm 4
        assert straight_line_probability("orange_skin", x) == 0.5

    def test_additive_at_origin(self):
        # logit = 0 + 0 + 0 + exp(0) = 1
        p = straight_line_probability("nonlinear_additive", np.zeros(10))
        np.testing.assert_allclose(p, 0.7310585786300049, atol=1e-15)

    def test_sin_coefficient_override(self):
        x = np.zeros(10)
        x[0] = 0.5
        default = straight_line_probability("nonlinear_additive", x)
        mild = straight_line_probability("nonlinear_additive", x, sin_coeff=-1.0)
        assert default != mild
        # logit with coeff -1: -sin(1) + 0 + 0 + exp(0)
        expected = 1.0 / (1.0 + math.exp(-(-math.sin(1.0) + 1.0)))
        np.testing.assert_allclose(mild, expected, atol=1e-15)

    def test_cross_check_against_straight_line_reimplementation(self):
        # the default coefficient is checked in TestGenerate::test_stored_p_matches_exact_probability
        for kind, sin_coeff in itertools.product(ds.KINDS, (-1.0,)):
            data = ds.generate(kind, 400, 42, sin_coeff=sin_coeff)
            component = switch_component(data.truth) if kind == "switch" else np.zeros(len(data))
            if kind == "switch":
                assert set(component.tolist()) == {1, -1}
            ref = [straight_line_probability(kind, x, c, sin_coeff) for x, c in zip(data.x, component)]
            np.testing.assert_allclose(data.p, ref, rtol=0, atol=1e-12)

    def test_rejects_unknown_kind_and_bad_shape(self, tmp_path):
        for call in (ds.generate, ds.k_for):
            with pytest.raises(ValueError, match="unknown dataset kind"):
                call("parity", *((5, 0) if call is ds.generate else ()))
        # a stored row with nine features instead of ten
        path = tmp_path / "short.csv"
        ds.write_csv(ds.generate("xor", 2, 0), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=r"expected 13 fields, got 12 \(line 2\)"):
            ds.read_csv(path)


class TestGenerate:
    def test_shapes_and_ranges(self):
        data = ds.generate("xor", 200, 0)
        assert len(data) == 200
        assert data.x.shape == (200, 10) and data.x.dtype == np.float64
        assert data.p.shape == data.y.shape == (200,)
        assert np.all((0.0 <= data.p) & (data.p <= 1.0))
        assert set(data.y.tolist()) <= {0, 1}
        assert data.truth.shape == (200, 2)
        assert np.all(data.truth == (0, 1))

    def test_determinism(self):
        a = ds.generate("switch", 50, 123)
        b = ds.generate("switch", 50, 123)
        for name in ("x", "p", "y", "truth"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_stored_p_matches_exact_probability(self):
        for kind in ds.KINDS:
            data = ds.generate(kind, 30, 7)
            component = switch_component(data.truth) if kind == "switch" else np.zeros(len(data))
            for x, p, c in zip(data.x, data.p, component):
                np.testing.assert_allclose(p, straight_line_probability(kind, x, c), rtol=0, atol=1e-12)

    def test_truth_sizes(self):
        for kind, size in [("xor", 2), ("orange_skin", 4), ("nonlinear_additive", 4), ("switch", 5)]:
            truth = ds.generate(kind, 5, 1).truth
            assert truth.shape == (5, size) and size == ds.k_for(kind)

    def test_labels_consistent_with_probabilities(self):
        data = ds.generate("orange_skin", 100_000, 99)
        _, p, y, _ = ds.as_arrays(data)
        assert abs(y.mean() - p.mean()) < 0.01

    def test_switch_mixture_structure(self):
        data = ds.generate("switch", 100_000, 5)
        comp, x0 = switch_component(data.truth), data.x[:, 0]
        assert abs((comp == 1).mean() - 0.5) < 0.01
        # x0 tracks its component's center
        assert abs(x0[comp == 1].mean() - 3.0) < 0.02
        assert abs(x0[comp == -1].mean() + 3.0) < 0.02
        assert np.all(data.truth[comp == 1] == (0, 1, 2, 3, 4))
        assert np.all(data.truth[comp == -1] == (0, 5, 6, 7, 8))

    def test_non_switch_coordinates_standard_normal(self):
        data = ds.generate("xor", 100_000, 11)
        x, _, _, _ = ds.as_arrays(data)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01

    def test_kind_aliases(self):
        assert ds.canonical_kind("orange-skin") == "orange_skin"
        assert ds.canonical_kind("Nonlinear-Additive") == "nonlinear_additive"

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must"):
            ds.generate("xor", 0, 0)


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        path = tmp_path / "data.csv"
        data = ds.generate("switch", 40, 3)
        ds.write_csv(data, path)
        back = ds.read_csv(path)
        assert len(back) == len(data)
        for name in ("x", "p", "y", "truth"):
            np.testing.assert_array_equal(getattr(back, name), getattr(data, name))
            assert getattr(back, name).dtype == getattr(data, name).dtype

    def test_header_layout(self, tmp_path):
        path = tmp_path / "data.csv"
        ds.write_csv(ds.generate("xor", 2, 0), path)
        first = path.read_text().splitlines()[0]
        assert first == "x0,x1,x2,x3,x4,x5,x6,x7,x8,x9,p,y,truth"

    def test_truth_column_is_pipe_joined(self, tmp_path):
        path = tmp_path / "data.csv"
        ds.write_csv(ds.generate("orange_skin", 1, 0), path)
        assert path.read_text().splitlines()[1].endswith(",0|1|2|3")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            ds.read_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        ds.write_csv(ds.generate("xor", 1, 0), path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(CsvFormatError, match="no samples"):
            ds.read_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        ds.write_csv(ds.generate("xor", 3, 0), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-truth"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            ds.read_csv(path)

    def test_out_of_range_probability_rejected(self, tmp_path):
        path = tmp_path / "badp.csv"
        ds.write_csv(ds.generate("xor", 2, 0), path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[10] = "1.5"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=r"outside \[0, 1\].*|line 2"):
            ds.read_csv(path)

    def _corrupt(self, tmp_path, line: int, column: int, value: str):
        path = tmp_path / "bad.csv"
        ds.write_csv(ds.generate("xor", 4, 0), path)
        lines = path.read_text().splitlines()
        parts = lines[line - 1].split(",")
        parts[column] = value
        lines[line - 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, value):
        path = self._corrupt(tmp_path, line=3, column=4, value=value)
        with pytest.raises(CsvFormatError, match="non-finite.*line 3"):
            ds.read_csv(path)

    def test_truth_sets_of_different_sizes_rejected_with_line(self, tmp_path):
        path = self._corrupt(tmp_path, line=4, column=12, value="0|1|2")
        with pytest.raises(CsvFormatError, match="truth set of size 3.*line 4"):
            ds.read_csv(path)

    @pytest.mark.parametrize("lines", [(2,), (2, 3, 4, 5), (4,)], ids=["first", "every", "later"])
    def test_empty_truth_set_rejected_with_line(self, tmp_path, lines):
        path = tmp_path / "bad.csv"
        ds.write_csv(ds.generate("xor", 4, 0), path)
        text = path.read_text().splitlines()
        for line in lines:
            text[line - 1] = text[line - 1].rsplit(",", 1)[0] + ","
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(CsvFormatError, match=f"empty truth set.*line {lines[0]}"):
            ds.read_csv(path)

    def test_blank_line_mid_file_rejected_with_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        ds.write_csv(ds.generate("xor", 4, 0), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
        with pytest.raises(CsvFormatError, match="expected 13 fields, got 0.*line 4"):
            ds.read_csv(path)

    def test_quoted_field_rejected_with_line(self, tmp_path):
        path = self._corrupt(tmp_path, line=3, column=2, value='"0.5"')
        with pytest.raises(CsvFormatError, match="unparseable.*line 3"):
            ds.read_csv(path)

    def test_first_bad_row_wins_whatever_the_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        ds.write_csv(ds.generate("xor", 6, 0), path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[2][11] = "2"  # line 3: label out of range
        rows[3][0] = "nan"  # line 4: non-finite feature
        rows[4][5] = "x"  # line 5: unparseable
        rows[5] = rows[5][:4]  # line 6: short row
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        for line, message in ((3, "label 2"), (4, "non-finite"), (5, "unparseable"),
                              (6, "expected 13 fields, got 4")):
            with pytest.raises(CsvFormatError, match=f"{message}.*line {line}"):
                ds.read_csv(path)
            rows[line - 1] = path.read_text().splitlines()[1].split(",")  # mend it, try the next
            path.write_text("".join(",".join(row) + "\n" for row in rows))
        assert len(ds.read_csv(path)) == 6

    @pytest.mark.parametrize("edit, message", [
        (lambda parts: parts[:5], "expected 13 fields, got 5"),
        (lambda parts: ["1e"] + parts[1:], "unparseable"),
        (lambda parts: parts[:12] + ["0|x"], "unparseable"),
    ])
    def test_bad_first_row_reports_line_2(self, tmp_path, edit, message):
        path = tmp_path / "bad.csv"
        ds.write_csv(ds.generate("xor", 3, 0), path)
        lines = path.read_text().splitlines()
        lines[1] = ",".join(edit(lines[1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match=f"{message}.*line 2"):
            ds.read_csv(path)

    def test_errors_in_later_blocks_name_the_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(files, "BLOCK_ROWS", 3)
        path = self._corrupt(tmp_path, line=5, column=10, value="1.5")
        with pytest.raises(CsvFormatError, match=r"outside \[0, 1\].*line 5"):
            ds.read_csv(path)


def reference_csv(data: ds.Dataset) -> bytes:
    """The per-row writer the column kernel replaced: csv.writer with repr floats."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([f"x{i}" for i in range(ds.D)] + ["p", "y", "truth"])
    for x, p, y, truth in zip(data.x, data.p.tolist(), data.y.tolist(), data.truth.tolist()):
        writer.writerow([*map(repr, x.tolist()), repr(p), str(y), "|".join(map(str, truth))])
    return buffer.getvalue().encode()


EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 1.0, 0.1, -2.5e-308, 1.7976931348623157e308, 123456.789]


def edge_dataset() -> ds.Dataset:
    x = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1], np.roll(EDGE_FLOATS, 3)])
    return ds.Dataset(
        x=x,
        p=np.array([5e-324, 1.0, -0.0]),
        y=np.array([0, 1, 1]),
        truth=np.tile([0, 1], (3, 1)),
    )


class TestCsvColumnKernel:
    """The whole-column writer and reader against the per-row path they replace."""

    @pytest.mark.parametrize("kind", ds.KINDS)
    def test_bytes_match_per_row_writer(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(files, "BLOCK_ROWS", 64)  # several blocks and a partial last one
        data = ds.generate(kind, 300, 11)
        ds.write_csv(data, tmp_path / "data.csv")
        assert (tmp_path / "data.csv").read_bytes() == reference_csv(data)

    def test_edge_floats_match_and_round_trip_bitwise(self, tmp_path):
        data = edge_dataset()
        path = tmp_path / "edge.csv"
        ds.write_csv(data, path)
        assert path.read_bytes() == reference_csv(data)
        back = ds.read_csv(path)
        for name in ("x", "p", "y", "truth"):
            np.testing.assert_array_equal(getattr(back, name), getattr(data, name))
        assert np.signbit(back.x[0, 0]) and np.signbit(back.p[2])

    @pytest.mark.parametrize("ending", ["\r\n", "\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_line_ends_and_missing_final_newline(self, tmp_path, monkeypatch, ending, final_newline):
        monkeypatch.setattr(files, "BLOCK_ROWS", 4)
        data = ds.generate("switch", 9, 5)
        ds.write_csv(data, tmp_path / "a.csv")
        text = ending.join((tmp_path / "a.csv").read_bytes().decode().splitlines())
        (tmp_path / "b.csv").write_bytes((text + (ending if final_newline else "")).encode())
        back = ds.read_csv(tmp_path / "b.csv")
        for name in ("x", "p", "y", "truth"):
            np.testing.assert_array_equal(getattr(back, name), getattr(data, name))
