"""Synthetic generators: exact probabilities, truth sets, CSV round-trip."""

from __future__ import annotations

import math

import numpy as np
import pytest

from l2x import datasets as ds
from l2x.errors import CsvFormatError


def straight_line_probability(kind, x, component=0):
    """Independent reimplementation of the four logits, scalar arithmetic only."""
    if kind == "xor":
        logit = x[0] * x[1]
    elif kind == "orange_skin":
        logit = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2 - 4.0
    elif kind == "nonlinear_additive":
        logit = -100.0 * math.sin(2.0 * x[0]) + 2.0 * abs(x[1]) + x[2] + math.exp(-x[3])
    elif kind == "switch":
        if component == 1:
            logit = x[1] ** 2 + x[2] ** 2 + x[3] ** 2 + x[4] ** 2 - 4.0
        else:
            logit = -100.0 * math.sin(2.0 * x[5]) + 2.0 * abs(x[6]) + x[7] + math.exp(-x[8])
    else:
        raise AssertionError(kind)
    if logit >= 0:
        return 1.0 / (1.0 + math.exp(-logit))
    return math.exp(logit) / (1.0 + math.exp(logit))


class TestExactProbability:
    def test_xor_zero_logit(self):
        x = np.zeros(10)
        assert ds.exact_probability("xor", x) == 0.5

    def test_xor_known_point(self):
        x = np.zeros(10)
        x[0] = x[1] = 2.0  # logit 4
        np.testing.assert_allclose(
            ds.exact_probability("xor", x), 0.9820137900379085, atol=1e-15
        )

    def test_xor_odd_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=10)
            x_neg = x.copy()
            x_neg[0] = -x_neg[0]
            total = ds.exact_probability("xor", x) + ds.exact_probability("xor", x_neg)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_orange_skin_zero_logit_sphere(self):
        x = np.zeros(10)
        x[0:4] = 1.0  # squared norm 4
        assert ds.exact_probability("orange_skin", x) == 0.5

    def test_additive_at_origin(self):
        # logit = 0 + 0 + 0 + exp(0) = 1
        p = ds.exact_probability("nonlinear_additive", np.zeros(10))
        np.testing.assert_allclose(p, 0.7310585786300049, atol=1e-15)

    def test_sin_coefficient_override(self):
        x = np.zeros(10)
        x[0] = 0.5
        default = ds.exact_probability("nonlinear_additive", x)
        mild = ds.exact_probability("nonlinear_additive", x, sin_coeff=-1.0)
        assert default != mild
        # logit with coeff -1: -sin(1) + 0 + 0 + exp(0)
        expected = 1.0 / (1.0 + math.exp(-(-math.sin(1.0) + 1.0)))
        np.testing.assert_allclose(mild, expected, atol=1e-15)

    def test_cross_check_against_straight_line_reimplementation(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            x = rng.normal(size=10)
            kind = ds.KINDS[rng.integers(len(ds.KINDS))]
            comp = int(rng.choice([1, -1])) if kind == "switch" else 0
            mine = ds.exact_probability(kind, x, component=comp if kind == "switch" else None)
            ref = straight_line_probability(kind, x, comp)
            worst = max(worst, abs(mine - ref))
        assert worst < 1e-12

    def test_switch_requires_component(self):
        with pytest.raises(ValueError, match="component"):
            ds.exact_probability("switch", np.zeros(10))

    def test_rejects_unknown_kind_and_bad_shape(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            ds.exact_probability("parity", np.zeros(10))
        with pytest.raises(ValueError, match="shape"):
            ds.exact_probability("xor", np.zeros(9))


class TestGenerate:
    def test_shapes_and_ranges(self):
        data = ds.generate("xor", 200, 0)
        assert len(data) == 200
        assert data.x.shape == (200, 10) and data.x.dtype == np.float64
        assert data.p.shape == data.y.shape == data.component.shape == (200,)
        assert np.all((0.0 <= data.p) & (data.p <= 1.0))
        assert set(data.y.tolist()) <= {0, 1}
        assert data.truth.shape == (200, 2)
        assert np.all(data.truth == (0, 1))
        assert np.all(data.component == 0)

    def test_determinism(self):
        a = ds.generate("switch", 50, 123)
        b = ds.generate("switch", 50, 123)
        for name in ("x", "p", "y", "component", "truth"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_stored_p_matches_exact_probability(self):
        for kind in ds.KINDS:
            data = ds.generate(kind, 30, 7)
            for x, p, comp in zip(data.x, data.p, data.component.tolist()):
                comp = comp if kind == "switch" else None
                assert ds.exact_probability(kind, x, component=comp) == p

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
        comp, x0 = data.component, data.x[:, 0]
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
        for name in ("x", "p", "y", "component", "truth"):
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
