"""Accuracy, base/novel splitting, harmonic means, seed aggregation."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.errors import DataError
from bmcoop.evaluation import (
    EvalReport,
    accuracy,
    aggregate_seeds,
    base_novel_split,
    harmonic_mean,
    render_table,
)
from bmcoop.types import ClassCatalog, ClassEntry


def make_catalog(n):
    return ClassCatalog(classes=[ClassEntry(f"class{i}", "mri") for i in range(n)])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 100.0

    def test_two_of_three(self):
        got = accuracy(np.array([0, 1, 1]), np.array([0, 0, 1]))
        assert got == pytest.approx(200.0 / 3.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 5, size=1000)
        labels = rng.integers(0, 5, size=1000)
        matches = sum(1 for p, l in zip(preds, labels) if p == l)
        assert accuracy(preds, labels) == 100.0 * matches / 1000

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy(np.array([]), np.array([]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            accuracy(np.array([0]), np.array([0, 1]))


class TestBaseNovelSplit:
    def test_even_split(self):
        base, novel = base_novel_split(make_catalog(4))
        assert base == ["class0", "class1"]
        assert novel == ["class2", "class3"]

    def test_ceiling_rule_on_odd(self):
        base, novel = base_novel_split(make_catalog(7))
        assert len(base) == 4 and len(novel) == 3

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            base_novel_split(make_catalog(1))

    def test_partition_properties(self):
        catalog = make_catalog(9)
        base, novel = base_novel_split(catalog)
        assert not set(base) & set(novel)
        assert base + novel == catalog.names


class TestHarmonicMean:
    @pytest.mark.parametrize(
        "base,novel,expected",
        [
            (76.26, 73.92, 75.07),
            (82.42, 96.84, 89.05),
        ],
    )
    def test_reference_pairs(self, base, novel, expected):
        assert harmonic_mean(base, novel) == pytest.approx(expected, abs=0.01)

    def test_equal_inputs_identity(self):
        assert harmonic_mean(64.2, 64.2) == pytest.approx(64.2, abs=1e-12)

    def test_both_zero_rejected(self):
        with pytest.raises(DataError):
            harmonic_mean(0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            harmonic_mean(101.0, 50.0)

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.floats(0.1, 100.0),
        n=st.floats(0.1, 100.0),
    )
    def test_bounded_by_arithmetic_mean_and_symmetric(self, b, n):
        hm = harmonic_mean(b, n)
        assert hm <= (b + n) / 2 + 1e-9
        assert hm >= min(b, n) - 1e-9
        assert hm == pytest.approx(harmonic_mean(n, b), rel=1e-12)


class TestAggregateSeeds:
    def test_constant_values(self):
        assert aggregate_seeds([70.0, 70.0, 70.0]) == (70.0, 0.0)

    def test_sample_std(self):
        mean, std = aggregate_seeds([68.0, 70.0, 72.0])
        assert mean == 70.0
        assert std == pytest.approx(2.0)  # sqrt(((-2)^2 + 0 + 2^2) / 2)

    def test_single_seed(self):
        assert aggregate_seeds([55.5]) == (55.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_seeds([])


class TestEvalReport:
    def test_json_fields(self, tmp_path):
        report = EvalReport(
            dataset="toy", seeds=[1, 2, 3], accuracies=[68.0, 70.0, 72.0],
            base_acc=80.0, novel_acc=60.0,
        )
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["dataset"] == "toy"
        assert doc["mean"] == 70.0
        assert doc["std"] == pytest.approx(2.0)
        assert doc["hm"] == pytest.approx(harmonic_mean(80.0, 60.0))
        assert "split_rule" in doc

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        EvalReport(dataset="toy", seeds=[1], accuracies=[50.0]).write_json(path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match="rename refused"):
            EvalReport(dataset="toy", seeds=[2], accuracies=[75.0]).write_json(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_hm_absent_without_split(self):
        report = EvalReport(dataset="toy", seeds=[1], accuracies=[50.0])
        assert report.hm is None

    def test_render_table(self):
        reports = [
            EvalReport(dataset="alpha", seeds=[1, 2], accuracies=[60.0, 62.0]),
            EvalReport(dataset="beta", seeds=[1], accuracies=[70.0], base_acc=75.0, novel_acc=65.0),
        ]
        table = render_table(reports)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "alpha" in lines[2] and "61.00" in lines[2]
        assert "beta" in lines[3] and "69.64" in lines[3]  # HM of 75/65
