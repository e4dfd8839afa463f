"""Accuracy, base/novel splitting, harmonic means, the report of one run."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.errors import DataError
from bmcoop.evaluation import (
    SPLIT_RULE,
    accuracy,
    base_novel_split,
    harmonic_mean,
    write_run_report,
)
from bmcoop.types import ClassCatalog


def make_catalog(n):
    return ClassCatalog(names=[f"class{i}" for i in range(n)], modalities=["mri"] * n)


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


class TestEvalReport:
    """The report of one run, as ``write_run_report`` writes it."""

    def test_hm_absent_without_split(self, tmp_path):
        path = tmp_path / "report.json"
        write_run_report(path, "toy", 3, 62.5, None, None, {"classifier": "context"})
        assert json.loads(path.read_text()) == {
            "dataset": "toy",
            "seeds": [3],
            "accuracies": [62.5],
            "mean": 62.5,
            "std": 0.0,
            "base": None,
            "novel": None,
            "hm": None,
            "split_rule": SPLIT_RULE,
            "classifier": "context",
        }

    def test_json_fields(self, tmp_path):
        path = tmp_path / "report.json"
        extra = {"base_classes": ["a"], "novel_classes": ["b"], "train_epochs": 5}
        write_run_report(path, "toy", 1, 70.0, 80.0, 60.0, extra)
        assert json.loads(path.read_text()) == {
            "dataset": "toy",
            "seeds": [1],
            "accuracies": [70.0],
            "mean": 70.0,
            "std": 0.0,
            "base": 80.0,
            "novel": 60.0,
            "hm": harmonic_mean(80.0, 60.0),
            "split_rule": SPLIT_RULE,
            "base_classes": ["a"],
            "novel_classes": ["b"],
            "train_epochs": 5,
        }
        # sorted keys, two-space indent, one trailing newline
        assert path.read_text().startswith('{\n  "accuracies": [\n    70.0\n  ],\n')
        assert path.read_text().endswith('"train_epochs": 5\n}\n')

    def test_zero_halves_rejected_before_writing(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="both accuracies are zero"):
            write_run_report(path, "toy", 1, 0.0, 0.0, 0.0, {})
        assert not path.exists()

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        write_run_report(path, "toy", 1, 50.0, None, None, {})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match="rename refused"):
            write_run_report(path, "toy", 2, 75.0, None, None, {})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_one_row_table(self, tmp_path):
        eval_table = write_run_report(tmp_path / "e.json", "alpha", 1, 61.0, None, None, {})
        b2n_table = write_run_report(tmp_path / "b.json", "beta", 2, 70.0, 75.0, 65.0, {})
        header = "dataset          seeds    mean    std    base   novel      HM"
        assert eval_table == (
            f"{header}\n{'-' * len(header)}\n"
            "alpha                1   61.00   0.00       -       -       -\n"
        )
        assert b2n_table.splitlines()[2] == (
            "beta                 1   70.00   0.00   75.00   65.00   69.64"  # HM of 75/65
        )
