"""Accuracy metrics, base/novel class splitting, and multi-seed aggregation.

Accuracies are percentages in [0, 100], reported to two decimals in
rendered tables. The base/novel split is a declared convention (first
half of the catalog in canonical order, ties to base) and is stamped into
every report header so numbers are only compared under the same rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .io import write_text
from .types import ClassCatalog

SPLIT_RULE = "first ceil(C/2) catalog classes are base, remainder novel"


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of matching entries."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise DataError(
            f"predictions {predictions.shape} and labels {labels.shape} must be "
            "equal-length vectors"
        )
    if predictions.size == 0:
        raise DataError("cannot compute accuracy of an empty prediction set")
    matches = int(np.sum(predictions == labels))
    return 100.0 * matches / predictions.size


def base_novel_split(catalog: ClassCatalog) -> tuple[list[str], list[str]]:
    """Partition the catalog into base and novel halves, order-stable."""
    names = catalog.names
    if len(names) < 2:
        raise DataError(
            f"base/novel split needs at least 2 classes, got {len(names)}"
        )
    cut = math.ceil(len(names) / 2)
    return names[:cut], names[cut:]


def harmonic_mean(base_acc: float, novel_acc: float) -> float:
    """2*b*n/(b+n) of two accuracies in percent."""
    for v in (base_acc, novel_acc):
        if not 0.0 <= v <= 100.0:
            raise DataError(f"accuracy {v} outside [0, 100]")
    if base_acc + novel_acc == 0.0:
        raise DataError("harmonic mean undefined when both accuracies are zero")
    return 2.0 * base_acc * novel_acc / (base_acc + novel_acc)


def aggregate_seeds(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1); a single value has std 0."""
    if not values:
        raise DataError("no per-seed values to aggregate")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass
class EvalReport:
    """Per-dataset accuracies with optional base/novel breakdown."""

    dataset: str
    seeds: list[int]
    accuracies: list[float]
    base_acc: float | None = None
    novel_acc: float | None = None
    extra: dict = field(default_factory=dict)  # config digest, split rule, ...

    def __post_init__(self):
        if len(self.seeds) != len(self.accuracies):
            raise DataError(
                f"{len(self.seeds)} seeds but {len(self.accuracies)} accuracies"
            )

    @property
    def mean(self) -> float:
        return aggregate_seeds(self.accuracies)[0]

    @property
    def std(self) -> float:
        return aggregate_seeds(self.accuracies)[1]

    @property
    def hm(self) -> float | None:
        if self.base_acc is None or self.novel_acc is None:
            return None
        return harmonic_mean(self.base_acc, self.novel_acc)

    def to_dict(self) -> dict:
        doc = {
            "dataset": self.dataset,
            "seeds": self.seeds,
            "accuracies": self.accuracies,
            "mean": self.mean,
            "std": self.std,
            "base": self.base_acc,
            "novel": self.novel_acc,
            "hm": self.hm,
            "split_rule": SPLIT_RULE,
        }
        doc.update(self.extra)
        return doc

    def write_json(self, path: str | Path) -> None:
        write_text(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def render_table(reports: list[EvalReport]) -> str:
    """Fixed-width text table: one dataset per row, mean +/- std and base/novel/HM."""
    header = f"{'dataset':<16} {'seeds':>5} {'mean':>7} {'std':>6} {'base':>7} {'novel':>7} {'HM':>7}"
    lines = [header, "-" * len(header)]
    for r in reports:
        base = f"{r.base_acc:.2f}" if r.base_acc is not None else "-"
        novel = f"{r.novel_acc:.2f}" if r.novel_acc is not None else "-"
        hm = f"{r.hm:.2f}" if r.hm is not None else "-"
        lines.append(
            f"{r.dataset:<16} {len(r.seeds):>5} {r.mean:>7.2f} {r.std:>6.2f} "
            f"{base:>7} {novel:>7} {hm:>7}"
        )
    return "\n".join(lines) + "\n"
