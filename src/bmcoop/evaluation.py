"""Accuracy metrics, base/novel class splitting, and the report of one run.

Accuracies are percentages in [0, 100], reported to two decimals in
rendered tables. The base/novel split is a declared convention (first
half of the catalog in canonical order, ties to base) and is stamped into
every report header so numbers are only compared under the same rule.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DataError
from .io import write_json
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


def write_run_report(
    path: str | Path,
    dataset: str,
    seed: int,
    acc: float,
    base_acc: float | None,
    novel_acc: float | None,
    extra: dict,
) -> str:
    """Write the JSON report of one run; return its one-row text table.

    ``seeds`` and ``accuracies`` hold the run's one seed and accuracy (so
    ``mean`` is the accuracy and ``std`` 0), which lets reports of several
    runs be pooled outside the package. ``hm`` is set when both halves are.
    """
    hm = None if base_acc is None or novel_acc is None else harmonic_mean(base_acc, novel_acc)
    doc = {
        "dataset": dataset,
        "seeds": [seed],
        "accuracies": [acc],
        "mean": acc,
        "std": 0.0,
        "base": base_acc,
        "novel": novel_acc,
        "hm": hm,
        "split_rule": SPLIT_RULE,
        **extra,
    }
    write_json(path, doc)
    cells = ("-" if v is None else f"{v:.2f}" for v in (base_acc, novel_acc, hm))
    header = f"{'dataset':<16} {'seeds':>5} {'mean':>7} {'std':>6} {'base':>7} {'novel':>7} {'HM':>7}"
    row = f"{dataset:<16} {1:>5} {acc:>7.2f} {0.0:>6.2f} " + " ".join(f"{c:>7}" for c in cells)
    return "\n".join([header, "-" * len(header), row]) + "\n"
