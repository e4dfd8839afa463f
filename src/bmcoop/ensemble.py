"""Prompt ensembling and statistics-based outlier pruning.

Per class: score each generated prompt by its mean scaled similarity to
the support images, convert scores to modified z-scores via the median
absolute deviation, drop prompts whose |z| reaches the selection
threshold, and average what survives into the teacher ensemble. The
plain (unpruned) mean ensemble is kept separately for the consistency
loss.

The bank is one (C, N, D) array: N prompt embeddings for each of C
classes in catalog order, so a class subset is a slice of its first axis.

Ensemble rows are plain means and are NOT re-normalized to unit length;
downstream cosine computations normalize on the fly.

The MAD rule's medians (``_median``) have ``np.median``'s bits without its
first-call import of ``numpy.ma``, which every selecting stage would pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .io import write_json


def _stacked(arrays, dtype, what: str) -> np.ndarray:
    """One array from an array or a list of equal-shape per-class arrays."""
    try:
        return np.asarray(arrays, dtype=dtype)
    except ValueError as e:
        raise DataError(f"every class needs the same number of {what} ({e})") from e


def _as_bank(bank_embeddings) -> np.ndarray:
    """The bank as one (C, N, D) float64 array; a list of (N, D) arrays is stacked."""
    bank = _stacked(bank_embeddings, np.float64, "prompt embeddings")
    if bank.ndim != 3 or bank.shape[1] < 1:
        raise DataError(f"prompt bank must be a non-empty (C, N, D) array, got shape {bank.shape}")
    return bank


def mean_ensemble(bank_embeddings: np.ndarray) -> np.ndarray:
    """Average the N prompt embeddings of each class; returns (C, D)."""
    return _as_bank(bank_embeddings).mean(axis=1)


def prompt_scores(bank_embeddings: np.ndarray, images: np.ndarray, beta: float) -> np.ndarray:
    """Score each prompt of each class: mean of beta-scaled dot products over the batch.

    ``images`` must be unit-norm rows (B, D); prompt embeddings are unit by
    construction, so the dot product is the cosine similarity. Returns (C, N).
    """
    bank = _as_bank(bank_embeddings)
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] < 1:
        raise DataError("prompt scoring needs at least one image")
    if bank.shape[2] != images.shape[1]:
        raise DataError(
            f"prompt dim {bank.shape[2]} does not match image dim {images.shape[1]}"
        )
    # (C, N, D) @ (D, B) -> (C, N, B), then mean over the batch axis
    return beta * (bank @ images.T).mean(axis=2)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty float64 vector, bit for bit: the mean of its middle
    sorted value or two, summed from +0.0 as ``np.mean`` sums (so a zero median is
    +0.0 whichever zeros sort there); a NaN sorts last and makes the median NaN."""
    ordered = np.sort(values)
    n = len(ordered)
    middle = ordered[(n - 1) // 2 : n // 2 + 1]
    return float(ordered[-1] if np.isnan(ordered[-1]) else np.add.reduce(middle) / len(middle))


def mad_zscores(scores: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Median, median absolute deviation, and modified z-scores of a score vector.

    No consistency constant is applied: z = (s - median) / mad. When the
    mad is zero (all scores equal) every z is defined as zero, so nothing
    looks like an outlier.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise DataError("scores must be a non-empty vector")
    median = _median(scores)
    mad = _median(np.abs(scores - median))
    if mad == 0.0:
        z = np.zeros_like(scores)
    else:
        z = (scores - median) / mad
    return median, mad, z


def select_prompts(zscores: np.ndarray, zeta_s: float) -> np.ndarray:
    """Boolean mask of prompts with |z| strictly below the threshold.

    Guaranteed non-empty: if every prompt is rejected, keep the single
    prompt with the smallest |z| (lowest index on ties).
    """
    if zeta_s <= 0:
        raise DataError(f"selection threshold must be > 0, got {zeta_s}")
    zscores = np.asarray(zscores, dtype=np.float64)
    mask = np.abs(zscores) < zeta_s
    if not mask.any():
        mask = np.zeros_like(mask)
        mask[int(np.argmin(np.abs(zscores)))] = True
    return mask


def selected_ensemble(bank_embeddings: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Average only the selected prompt embeddings of each class; returns (C, D)."""
    bank = _as_bank(bank_embeddings)
    masks = _stacked(masks, bool, "mask entries")
    if masks.shape != bank.shape[:2]:
        raise DataError(f"selection masks have shape {masks.shape}, bank has {bank.shape[:2]}")
    empty = np.flatnonzero(~masks.any(axis=1))
    if empty.size:
        raise DataError(f"class {empty[0]}: selection mask excludes every prompt")
    return bank.mean(axis=1, where=masks[:, :, None])


@dataclass
class PromptScoreReport:
    """Per-class scoring and selection outcome, serializable for the CLI."""

    class_name: str
    scores: np.ndarray
    median: float
    mad: float
    zscores: np.ndarray
    selected_mask: np.ndarray

    @property
    def n_selected(self) -> int:
        return int(self.selected_mask.sum())

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "scores": [float(s) for s in self.scores],
            "median": self.median,
            "mad": self.mad,
            "zscores": [float(z) for z in self.zscores],
            "selected_indices": [int(i) for i in np.flatnonzero(self.selected_mask)],
            "excluded_indices": [int(i) for i in np.flatnonzero(~self.selected_mask)],
            "n_selected": self.n_selected,
        }


def score_and_select(
    class_names: list[str],
    bank_embeddings: np.ndarray,
    images: np.ndarray,
    beta: float,
    zeta_s: float,
) -> list[PromptScoreReport]:
    """Full per-class pipeline: scores -> z-scores -> selection mask."""
    reports = []
    for name, scores in zip(class_names, prompt_scores(bank_embeddings, images, beta)):
        median, mad, z = mad_zscores(scores)
        mask = select_prompts(z, zeta_s)
        reports.append(
            PromptScoreReport(
                class_name=name,
                scores=scores,
                median=median,
                mad=mad,
                zscores=z,
                selected_mask=mask,
            )
        )
    return reports


def write_score_report(reports: list[PromptScoreReport], path: str | Path, header: dict) -> None:
    """Write ``header`` and one entry per class as the prompt-score report."""
    write_json(path, {**header, "classes": [r.to_dict() for r in reports]})
