"""Classification head and the composite training objective.

Three terms, combined as  total = ce + lambda1 * consistency + lambda2 * distill:

  ce           cross-entropy of the image-vs-learned-prompt softmax
  sccm         sum over classes of the squared L2 distance between the
               learned class embedding and the mean generated-prompt
               ensemble (semantic consistency)
  kdsp         batch-mean KL divergence from the teacher distribution
               (images vs the outlier-pruned ensemble, held constant) to
               the student distribution (images vs learned prompts)

A training run derives each shared quantity once:

  once per run   ``prepare_support`` checks tau, the labels and the
                 widths, and normalizes the support rows and the teacher
                 ensemble (neither changes during a run); the trainer then
                 scores the teacher log-softmax of the whole support once
                 (``teacher_log_probs``), and a step indexes its batch rows
                 out of both
  once per step  one class-text encode, whose unit rows ``student_scores``
                 takes as they are (no second normalization), one (B, C)
                 cosine block, one student log-softmax and its exponential,
                 held in a ``StudentScores`` that every loss and gradient
                 term reads; the gradient terms are chained and summed in place

Gradients with respect to the context are exact and hand-written: each
loss is differentiated to dLoss/dTextEmbedding and chained through the
encoder's one tape over all classes to dLoss/ds, ``s`` the projected
context sum that training updates. The teacher ensemble and all bank
embeddings contribute zero gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backbone import SyntheticTextEncoder, encode_text_with_context
from .errors import DataError
from .types import normalize_rows, row_blocks


@dataclass
class LossBreakdown:
    ce: float
    sccm: float
    kdsp: float
    total: float

    @classmethod
    def compose(cls, ce: float, sccm: float, kdsp: float, lambda1: float, lambda2: float):
        return cls(ce=ce, sccm=sccm, kdsp=kdsp, total=ce + lambda1 * sccm + lambda2 * kdsp)


def _unit_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    """Unit-row float64 copy of ``matrix``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    # written only by the division, so the copy is not resident while the norms are taken
    unit = np.empty_like(matrix)
    normalize_rows(matrix, what, out=unit)
    return unit


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise DataError(f"tau must be > 0, got {tau}")


def _check_width(images: np.ndarray, width: int) -> None:
    if images.shape[1] != width:
        raise DataError(
            f"image width {images.shape[1]} does not match class-embedding width {width}"
        )


def cosine_logits(images: np.ndarray, text: np.ndarray, tau: float, names: list | None = None,
                  positions: np.ndarray | None = None) -> np.ndarray:
    """(B, C) matrix of cos(text_j, image_i) / tau for the rows ``images[positions]``
    (every row when ``positions`` is None), normalized and scored block by block
    in float64 (``types.row_blocks``), so the selection is never copied whole. A
    zero image row is named by ``names`` (indexed like the result), else by index."""
    _check_tau(tau)
    t_unit = _unit_rows(text, "class embeddings")
    images = np.asarray(images)
    _check_width(images, t_unit.shape[1])
    n = images.shape[0] if positions is None else len(positions)
    names = range(n) if names is None else names
    logits = np.empty((n, t_unit.shape[0]))
    for span, block in row_blocks(images, positions):
        normalize_rows(block, "images", names[span])
        np.matmul(block, t_unit.T, out=logits[span])
    logits /= tau
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted


def class_probabilities(images: np.ndarray, text: np.ndarray, tau: float) -> np.ndarray:
    """Per-image softmax over classes of the temperature-scaled cosine logits."""
    return np.exp(_log_softmax(cosine_logits(images, text, tau)))


def predict(probabilities: np.ndarray) -> np.ndarray:
    """Index of the most probable class per row; ties go to the lowest index.

    Softmax keeps the order within a row, so the (B, C) logits the
    probabilities come from may be passed in their place.
    """
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 2 or probabilities.shape[0] < 1:
        raise DataError("predict expects a non-empty (B, C) probability matrix")
    return np.argmax(probabilities, axis=1)


def _check_labels(labels: np.ndarray, batch: int, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise DataError(f"labels must have shape ({batch},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"label outside [0, {n_classes})")
    return labels.astype(np.intp)


def prepare_support(
    images: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    width: int,
    tau: float,
    teacher_ensemble: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The run-constant side of the objective, with every input check.

    Returns the unit support rows, the labels as checked class positions
    and the unit teacher rows (None without a teacher).
    """
    _check_tau(tau)
    v_unit = _unit_rows(images, "images")
    _check_width(v_unit, width)
    labels = _check_labels(labels, v_unit.shape[0], n_classes)
    teacher_unit = None
    if teacher_ensemble is not None:
        teacher_unit = _unit_rows(teacher_ensemble, "teacher ensemble")
        if teacher_unit.shape != (n_classes, width):
            raise DataError(
                f"teacher ensemble has shape {teacher_unit.shape}, "
                f"expected ({n_classes}, {width})"
            )
    return v_unit, labels, teacher_unit


def teacher_log_probs(v_unit: np.ndarray, teacher_unit: np.ndarray, tau: float) -> np.ndarray:
    """(B, C) teacher log-softmax of unit image rows against unit teacher rows;
    a row does not depend on the others, so a run scores its support once."""
    return _log_softmax((v_unit @ teacher_unit.T) / tau)


@dataclass(frozen=True)
class StudentScores:
    """One step's student side, computed once and read by every term."""

    text: np.ndarray       # (C, D) unit class embeddings
    v_unit: np.ndarray     # (B, D) unit image rows
    cos: np.ndarray        # (B, C) cosine similarities
    log_probs: np.ndarray  # (B, C) student log-softmax of cos / tau
    probs: np.ndarray      # (B, C) exp(log_probs), read-only
    tau: float


def student_scores(v_unit: np.ndarray, text: np.ndarray, tau: float) -> StudentScores:
    """Score unit image rows against unit class rows ``text``, as the
    class-text encoder returns them; neither is normalized again."""
    cos = v_unit @ text.T
    log_probs = _log_softmax(cos / tau)
    probs = np.exp(log_probs)
    probs.setflags(write=False)
    return StudentScores(text, v_unit, cos, log_probs, probs, tau)


@functools.cache
def _rows(n: int) -> np.ndarray:  # a batch's row index, built once per batch size
    rows = np.arange(n)
    rows.setflags(write=False)
    return rows


def _ce(log_probs: np.ndarray, labels: np.ndarray) -> float:
    # log-space path: never exponentiates before taking the log
    return -(float(np.add.reduce(log_probs[_rows(len(labels)), labels])) / len(labels))


def sccm_loss(text: np.ndarray, ensemble_mean: np.ndarray) -> float:
    """Sum over classes of ||learned embedding - mean ensemble row||^2 (no averaging)."""
    text = np.asarray(text, dtype=np.float64)
    ensemble_mean = np.asarray(ensemble_mean, dtype=np.float64)
    if text.shape != ensemble_mean.shape:
        raise DataError(
            f"shape mismatch: learned embeddings {text.shape} vs ensemble {ensemble_mean.shape}"
        )
    diff = text - ensemble_mean
    return float(np.add.reduce(diff * diff, axis=None))


def _kdsp(log_teacher: np.ndarray, log_student: np.ndarray) -> float:
    """Batch-mean KL(teacher || student); the teacher is a constant."""
    teacher = np.exp(log_teacher)
    terms = np.where(teacher > 0.0, teacher * (log_teacher - log_student), 0.0)
    # clamp away sub-ulp negatives when the distributions coincide
    return max(0.0, float(np.add.reduce(np.add.reduce(terms, axis=1))) / len(terms))


def total_loss(
    scores: StudentScores,
    labels: np.ndarray,
    ensemble_mean: np.ndarray | None,
    log_teacher: np.ndarray | None,
    lambda1: float,
    lambda2: float,
) -> LossBreakdown:
    """Composite objective of one step; ``labels`` are checked class positions.

    The ensemble and the teacher rows may be omitted only when their weight is zero.
    """
    ce = _ce(scores.log_probs, labels)
    sccm = 0.0
    if lambda1 != 0.0 or ensemble_mean is not None:
        if ensemble_mean is None:
            raise DataError("lambda1 > 0 requires the mean prompt ensemble")
        sccm = sccm_loss(scores.text, ensemble_mean)
    kdsp = 0.0
    if lambda2 != 0.0 or log_teacher is not None:
        if log_teacher is None:
            raise DataError("lambda2 > 0 requires the teacher ensemble")
        kdsp = _kdsp(log_teacher, scores.log_probs)
    return LossBreakdown.compose(ce, sccm, kdsp, lambda1, lambda2)


# ── gradients ────────────────────────────────────────────────────────
#
# For logits z_ij = (v_i . u_j) / tau with u_j = T_j / ||T_j|| and unit
# image rows v_i, the chain rule through the row normalization gives
#
#   dL/dT_j = sum_i G_ij (v_i - cos_ij u_j) / (||T_j|| tau),  ||T_j|| = 1 for unit rows
#
# where G = dL/dz. CE and KL share this path with their classic softmax
# gradients G = (P - onehot)/B and G = (P_student - P_teacher)/B.

def _chain_logits_to_text(grad_logits: np.ndarray, scores: StudentScores) -> np.ndarray:
    accum = grad_logits.T @ scores.v_unit  # (C, D)
    diag = np.add.reduce(grad_logits * scores.cos, axis=0)  # (C,)
    accum -= diag[:, None] * scores.text
    accum /= scores.tau
    return accum


def ce_grad_wrt_text(scores: StudentScores, labels: np.ndarray) -> np.ndarray:
    """d(batch-mean cross-entropy)/dT, shape (C, D)."""
    grad_logits = scores.probs.copy()
    grad_logits[_rows(len(labels)), labels] -= 1.0
    grad_logits /= grad_logits.shape[0]
    return _chain_logits_to_text(grad_logits, scores)


def sccm_grad_wrt_text(text: np.ndarray, ensemble_mean: np.ndarray) -> np.ndarray:
    return 2.0 * (np.asarray(text, dtype=np.float64) - np.asarray(ensemble_mean, dtype=np.float64))


def kdsp_grad_wrt_text(scores: StudentScores, log_teacher: np.ndarray) -> np.ndarray:
    grad_logits = scores.probs - np.exp(log_teacher)
    grad_logits /= grad_logits.shape[0]
    return _chain_logits_to_text(grad_logits, scores)


def loss_gradient(
    handle: SyntheticTextEncoder,
    s: np.ndarray,
    length: int,
    class_names: list[str],
    v_unit: np.ndarray,
    labels: np.ndarray,
    ensemble_mean: np.ndarray | None,
    log_teacher: np.ndarray | None,
    lambda1: float,
    lambda2: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown plus the exact gradient ``h`` of the total w.r.t. ``s``,
    the projected sum of a context of ``length`` rows; every context row's
    gradient is ``Pᵀh``.

    ``v_unit`` and ``labels`` are a batch's rows of what ``prepare_support``
    returns, and ``log_teacher`` the same rows of ``teacher_log_probs`` over
    the support. Terms with a zero weight are skipped entirely, so a
    lambda1=lambda2=0 call follows the exact same arithmetic as a CE-only
    objective.
    """
    text, tape = encode_text_with_context(handle, s, length, class_names)
    scores = student_scores(v_unit, text, handle.tau)
    breakdown = total_loss(scores, labels, ensemble_mean, log_teacher, lambda1, lambda2)
    grad_text = ce_grad_wrt_text(scores, labels)
    if lambda1 != 0.0:
        grad_text += lambda1 * sccm_grad_wrt_text(text, ensemble_mean)
    if lambda2 != 0.0:
        grad_text += lambda2 * kdsp_grad_wrt_text(scores, log_teacher)
    return breakdown, tape.vjp(grad_text)
