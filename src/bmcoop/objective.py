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
                 ensemble (neither changes during a run); a step indexes
                 its batch rows out of the support
  once per step  one class-text encode, one normalization of the class
                 embeddings, one (B, C) cosine block and one student
                 log-softmax, held in a ``StudentScores`` that every loss
                 and gradient term reads, and one (B, C) teacher
                 log-softmax

The teacher log-softmax stays per step on purpose: a (B, D) x (D, C)
product is computed by BLAS kernels chosen by the row count, so scoring
the whole support at once rounds some teacher logits differently from
the batch product and would change the bits of every artifact.

Gradients with respect to the context are exact and hand-written: each
loss is differentiated to dLoss/dTextEmbedding and chained through the
encoder's one tape over all classes. The teacher ensemble and all bank embeddings
contribute zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import ContextVectors, SyntheticTextEncoder, encode_text_with_context
from .errors import DataError
from .types import normalize_rows


@dataclass
class LossBreakdown:
    ce: float
    sccm: float
    kdsp: float
    total: float

    @classmethod
    def compose(cls, ce: float, sccm: float, kdsp: float, lambda1: float, lambda2: float):
        return cls(ce=ce, sccm=sccm, kdsp=kdsp, total=ce + lambda1 * sccm + lambda2 * kdsp)


def _unit_rows(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit-row float64 copy of ``matrix`` and the row norms."""
    matrix = np.asarray(matrix, dtype=np.float64)
    # written only by the division, so the copy is not resident while the norms are taken
    unit = np.empty_like(matrix)
    return unit, normalize_rows(matrix, what, out=unit)


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise DataError(f"tau must be > 0, got {tau}")


def _check_width(images: np.ndarray, width: int) -> None:
    if images.shape[1] != width:
        raise DataError(
            f"image width {images.shape[1]} does not match class-embedding width {width}"
        )


def cosine_logits(images: np.ndarray, text: np.ndarray, tau: float) -> np.ndarray:
    """(B, C) matrix of cos(text_j, image_i) / tau with explicit normalization."""
    _check_tau(tau)
    v_unit, _ = _unit_rows(images, "images")
    t_unit, _ = _unit_rows(text, "class embeddings")
    _check_width(v_unit, t_unit.shape[1])
    return (v_unit @ t_unit.T) / tau


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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
    and the unit teacher rows (None without a teacher). A step passes its
    batch rows of the first two, and the teacher rows, to ``loss_gradient``.
    """
    _check_tau(tau)
    v_unit, _ = _unit_rows(images, "images")
    _check_width(v_unit, width)
    labels = _check_labels(labels, v_unit.shape[0], n_classes)
    teacher_unit = None
    if teacher_ensemble is not None:
        teacher_unit, _ = _unit_rows(teacher_ensemble, "teacher ensemble")
        if teacher_unit.shape != (n_classes, width):
            raise DataError(
                f"teacher ensemble has shape {teacher_unit.shape}, "
                f"expected ({n_classes}, {width})"
            )
    return v_unit, labels, teacher_unit


def teacher_log_probs(v_unit: np.ndarray, teacher_unit: np.ndarray, tau: float) -> np.ndarray:
    """(B, C) teacher log-softmax of unit image rows against unit teacher rows."""
    return _log_softmax((v_unit @ teacher_unit.T) / tau)


@dataclass(frozen=True)
class StudentScores:
    """One step's student side, computed once and read by every term."""

    text: np.ndarray       # (C, D) class embeddings as encoded
    v_unit: np.ndarray     # (B, D) unit image rows
    t_unit: np.ndarray     # (C, D) unit class embeddings
    t_norms: np.ndarray    # (C,) norms of the ``text`` rows
    cos: np.ndarray        # (B, C) cosine similarities
    log_probs: np.ndarray  # (B, C) student log-softmax of cos / tau
    tau: float


def student_scores(v_unit: np.ndarray, text: np.ndarray, tau: float) -> StudentScores:
    """Score unit image rows against the class embeddings ``text``."""
    t_unit, t_norms = _unit_rows(text, "class embeddings")
    cos = v_unit @ t_unit.T
    return StudentScores(text, v_unit, t_unit, t_norms, cos, _log_softmax(cos / tau), tau)


def _ce(log_probs: np.ndarray, labels: np.ndarray) -> float:
    # log-space path: never exponentiates before taking the log
    return float(-np.mean(log_probs[np.arange(len(labels)), labels]))


def sccm_loss(text: np.ndarray, ensemble_mean: np.ndarray) -> float:
    """Sum over classes of ||learned embedding - mean ensemble row||^2 (no averaging)."""
    text = np.asarray(text, dtype=np.float64)
    ensemble_mean = np.asarray(ensemble_mean, dtype=np.float64)
    if text.shape != ensemble_mean.shape:
        raise DataError(
            f"shape mismatch: learned embeddings {text.shape} vs ensemble {ensemble_mean.shape}"
        )
    diff = text - ensemble_mean
    return float(np.sum(diff * diff))


def _kdsp(log_teacher: np.ndarray, log_student: np.ndarray) -> float:
    """Batch-mean KL(teacher || student); the teacher is a constant."""
    teacher = np.exp(log_teacher)
    terms = np.where(teacher > 0.0, teacher * (log_teacher - log_student), 0.0)
    # clamp away sub-ulp negatives when the distributions coincide
    return max(0.0, float(np.mean(terms.sum(axis=1))))


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
#   dL/dT_j = sum_i G_ij (v_i - cos_ij u_j) / (||T_j|| tau)
#
# where G = dL/dz. CE and KL share this path with their classic softmax
# gradients G = (P - onehot)/B and G = (P_student - P_teacher)/B.

def _chain_logits_to_text(grad_logits: np.ndarray, scores: StudentScores) -> np.ndarray:
    accum = grad_logits.T @ scores.v_unit  # (C, D)
    diag = (grad_logits * scores.cos).sum(axis=0)  # (C,)
    return (accum - diag[:, None] * scores.t_unit) / (scores.t_norms[:, None] * scores.tau)


def ce_grad_wrt_text(scores: StudentScores, labels: np.ndarray) -> np.ndarray:
    """d(batch-mean cross-entropy)/dT, shape (C, D)."""
    grad_logits = np.exp(scores.log_probs)
    grad_logits[np.arange(len(labels)), labels] -= 1.0
    grad_logits /= grad_logits.shape[0]
    return _chain_logits_to_text(grad_logits, scores)


def sccm_grad_wrt_text(text: np.ndarray, ensemble_mean: np.ndarray) -> np.ndarray:
    return 2.0 * (np.asarray(text, dtype=np.float64) - np.asarray(ensemble_mean, dtype=np.float64))


def kdsp_grad_wrt_text(scores: StudentScores, log_teacher: np.ndarray) -> np.ndarray:
    student = np.exp(scores.log_probs)
    grad_logits = (student - np.exp(log_teacher)) / student.shape[0]
    return _chain_logits_to_text(grad_logits, scores)


def loss_gradient(
    handle: SyntheticTextEncoder,
    ctx: ContextVectors,
    class_names: list[str],
    v_unit: np.ndarray,
    labels: np.ndarray,
    ensemble_mean: np.ndarray | None,
    teacher_unit: np.ndarray | None,
    lambda1: float,
    lambda2: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown plus the exact gradient of the total w.r.t. the context.

    ``v_unit`` and ``labels`` are a batch's rows, and ``teacher_unit`` the
    teacher rows, of what ``prepare_support`` returns. Terms with a zero
    weight are skipped entirely, so a lambda1=lambda2=0 call follows the
    exact same arithmetic as a CE-only objective.
    """
    text, tape = encode_text_with_context(handle, ctx, class_names)
    scores = student_scores(v_unit, text, handle.tau)
    log_teacher = None
    if teacher_unit is not None:
        log_teacher = teacher_log_probs(v_unit, teacher_unit, handle.tau)
    breakdown = total_loss(scores, labels, ensemble_mean, log_teacher, lambda1, lambda2)
    grad_text = ce_grad_wrt_text(scores, labels)
    if lambda1 != 0.0:
        grad_text = grad_text + lambda1 * sccm_grad_wrt_text(text, ensemble_mean)
    if lambda2 != 0.0:
        grad_text = grad_text + lambda2 * kdsp_grad_wrt_text(scores, log_teacher)
    return breakdown, tape.vjp(grad_text)
