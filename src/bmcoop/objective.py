"""Classification head and the composite training objective.

Three terms, combined as  total = ce + lambda1 * consistency + lambda2 * distill:

  ce           cross-entropy of the image-vs-learned-prompt softmax
  sccm         sum over classes of the squared L2 distance between the
               learned class embedding and the mean generated-prompt
               ensemble (semantic consistency)
  kdsp         batch-mean KL divergence from the teacher distribution
               (images vs the outlier-pruned ensemble, held constant) to
               the student distribution (images vs learned prompts)

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


@dataclass
class LossBreakdown:
    ce: float
    sccm: float
    kdsp: float
    lambda1: float
    lambda2: float
    total: float

    @classmethod
    def compose(cls, ce: float, sccm: float, kdsp: float, lambda1: float, lambda2: float):
        return cls(
            ce=ce, sccm=sccm, kdsp=kdsp,
            lambda1=lambda1, lambda2=lambda2,
            total=ce + lambda1 * sccm + lambda2 * kdsp,
        )

    def log_fields(self) -> tuple[float, float, float, float]:
        return self.ce, self.sccm, self.kdsp, self.total


def _unit_rows(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Normalize rows, rejecting zero-norm rows (cosine undefined)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise DataError(f"zero-norm row in {what}: cosine similarity undefined")
    return matrix / norms[:, None], norms


def cosine_logits(images: np.ndarray, text: np.ndarray, tau: float) -> np.ndarray:
    """(B, C) matrix of cos(text_j, image_i) / tau with explicit normalization."""
    if tau <= 0:
        raise DataError(f"tau must be > 0, got {tau}")
    v_unit, _ = _unit_rows(images, "images")
    t_unit, _ = _unit_rows(text, "class embeddings")
    if v_unit.shape[1] != t_unit.shape[1]:
        raise DataError(
            f"image width {v_unit.shape[1]} does not match class-embedding width {t_unit.shape[1]}"
        )
    return (v_unit @ t_unit.T) / tau


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def class_probabilities(images: np.ndarray, text: np.ndarray, tau: float) -> np.ndarray:
    """Per-image softmax over classes of the temperature-scaled cosine logits."""
    return np.exp(_log_softmax(cosine_logits(images, text, tau)))


def predict(probabilities: np.ndarray) -> np.ndarray:
    """Index of the most probable class per row; ties go to the lowest index."""
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


def _ce_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    # log-space path: never exponentiates before taking the log
    log_probs = _log_softmax(logits)
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
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


def _kl_rows(log_teacher: np.ndarray, log_student: np.ndarray) -> np.ndarray:
    teacher = np.exp(log_teacher)
    terms = np.where(teacher > 0.0, teacher * (log_teacher - log_student), 0.0)
    return terms.sum(axis=1)


def kdsp_loss(
    images: np.ndarray,
    text: np.ndarray,
    teacher_ensemble: np.ndarray,
    tau: float,
) -> float:
    """Batch-mean KL(teacher || student); the teacher is a constant."""
    log_teacher = _log_softmax(cosine_logits(images, teacher_ensemble, tau))
    log_student = _log_softmax(cosine_logits(images, text, tau))
    # clamp away sub-ulp negatives when the distributions coincide
    return max(0.0, float(np.mean(_kl_rows(log_teacher, log_student))))


def total_loss(
    images: np.ndarray,
    labels: np.ndarray,
    text: np.ndarray,
    ensemble_mean: np.ndarray | None,
    teacher_ensemble: np.ndarray | None,
    tau: float,
    lambda1: float,
    lambda2: float,
) -> LossBreakdown:
    """Composite objective. Ensembles may be omitted only when their weight is zero."""
    logits = cosine_logits(images, text, tau)
    ce = _ce_from_logits(logits, labels)
    sccm = 0.0
    if lambda1 != 0.0 or ensemble_mean is not None:
        if ensemble_mean is None:
            raise DataError("lambda1 > 0 requires the mean prompt ensemble")
        sccm = sccm_loss(text, ensemble_mean)
    kdsp = 0.0
    if lambda2 != 0.0 or teacher_ensemble is not None:
        if teacher_ensemble is None:
            raise DataError("lambda2 > 0 requires the teacher ensemble")
        kdsp = kdsp_loss(images, text, teacher_ensemble, tau)
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

def _chain_logits_to_text(
    grad_logits: np.ndarray,
    v_unit: np.ndarray,
    text: np.ndarray,
    tau: float,
) -> np.ndarray:
    t_unit, t_norms = _unit_rows(text, "class embeddings")
    cos = v_unit @ t_unit.T  # (B, C)
    accum = grad_logits.T @ v_unit  # (C, D)
    diag = (grad_logits * cos).sum(axis=0)  # (C,)
    return (accum - diag[:, None] * t_unit) / (t_norms[:, None] * tau)


def ce_grad_wrt_text(
    images: np.ndarray,
    text: np.ndarray,
    labels: np.ndarray,
    tau: float,
) -> np.ndarray:
    """d(batch-mean cross-entropy)/dT, shape (C, D)."""
    v_unit, _ = _unit_rows(images, "images")
    logits = cosine_logits(images, text, tau)
    probs = np.exp(_log_softmax(logits))
    labels = _check_labels(labels, probs.shape[0], probs.shape[1])
    grad_logits = probs.copy()
    grad_logits[np.arange(len(labels)), labels] -= 1.0
    grad_logits /= probs.shape[0]
    return _chain_logits_to_text(grad_logits, v_unit, text, tau)


def sccm_grad_wrt_text(text: np.ndarray, ensemble_mean: np.ndarray) -> np.ndarray:
    return 2.0 * (np.asarray(text, dtype=np.float64) - np.asarray(ensemble_mean, dtype=np.float64))


def kdsp_grad_wrt_text(
    images: np.ndarray,
    text: np.ndarray,
    teacher_ensemble: np.ndarray,
    tau: float,
) -> np.ndarray:
    v_unit, _ = _unit_rows(images, "images")
    student = np.exp(_log_softmax(cosine_logits(images, text, tau)))
    teacher = np.exp(_log_softmax(cosine_logits(images, teacher_ensemble, tau)))
    grad_logits = (student - teacher) / student.shape[0]
    return _chain_logits_to_text(grad_logits, v_unit, text, tau)


def loss_gradient(
    handle: SyntheticTextEncoder,
    ctx: ContextVectors,
    class_names: list[str],
    images: np.ndarray,
    labels: np.ndarray,
    ensemble_mean: np.ndarray | None,
    teacher_ensemble: np.ndarray | None,
    lambda1: float,
    lambda2: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown plus the exact gradient of the total w.r.t. the context.

    Terms with a zero weight are skipped entirely, so a lambda1=lambda2=0
    call follows the exact same arithmetic as a CE-only objective.
    """
    text, tape = encode_text_with_context(handle, ctx, class_names)
    breakdown = total_loss(
        images, labels, text, ensemble_mean, teacher_ensemble,
        handle.tau, lambda1, lambda2,
    )
    grad_text = ce_grad_wrt_text(images, text, labels, handle.tau)
    if lambda1 != 0.0:
        grad_text = grad_text + lambda1 * sccm_grad_wrt_text(text, ensemble_mean)
    if lambda2 != 0.0:
        grad_text = grad_text + lambda2 * kdsp_grad_wrt_text(
            images, text, teacher_ensemble, handle.tau
        )
    return breakdown, tape.vjp(grad_text)
