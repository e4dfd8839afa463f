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

Evaluation needs only each row's argmax, which ``cosine_predictions`` takes
mostly from a float32 screen: per block of rows, one float32 product
s_j = fl32(v32·t32_j) of the unnormalized row against the float32 unit class
rows, and the row's float32 sum of squares q. Nothing is divided. The screen
keeps a row's argmax in a range of classes only where its top-two gap there
exceeds 2E, E a bound on how far any s_j lies from the order that the
float64 logits z_j of ``cosine_logits`` give. With u = 2⁻²⁴, K the width,
γ_K = K·u/(1−K·u), v the input row (norm N), v32 its float32 copy (norm n)
and û_j the float64 unit class row, c_j = v·û_j is the exact dot, and

  |s_j − v32·t32_j| ≤ γ_K·n·‖t32_j‖ + K·2⁻¹⁴⁹   the float32 dot, in any
                                                 summation order, with or
                                                 without FMA; the absolute
                                                 term is for subnormal products
  |v·(t32_j − û_j)| ≤ u·N                       rounding û_j to float32
  |(v32 − v)·t32_j| ≤ u·N·‖t32_j‖               rounding a row that is not
                                                 float32 (zero for float32)
  |z_j·τ·r − c_j|   ≤ γ'_{K+2}·N·‖û_j‖ + τ·r·2⁻¹⁰⁷⁵   the float64 path, r its
                                                 row norm and γ' the float64
                                                 γ; the last term is a
                                                 subnormal quotient

Since ‖t32_j‖ ≤ 1 + 2u, the float32 norm gives n, N ≤ B = √q·(1 + 2γ_K + 2u)
(its error ≤ γ_K·n² + K·2⁻¹⁴⁹), and r ≤ B. A row is screened only when
2⁻¹⁰⁰ ≤ q < ∞, so B ≥ 2⁻⁵⁰: for K < 2²⁰ the absolute terms together, and
the float64 path's γ'_{K+2}·N·‖û_j‖, are each below u·B. So

  E = B·(γ_K·(1 + 2u) + 3u + [u if not float32] + τ·2⁻¹⁰⁷⁴),

the 3u for rounding û_j, the absolute terms and the float64 path.
If s_a − s_j > 2E then c_a − c_j > 2·(the float64 error), so z_a > z_j:
the screened argmax is the float64 argmax, with no tie for the lowest index
to break. A factor 1 + 4u covers the rounding of the gap and of E.

Every other row (a zero, non-finite or underflowing q, a NaN gap, a gap of
at most 2E) is scored by one ``cosine_logits`` call. A float64 GEMM's bits
may depend on how many rows it multiplies, so where that call's top-two gap
is within 16·(K+3)·2⁻⁵³/τ + 2⁻¹⁰⁷⁰ (four times the float64 error, for two
differently rounded results, with room to spare), the row is scored again
with the ``BLOCK_ROWS`` slice of the selection that ``cosine_logits`` over
the whole selection would give it: the same GEMM shape, so the same bits,
and exact ties go to the lowest index as ``predict`` sends them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .backbone import SyntheticTextEncoder, encode_text_with_context
from .errors import DataError
from .types import BLOCK_ROWS, normalize_rows, row_blocks


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


_U32 = 2.0**-24
# below this float32 sum of squares a row is not screened (see the module docstring)
_SQUARES_FLOOR = 2.0**-100


def _screen_threshold(width: int, tau: float, rounded: bool) -> float:
    """2E/√q with its 1 + 4u margin: a screened top-two gap above this times
    √q fixes the row's float64 argmax (module docstring). Infinite, so that
    nothing is trusted, outside the bound's range of width and tau."""
    if width >= 2**20 or not tau >= 2.0**-1000:
        return math.inf
    gamma = width * _U32 / (1 - width * _U32)
    rel = gamma * (1 + 2 * _U32) + 3 * _U32 + (_U32 if rounded else 0.0) + tau * 2.0**-1074
    return 2 * rel * (1 + 2 * gamma + 2 * _U32) * (1 + 4 * _U32)


def _top_gap(scores: np.ndarray) -> np.ndarray:
    """Per row, the largest score less the second largest (NaN-propagating)."""
    top = np.partition(scores, -2, axis=1)
    return top[:, -1] - top[:, -2]


def cosine_predictions(images: np.ndarray, text: np.ndarray, tau: float, ranges,
                       names: list | None = None,
                       positions: np.ndarray | None = None) -> list[np.ndarray]:
    """For each ``(first, stop)`` of ``ranges``, exactly
    ``predict(cosine_logits(images, text, tau, names, positions)[:, first:stop])``,
    ties to the lowest index included (an empty selection gives empty arrays),
    with the same errors. Most rows are decided by a float32 screen without
    normalizing; only the rest get float64 logits (see the module docstring)."""
    _check_tau(tau)
    t_unit = _unit_rows(text, "class embeddings")
    images = np.asarray(images)
    _check_width(images, t_unit.shape[1])
    n = images.shape[0] if positions is None else len(positions)
    t32 = t_unit.astype(np.float32)
    threshold = _screen_threshold(t_unit.shape[1], tau, images.dtype != np.float32)
    predictions = [np.empty(n, dtype=np.intp) for _ in ranges]
    trusted = [np.empty(n, dtype=bool) for _ in ranges]
    # a float32 overflow only sends its row to the float64 path
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, BLOCK_ROWS):
            span = slice(start, min(start + BLOCK_ROWS, n))
            # a view of float32 rows without positions; else one gathered copy
            block = images[span if positions is None else positions[span]]
            block = block.astype(np.float32, copy=False)
            scores = block @ t32.T
            squares = np.einsum("ij,ij->i", block, block)
            # NaN, infinite and underflowing sums of squares are never screened
            limit = np.where((squares >= _SQUARES_FLOOR) & (squares < np.inf),
                             threshold * np.sqrt(squares, dtype=np.float64), np.inf)
            for (first, stop), pred, ok in zip(ranges, predictions, trusted):
                part = scores[:, first:stop]
                pred[span] = np.argmax(part, axis=1)
                gap = _top_gap(part) if stop - first > 1 else np.inf
                ok[span] = gap > limit
    rows = np.flatnonzero(~np.logical_and.reduce(trusted))  # in selection order
    if not rows.size:
        return predictions

    def selected(at: np.ndarray):  # names and positions of the selection rows ``at``
        return (at.tolist() if names is None else [names[i] for i in at],
                at if positions is None else positions[at])

    logits = cosine_logits(images, text, tau, *selected(rows))
    # float64 near-ties: scored again with their own block of the selection
    tie = 16 * (t_unit.shape[1] + 3) * 2.0**-53 / tau + 2.0**-1070
    redo = [~ok[rows] for ok in trusted]
    near = np.zeros(len(rows), dtype=bool)
    for (first, stop), mask in zip(ranges, redo):
        if stop - first > 1:
            near |= mask & ~(_top_gap(logits[:, first:stop]) > tie)
    # a set, not np.unique, whose first call imports numpy.ma
    for start in sorted({row // BLOCK_ROWS * BLOCK_ROWS for row in rows[near].tolist()}):
        end = min(start + BLOCK_ROWS, n)
        exact = cosine_logits(images, text, tau, *selected(np.arange(start, end)))
        here = near & (rows >= start) & (rows < end)
        logits[here] = exact[rows[here] - start]
    for (first, stop), pred, mask in zip(ranges, predictions, redo):
        pred[rows[mask]] = np.argmax(logits[mask, first:stop], axis=1)
    return predictions


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
