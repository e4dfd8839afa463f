"""Shared fixtures: small encoders and the pinned desk-scale synthetic task."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from bmcoop.backbone import (
    SyntheticTextEncoder,
    encode_text_with_context,
    init_context,
    project_context,
)
from bmcoop.objective import LossBreakdown
from bmcoop.types import RunConfig

DESK_NAMES = ["glioma tumor", "meningioma tumor", "normal brain"]
DESK_DIM = 32
DESK_WIDTH = 64
DESK_ENCODER_SEED = 2
DESK_DATA_SEED = 102
DESK_MIX = 0.6  # cross-class mixing: degrades zero-shot margins, keeps the task solvable


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    """``n`` random unit rows of width ``d``."""
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@dataclass
class DeskTask:
    """3-class separable task with mutually orthogonal class centroids."""

    handle: SyntheticTextEncoder
    centroids: np.ndarray  # (3, D) orthonormal rows
    names: list[str]

    def sample(self, per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit-norm images around each centroid: centroid + N(0, 0.1^2) noise."""
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(len(self.names)), per_class)
        feats = self.centroids[labels] + 0.1 * rng.standard_normal(
            (labels.size, self.centroids.shape[1])
        )
        return feats / np.linalg.norm(feats, axis=1, keepdims=True), labels

    def aligned_bank(self, n: int = 50, sigma: float = 0.15, seed: int = 77) -> list[np.ndarray]:
        """Per-class prompt embeddings clustered around the class centroid."""
        rng = np.random.default_rng(seed)
        out = []
        for c in range(len(self.names)):
            rows = self.centroids[c] + sigma * rng.standard_normal((n, self.centroids.shape[1]))
            out.append(rows / np.linalg.norm(rows, axis=1, keepdims=True))
        return out

    def config(self, **overrides) -> RunConfig:
        base = dict(
            lambda1=0.0, lambda2=0.0, seed=1,
            embedding_dim=DESK_DIM, token_width=DESK_WIDTH,
            encoder_seed=DESK_ENCODER_SEED,
        )
        base.update(overrides)
        return RunConfig(**base)


def build_desk_task(
    encoder_seed: int = DESK_ENCODER_SEED,
    data_seed: int = DESK_DATA_SEED,
    mix: float = DESK_MIX,
) -> DeskTask:
    """Place orthonormal image centroids near directions the context can reach.

    Targets are built from the class-name text directions plus a random
    shared offset, with a cross-class mixing term so the template context
    starts imperfect; Gram-Schmidt then makes the centroids exactly
    mutually orthogonal.
    """
    handle = SyntheticTextEncoder(
        seed=encoder_seed, embedding_dim=DESK_DIM, token_width=DESK_WIDTH, tau=0.01
    )
    rng = np.random.default_rng(data_seed)
    name_dirs = np.stack(
        [handle.projection @ handle.token_vectors(n).sum(axis=0) for n in DESK_NAMES]
    )
    shared = rng.standard_normal(DESK_DIM)
    shared *= np.mean(np.linalg.norm(name_dirs, axis=1)) / np.linalg.norm(shared)
    targets = shared + name_dirs + mix * np.roll(name_dirs, -1, axis=0)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    centroids = []
    for t in targets:
        v = t.copy()
        for c in centroids:
            v -= (v @ c) * c
        centroids.append(v / np.linalg.norm(v))
    return DeskTask(handle=handle, centroids=np.stack(centroids), names=list(DESK_NAMES))


def encode_context(handle: SyntheticTextEncoder, ctx: np.ndarray, names: list[str]):
    """``encode_text_with_context`` of the (M, d_tok) context ``ctx``."""
    return encode_text_with_context(handle, project_context(handle, ctx), len(ctx), names)


def per_class_encode(handle: SyntheticTextEncoder, vectors: np.ndarray, name: str):
    """One class by the unbatched formula: (unit embedding, ||raw||, sequence length)."""
    name_rows = handle.token_vectors(name)
    seq_len = vectors.shape[0] + name_rows.shape[0]
    pooled = (vectors.sum(axis=0) + name_rows.sum(axis=0)) / seq_len
    raw = handle.projection @ pooled
    norm = float(np.linalg.norm(raw))
    return raw / norm, norm, seq_len


def per_prompt_encode(handle: SyntheticTextEncoder, text: str) -> np.ndarray:
    """One prompt by the unbatched formula: normalize(P @ mean(token rows))."""
    raw = handle.projection @ handle.token_vectors(text).mean(axis=0)
    return raw / np.linalg.norm(raw)


def per_class_vjp(handle, unit, norm, seq_len, g, ctx_rows):
    """dLoss/dContext of one class from its embedding gradient ``g``."""
    g_raw = (g - np.dot(g, unit) * unit) / norm
    return np.tile(handle.projection.T @ g_raw / seq_len, (ctx_rows, 1))


def per_class_encode_from_s(handle: SyntheticTextEncoder, s: np.ndarray, length: int, name: str):
    """One class from ``s = P·Σctx`` on its own, for a context of ``length``
    rows: (unit embedding, ||raw||, sequence length)."""
    tokens = handle.token_vectors(name)
    seq_len = length + tokens.shape[0]
    raw = ((s + handle.projection @ tokens.sum(axis=0)) / seq_len)[None, :]
    norm = np.linalg.norm(raw, axis=1)
    return (raw / norm[:, None])[0], norm[0], seq_len


def per_class_h(encoded, grad_text) -> np.ndarray:
    """dLoss/ds summed class by class, from each class's (unit, ||raw||,
    sequence length) and its embedding gradient."""
    h = np.zeros(grad_text.shape[1])
    for (unit, norm, seq_len), g in zip(encoded, grad_text):
        radial = np.einsum("cd,cd->c", g[None, :], unit[None, :])[0]
        h = h + (g - radial * unit) / norm / seq_len
    return h


# ── per-term oracle ──────────────────────────────────────────────────
#
# A frozen copy of the unfused objective: every term normalizes the raw
# images itself and builds its own softmaxes. The class text is the
# encoder's unit rows, scored as they are, and the teacher enters as its
# log-softmax over the whole support (``oracle_log_teacher``), scored once
# per run. The package's one-block-per-step path must match it bit for bit.

def _oracle_unit_rows(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / norms[:, None], norms


def _oracle_logits(images, unit_text, tau):
    v_unit, _ = _oracle_unit_rows(images)
    return (v_unit @ unit_text.T) / tau


def _oracle_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _oracle_chain(grad_logits, v_unit, text, tau):
    cos = v_unit @ text.T
    accum = grad_logits.T @ v_unit
    diag = (grad_logits * cos).sum(axis=0)
    return (accum - diag[:, None] * text) / tau


def oracle_log_teacher(images, teacher_ensemble, tau) -> np.ndarray:
    """Teacher log-softmax of every raw image row against the raw teacher rows."""
    return _oracle_log_softmax(_oracle_logits(images, _oracle_unit_rows(teacher_ensemble)[0], tau))


def oracle_ce_grad(images, text, labels, tau) -> np.ndarray:
    """d(batch-mean cross-entropy)/dT from raw images and unit class text."""
    v_unit, _ = _oracle_unit_rows(images)
    probs = np.exp(_oracle_log_softmax(_oracle_logits(images, text, tau)))
    grad_logits = probs.copy()
    grad_logits[np.arange(len(labels)), labels] -= 1.0
    grad_logits /= probs.shape[0]
    return _oracle_chain(grad_logits, v_unit, text, tau)


def oracle_kdsp_grad(images, text, log_teacher, tau) -> np.ndarray:
    """d(batch-mean KL(teacher || student))/dT from raw images, unit class
    text and the batch's teacher log-softmax rows."""
    v_unit, _ = _oracle_unit_rows(images)
    student = np.exp(_oracle_log_softmax(_oracle_logits(images, text, tau)))
    return _oracle_chain((student - np.exp(log_teacher)) / student.shape[0], v_unit, text, tau)


def oracle_total_loss(images, labels, text, ensemble_mean, log_teacher, tau, lambda1, lambda2):
    """The composite loss, each term from raw images, unit text and the teacher rows."""
    log_probs = _oracle_log_softmax(_oracle_logits(images, text, tau))
    ce = float(-np.mean(log_probs[np.arange(len(labels)), labels]))
    sccm = 0.0
    if ensemble_mean is not None:
        diff = np.asarray(text, dtype=np.float64) - ensemble_mean
        sccm = float(np.sum(diff * diff))
    kdsp = 0.0
    if log_teacher is not None:
        teacher = np.exp(log_teacher)
        terms = np.where(teacher > 0.0, teacher * (log_teacher - log_probs), 0.0)
        kdsp = max(0.0, float(np.mean(terms.sum(axis=1))))
    return LossBreakdown.compose(ce, sccm, kdsp, lambda1, lambda2)


def oracle_text_grad(images, labels, text, ensemble_mean, log_teacher, tau, lambda1, lambda2):
    """dTotal/dT summed term by term in the order ce, sccm, kdsp."""
    grad = oracle_ce_grad(images, text, labels, tau)
    if lambda1 != 0.0:
        grad = grad + lambda1 * (2.0 * (np.asarray(text, dtype=np.float64) - ensemble_mean))
    if lambda2 != 0.0:
        grad = grad + lambda2 * oracle_kdsp_grad(images, text, log_teacher, tau)
    return grad


def per_class_ce_grad(handle, vectors, names, images, labels) -> np.ndarray:
    """CE gradient w.r.t. the (M, d_tok) context ``vectors`` with one encode
    and one VJP per class."""
    encoded = [per_class_encode(handle, vectors, name) for name in names]
    text = np.stack([unit for unit, _, _ in encoded])
    grad_text = oracle_ce_grad(images, text, labels, handle.tau)
    grad = np.zeros_like(vectors)
    for (unit, norm, seq_len), g in zip(encoded, grad_text):
        grad += per_class_vjp(handle, unit, norm, seq_len, g, vectors.shape[0])
    return grad


def reference_ce_epochs(handle, cfg, names, images, labels):
    """The CE-only run as an independent loop on ``s``: per-class encodes and
    h's, then ``K·h`` with ``K = P·Pᵀ``. Yields ``s`` and the stored context
    ``ctx0 - lr·PᵀH`` (float32 values) after each epoch."""
    projection = handle.projection
    gram = projection @ projection.T
    ctx0 = init_context(handle, cfg.context_init_text, cfg.context_length)
    length = len(ctx0)
    s = projection @ ctx0.sum(axis=0)
    h_sum = np.zeros_like(s)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            encoded = [per_class_encode_from_s(handle, s, length, name) for name in names]
            text = np.stack([unit for unit, _, _ in encoded])
            h = per_class_h(encoded, oracle_ce_grad(images[batch], text, labels[batch], handle.tau))
            s = s - cfg.learning_rate * length * (gram @ h)
            h_sum = h_sum + h
        ctx = ctx0 - cfg.learning_rate * (projection.T @ h_sum)
        yield s, ctx.astype(np.float32).astype(np.float64)


def w_space_ce_context(handle, cfg, names, images, labels) -> np.ndarray:
    """The CE-only run as the float64 loop over the (M, d_tok) context itself,
    never rounded: the context after ``cfg.epochs`` epochs."""
    vectors = init_context(handle, cfg.context_init_text, cfg.context_length)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = per_class_ce_grad(handle, vectors, names, images[batch], labels[batch])
            vectors = vectors - cfg.learning_rate * grad
    return vectors


def build_planted_outlier(seed: int, n_prompts: int = 50, dim: int = 24):
    """49 prompts near a class centroid plus one orthogonal to every image.

    Returns (bank rows, images, index of the planted outlier).
    """
    rng = np.random.default_rng(seed)
    centroid = rng.standard_normal(dim)
    centroid /= np.linalg.norm(centroid)
    images = centroid + 0.05 * rng.standard_normal((8, dim))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    aligned = centroid + 0.1 * rng.standard_normal((n_prompts - 1, dim))
    aligned /= np.linalg.norm(aligned, axis=1, keepdims=True)
    basis, _ = np.linalg.qr(images.T)
    probe = rng.standard_normal(dim)
    probe -= basis @ (basis.T @ probe)
    probe /= np.linalg.norm(probe)
    bank = np.vstack([aligned, probe[None, :]])
    return bank, images, n_prompts - 1


def build_two_shell_outlier(seed: int, dim: int = 16):
    """Planted-outlier fixture where ONLY the planted prompt is an outlier.

    Aligned prompts sit on two tight similarity shells of equal size, so
    their modified z-scores stay near +/-1 while the orthogonal plant lands
    far outside the threshold.
    """
    rng = np.random.default_rng(seed)
    centroid = rng.standard_normal(dim)
    centroid /= np.linalg.norm(centroid)
    images = centroid + 0.02 * rng.standard_normal((8, dim))
    images /= np.linalg.norm(images, axis=1, keepdims=True)

    def at_angle(cos_target: float, count: int) -> np.ndarray:
        rows = []
        for _ in range(count):
            r = rng.standard_normal(dim)
            r -= (r @ centroid) * centroid
            r /= np.linalg.norm(r)
            rows.append(cos_target * centroid + np.sqrt(1 - cos_target**2) * r)
        return np.stack(rows)

    near, far = at_angle(0.95, 10), at_angle(0.85, 10)
    basis, _ = np.linalg.qr(images.T)
    probe = rng.standard_normal(dim)
    probe -= basis @ (basis.T @ probe)
    probe /= np.linalg.norm(probe)
    bank = np.vstack([near, far, probe[None, :]])
    return bank, images, bank.shape[0] - 1


@pytest.fixture(scope="session")
def desk_task() -> DeskTask:
    return build_desk_task()


@pytest.fixture
def small_handle() -> SyntheticTextEncoder:
    return SyntheticTextEncoder(seed=5, embedding_dim=12, token_width=20, tau=0.01)
