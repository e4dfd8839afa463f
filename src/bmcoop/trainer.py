"""Few-shot support sampling, the SGD loop over the context, and checkpoints.

Everything here is deterministic under (seed, config, inputs): shuffling
uses a dedicated PCG64 generator whose state travels inside checkpoints,
and the context is rounded to float32 after every update so the float32
checkpoint payload round-trips bit-exactly and a resumed run retraces an
uninterrupted one. A checkpoint is the context in the binary layout of
``io`` with the epoch and the generator state as its trailer. A loss or a
context that stops being finite ends the run with a ``NumericError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import SyntheticTextEncoder, encode_text_with_context, init_context
from .ensemble import PromptScoreReport, mean_ensemble, score_and_select, selected_ensemble
from .errors import DataError, NumericError
from .io import read_binary, write_binary, write_text
from .objective import (
    LossBreakdown,
    class_probabilities,
    loss_gradient,
    predict,
    prepare_support,
)
from .types import ClassCatalog, DatasetManifest, RunConfig, check_finite

CKPT_MAGIC = b"BMCCKPT1"
CKPT_VERSION = 1


def sample_few_shot(
    manifest: DatasetManifest,
    catalog: ClassCatalog,
    shots: int,
    seed: int,
    keep: slice = slice(None),
) -> tuple[list[str], np.ndarray]:
    """Draw K train items per class without replacement, deterministic under
    (seed, manifest order): the item ids in class-major order and their
    (C*K,) labels.

    ``keep`` restricts sampling to a slice of the catalog (e.g. the base
    classes); labels are positions within that slice.
    """
    if shots <= 0:
        raise DataError(f"shots must be positive, got {shots}")
    names = catalog.names
    train = manifest.in_split("train")
    rng = np.random.default_rng(seed)
    item_ids: list[str] = []
    classes = range(len(names))[keep]
    for c in classes:
        pool = np.flatnonzero(train & (manifest.labels == c))
        if pool.size < shots:
            raise DataError(
                f"class {names[c]!r} has only {pool.size} train items, need {shots}"
            )
        picked = pool[rng.choice(pool.size, size=shots, replace=False)]
        item_ids.extend(manifest.item_ids[i] for i in picked)
    labels = np.repeat(np.arange(len(classes), dtype=np.intp), shots)
    return item_ids, labels


@dataclass
class TrainState:
    """Mutable training state: the learnable context, the next epoch, the shuffle RNG."""

    ctx: np.ndarray  # (M, d_tok) float64
    epoch: int
    rng: np.random.Generator


@dataclass
class EpochLog:
    epoch: int
    breakdown: LossBreakdown
    train_acc: float

    def line(self) -> str:
        b = self.breakdown
        return (
            f"{self.epoch}\t{b.ce:.10g}\t{b.sccm:.10g}\t{b.kdsp:.10g}"
            f"\t{b.total:.10g}\t{self.train_acc:.10g}"
        )


def _round_f32(vectors: np.ndarray) -> np.ndarray:
    # trainer storage precision: keep every value exactly float32-representable
    return vectors.astype(np.float32).astype(np.float64)


def initial_state(handle: SyntheticTextEncoder, config: RunConfig) -> TrainState:
    ctx = _round_f32(init_context(handle, config.context_init_text, config.context_length))
    return TrainState(ctx=ctx, epoch=0, rng=np.random.default_rng(config.seed))


def prepare_ensembles(
    class_names: list[str],
    bank_embeddings: np.ndarray,
    support_images: np.ndarray,
    config: RunConfig,
) -> tuple[np.ndarray, np.ndarray, list[PromptScoreReport]]:
    """Fixed run ensembles: full-bank mean for the consistency loss, and the
    outlier-pruned mean over the whole support pool for the teacher.

    Pruning applies only to the teacher; the consistency target always uses
    every prompt.
    """
    full_mean = mean_ensemble(bank_embeddings)
    reports = score_and_select(
        class_names, bank_embeddings, support_images, config.beta, config.zeta_s
    )
    teacher = selected_ensemble(bank_embeddings, [r.selected_mask for r in reports])
    return full_mean, teacher, reports


def train_run(
    images: np.ndarray,
    labels: np.ndarray,
    class_names: list[str],
    handle: SyntheticTextEncoder,
    config: RunConfig,
    ensemble_mean: np.ndarray | None = None,
    teacher_ensemble: np.ndarray | None = None,
    state: TrainState | None = None,
) -> tuple[TrainState, list[EpochLog]]:
    """Mini-batch SGD over the shuffled support rows ``images`` (N, D), with
    their class positions ``labels`` (N,), for the configured epochs.

    Passing a ``state`` (fresh or loaded from a checkpoint) resumes at
    ``state.epoch``; the returned logs cover only the epochs run here.
    Malformed support rows, labels or teacher rows, and a non-positive
    tau, raise a ``DataError`` before the first step; a non-finite loss or
    context raises a ``NumericError`` carrying the last step's state.
    """
    if state is None:
        state = initial_state(handle, config)
    if state.ctx.shape[1] != handle.token_width:
        raise DataError(
            f"checkpoint context width {state.ctx.shape[1]} does not match "
            f"handle width {handle.token_width}"
        )

    v_unit, labels, teacher_unit = prepare_support(
        images, labels, len(class_names), handle.embedding_dim, handle.tau, teacher_ensemble,
    )
    n = v_unit.shape[0]
    logs: list[EpochLog] = []

    for epoch in range(state.epoch, config.epochs):
        order = state.rng.permutation(n)
        sums = np.zeros(3)  # sample-weighted ce / sccm / kdsp
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            breakdown, grad = loss_gradient(
                handle, state.ctx, class_names,
                v_unit[batch], labels[batch],
                ensemble_mean, teacher_unit,
                config.lambda1, config.lambda2,
            )
            if not np.isfinite(breakdown.total):
                raise _numeric_abort("loss", epoch, start, breakdown, state.ctx, grad)
            state.ctx = _round_f32(state.ctx - config.learning_rate * grad)
            sums += len(batch) * np.array([breakdown.ce, breakdown.sccm, breakdown.kdsp])
        # a step that overflows the float32 context is seen by the next loss,
        # except on the epoch's last step
        if not np.isfinite(state.ctx).all():
            raise _numeric_abort("context", epoch, start, breakdown, state.ctx, grad)
        means = sums / n
        epoch_breakdown = LossBreakdown.compose(
            means[0], means[1], means[2], config.lambda1, config.lambda2
        )
        train_acc = _accuracy_with_context(
            handle, state.ctx, class_names, images, labels
        )
        state.epoch = epoch + 1
        logs.append(EpochLog(epoch=epoch, breakdown=epoch_breakdown, train_acc=train_acc))
    return state, logs


def _numeric_abort(
    what: str, epoch: int, start: int, breakdown: LossBreakdown, ctx: np.ndarray, grad: np.ndarray
) -> NumericError:
    return NumericError(
        f"non-finite {what} at epoch {epoch}",
        state={
            "epoch": epoch,
            "batch_start": int(start),
            "ce": breakdown.ce,
            "sccm": breakdown.sccm,
            "kdsp": breakdown.kdsp,
            "ctx_norm": float(np.linalg.norm(ctx)),
            # every context row carries the gradient row ``grad``
            "grad_norm": float(np.sqrt(len(ctx)) * np.linalg.norm(grad)),
        },
    )


def _accuracy_with_context(
    handle: SyntheticTextEncoder,
    ctx: np.ndarray,
    class_names: list[str],
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    text, _ = encode_text_with_context(handle, ctx, class_names)
    probs = class_probabilities(images, text, handle.tau)
    return float(np.mean(predict(probs) == labels))


def write_training_log(logs: list[EpochLog], path: str | Path) -> None:
    write_text(path, "".join(log.line() + "\n" for log in logs))


# ── checkpoints ──────────────────────────────────────────────────────

def _pack_rng_state(rng: np.random.Generator) -> bytes:
    s = rng.bit_generator.state
    if s.get("bit_generator") != "PCG64":
        raise DataError(f"unsupported generator {s.get('bit_generator')!r}")
    return (
        s["state"]["state"].to_bytes(16, "little")
        + s["state"]["inc"].to_bytes(16, "little")
        + struct.pack("<II", int(s["has_uint32"]), int(s["uinteger"]))
    )


def _unpack_rng_state(blob: bytes) -> np.random.Generator:
    if len(blob) != 40:
        raise DataError(f"rng state blob must be 40 bytes, got {len(blob)}")
    has_uint32, uinteger = struct.unpack("<II", blob[32:40])
    if has_uint32 not in (0, 1):
        raise DataError(f"rng state flag must be 0 or 1, got {has_uint32}")
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(blob[:16], "little"),
            "inc": int.from_bytes(blob[16:32], "little"),
        },
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return rng


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    """Write the context in the binary layout under a (version, rows, width)
    header, with a trailer of u32 epoch, u32 RNG state length, RNG state."""
    rng_blob = _pack_rng_state(state.rng)
    trailer = struct.pack("<II", state.epoch, len(rng_blob)) + rng_blob
    write_binary(path, CKPT_MAGIC, (CKPT_VERSION,), state.ctx, trailer)


def load_checkpoint(path: str | Path) -> TrainState:
    (version,), ctx32, trailer = read_binary(path, CKPT_MAGIC, "a checkpoint", 1)
    if version != CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if len(ctx32) == 0:
        raise DataError(f"{path}: checkpoint context has 0 rows")
    ctx = ctx32.astype(np.float64)
    check_finite(ctx, f"{path}: checkpoint context")
    if len(trailer) < 8:
        raise DataError(f"{path}: truncated checkpoint trailer")
    epoch, rng_len = struct.unpack_from("<II", trailer)
    if len(trailer) != 8 + rng_len:
        raise DataError(f"{path}: trailing or missing rng state bytes")
    return TrainState(ctx=ctx, epoch=epoch, rng=_unpack_rng_state(trailer[8:]))
