"""Few-shot support sampling, the SGD loop over the context, and checkpoints.

Everything here is deterministic under (seed, config, inputs): shuffling
uses a dedicated PCG64 generator whose state travels inside checkpoints,
and the context is rounded to float32 after every update so the float32
checkpoint payload round-trips bit-exactly and a resumed run retraces an
uninterrupted one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .backbone import (
    ContextVectors,
    SyntheticTextEncoder,
    encode_text_with_context,
    init_context,
)
from .ensemble import PromptScoreReport, mean_ensemble, score_and_select, selected_ensemble
from .errors import DataError, NumericError
from .io import write_atomic
from .objective import (
    LossBreakdown,
    class_probabilities,
    loss_gradient,
    predict,
)
from .types import ClassCatalog, DatasetManifest, RunConfig

CKPT_MAGIC = b"BMCCKPT1"
CKPT_VERSION = 1


@dataclass
class FewShotSupportSet:
    """Exactly K train items per class, sampled without replacement."""

    item_ids: list[str]          # class-major order, K per class
    labels: np.ndarray           # (C*K,) class indices
    shots: int
    seed: int
    embeddings: np.ndarray | None = None  # (C*K, D) unit rows, attached later

    def with_embeddings(self, embeddings: np.ndarray) -> "FewShotSupportSet":
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.shape[0] != len(self.item_ids):
            raise DataError(
                f"support has {len(self.item_ids)} items but got "
                f"{embeddings.shape[0]} embedding rows"
            )
        return FewShotSupportSet(
            item_ids=self.item_ids, labels=self.labels,
            shots=self.shots, seed=self.seed, embeddings=embeddings,
        )


def sample_few_shot(
    manifest: DatasetManifest,
    catalog: ClassCatalog,
    shots: int,
    seed: int,
    class_names: list[str] | None = None,
) -> FewShotSupportSet:
    """Draw K train items per class, deterministic under (seed, manifest order).

    ``class_names`` restricts sampling to a subset (e.g. base classes);
    labels still refer to positions in that list.
    """
    if shots <= 0:
        raise DataError(f"shots must be positive, got {shots}")
    names = class_names if class_names is not None else catalog.names
    rng = np.random.default_rng(seed)
    item_ids: list[str] = []
    labels: list[int] = []
    for label, name in enumerate(names):
        pool = [r.item_id for r in manifest.items(split="train", class_name=name)]
        if len(pool) < shots:
            raise DataError(
                f"class {name!r} has only {len(pool)} train items, need {shots}"
            )
        picked = rng.choice(len(pool), size=shots, replace=False)
        item_ids.extend(pool[i] for i in picked)
        labels.extend([label] * shots)
    return FewShotSupportSet(
        item_ids=item_ids, labels=np.asarray(labels, dtype=np.intp),
        shots=shots, seed=seed,
    )


@dataclass
class TrainState:
    """Mutable training state: the learnable context, the next epoch, the shuffle RNG."""

    ctx: ContextVectors
    epoch: int
    rng: np.random.Generator


@dataclass
class EpochLog:
    epoch: int
    breakdown: LossBreakdown
    train_acc: float

    def line(self) -> str:
        ce, sccm, kdsp, total = self.breakdown.log_fields()
        return (
            f"{self.epoch}\t{ce:.10g}\t{sccm:.10g}\t{kdsp:.10g}"
            f"\t{total:.10g}\t{self.train_acc:.10g}"
        )


def _round_f32(vectors: np.ndarray) -> np.ndarray:
    # trainer storage precision: keep every value exactly float32-representable
    return vectors.astype(np.float32).astype(np.float64)


def initial_state(handle: SyntheticTextEncoder, config: RunConfig) -> TrainState:
    ctx = init_context(handle, config.context_init_text, config.context_length)
    ctx.vectors = _round_f32(ctx.vectors)
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
    support: FewShotSupportSet,
    class_names: list[str],
    handle: SyntheticTextEncoder,
    config: RunConfig,
    ensemble_mean: np.ndarray | None = None,
    teacher_ensemble: np.ndarray | None = None,
    state: TrainState | None = None,
) -> tuple[TrainState, list[EpochLog]]:
    """Mini-batch SGD over the shuffled support set for the configured epochs.

    Passing a ``state`` (fresh or loaded from a checkpoint) resumes at
    ``state.epoch``; the returned logs cover only the epochs run here.
    """
    if support.embeddings is None:
        raise DataError("support set has no embeddings attached")
    if state is None:
        state = initial_state(handle, config)
    if state.ctx.token_width != handle.token_width:
        raise DataError(
            f"checkpoint context width {state.ctx.token_width} does not match "
            f"handle width {handle.token_width}"
        )

    images = support.embeddings
    labels = support.labels
    n = images.shape[0]
    logs: list[EpochLog] = []

    for epoch in range(state.epoch, config.epochs):
        order = state.rng.permutation(n)
        sums = np.zeros(3)  # sample-weighted ce / sccm / kdsp
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            breakdown, grad = loss_gradient(
                handle, state.ctx, class_names,
                images[batch], labels[batch],
                ensemble_mean, teacher_ensemble,
                config.lambda1, config.lambda2,
            )
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}",
                    state={
                        "epoch": epoch,
                        "batch_start": int(start),
                        "ce": breakdown.ce,
                        "sccm": breakdown.sccm,
                        "kdsp": breakdown.kdsp,
                        "ctx_norm": float(np.linalg.norm(state.ctx.vectors)),
                        "grad_norm": float(np.linalg.norm(grad)),
                    },
                )
            state.ctx.vectors = _round_f32(
                state.ctx.vectors - config.learning_rate * grad
            )
            sums += len(batch) * np.array([breakdown.ce, breakdown.sccm, breakdown.kdsp])
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


def _accuracy_with_context(
    handle: SyntheticTextEncoder,
    ctx: ContextVectors,
    class_names: list[str],
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    text, _ = encode_text_with_context(handle, ctx, class_names)
    probs = class_probabilities(images, text, handle.tau)
    return float(np.mean(predict(probs) == labels))


def write_training_log(logs: list[EpochLog], path: str | Path) -> None:
    Path(path).write_text("".join(log.line() + "\n" for log in logs), encoding="utf-8")


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
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int.from_bytes(blob[:16], "little"),
            "inc": int.from_bytes(blob[16:32], "little"),
        },
        "has_uint32": struct.unpack("<I", blob[32:36])[0],
        "uinteger": struct.unpack("<I", blob[36:40])[0],
    }
    return rng


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    ctx32 = np.ascontiguousarray(state.ctx.vectors, dtype="<f4")
    rows, width = ctx32.shape
    rng_blob = _pack_rng_state(state.rng)

    def write(fh: BinaryIO) -> None:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<III", CKPT_VERSION, rows, width))
        fh.write(ctx32.tobytes(order="C"))
        fh.write(struct.pack("<I", state.epoch))
        fh.write(struct.pack("<I", len(rng_blob)))
        fh.write(rng_blob)

    write_atomic(path, write)


def load_checkpoint(path: str | Path) -> TrainState:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    offset = len(CKPT_MAGIC)
    if len(blob) < offset + 12:
        raise DataError(f"{path}: truncated checkpoint header")
    version, rows, width = struct.unpack_from("<III", blob, offset)
    if version != CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    offset += 12
    payload = rows * width * 4
    # the payload plus the u32 epoch and u32 rng-state length that follow it
    if len(blob) < offset + payload + 8:
        raise DataError(f"{path}: truncated checkpoint")
    ctx = np.frombuffer(blob[offset : offset + payload], dtype="<f4")
    ctx = ctx.reshape(rows, width).astype(np.float64)
    offset += payload
    (epoch,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    (rng_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if len(blob) != offset + rng_len:
        raise DataError(f"{path}: trailing or missing rng state bytes")
    rng = _unpack_rng_state(blob[offset : offset + rng_len])
    return TrainState(ctx=ContextVectors(vectors=ctx), epoch=int(epoch), rng=rng)
