"""Few-shot support sampling, the SGD loop over the context, and checkpoints.

Everything here is deterministic under (seed, config, inputs): shuffling
uses a dedicated PCG64 generator whose state travels inside checkpoints.
The context reaches the classes only through ``s = P·Σctx``
(``backbone``), so a step updates the float64 D-vector ``s`` by
``-lr·M·K·h`` and adds its gradient ``h`` to the running sum ``H``. The
(M, d_tok) context, ``ctx0 - lr·PᵀH`` in every row, is formed only at the
end of each epoch, rounded to the float32 it is stored as. A checkpoint is
that context in the binary layout of ``io``, with a trailer of the epoch,
the text-encoder digest, ``s`` and ``H`` in float64 and the generator
state, so a resumed run retraces an uninterrupted one bit for bit. A loss
or a stored context that stops being finite ends the run with a
``NumericError``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import (
    SyntheticTextEncoder,
    encode_text_with_context,
    init_context,
    project_context,
)
from .ensemble import PromptScoreReport, mean_ensemble, score_and_select, selected_ensemble
from .errors import DataError, NumericError
from .io import read_binary, write_binary, write_text
from .objective import (
    LossBreakdown,
    class_probabilities,
    loss_gradient,
    predict,
    prepare_support,
    teacher_log_probs,
)
from .types import ClassCatalog, DatasetManifest, RunConfig, check_finite

CKPT_MAGIC = b"BMCCKPT2"
CKPT_VERSION = 2


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
    """Mutable training state: the step's ``s`` and ``H``, the stored
    context, the encoder they belong to, the next epoch, the shuffle RNG."""

    ctx: np.ndarray    # (M, d_tok) float64 holding float32 values: the context as stored
    s: np.ndarray      # (D,) float64 P·Σctx
    h_sum: np.ndarray  # (D,) float64 H, the sum of every step's gradient h
    encoder: str       # SyntheticTextEncoder.parameter_digest() of the encoder
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


def _stored_context(ctx0: np.ndarray, step_sum: np.ndarray) -> np.ndarray:
    """``ctx0 - step_sum`` in every row, as the float32 values a checkpoint stores."""
    return (ctx0 - step_sum).astype(np.float32).astype(np.float64)


def initial_state(handle: SyntheticTextEncoder, config: RunConfig) -> TrainState:
    ctx0 = init_context(handle, config.context_init_text, config.context_length)
    return TrainState(
        ctx=_stored_context(ctx0, 0.0),
        s=project_context(handle, ctx0),
        h_sum=np.zeros(handle.embedding_dim),
        encoder=handle.parameter_digest(),
        epoch=0,
        rng=np.random.default_rng(config.seed),
    )


def check_encoder(state: TrainState, handle: SyntheticTextEncoder) -> None:
    """Reject a state that was not trained under the text encoder ``handle``."""
    if state.ctx.shape[1] != handle.token_width or state.s.shape != (handle.embedding_dim,):
        raise DataError(
            f"checkpoint context width {state.ctx.shape[1]} and embedding width "
            f"{len(state.s)} do not match handle widths {handle.token_width} and "
            f"{handle.embedding_dim}"
        )
    digest = handle.parameter_digest()
    if state.encoder != digest:
        raise DataError(
            f"checkpoint was trained under text encoder {state.encoder}, "
            f"not this config's {digest}"
        )


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
    A state of another encoder or saved under another ``learning_rate`` or
    ``context_init_text`` (``_check_resume``), malformed support rows, labels
    or teacher rows, and a non-positive tau, raise a ``DataError`` before
    the first step; a non-finite loss or stored context raises a
    ``NumericError`` carrying the last step's state.
    """
    resumed = state is not None
    if resumed:
        check_encoder(state, handle)
    else:
        state = initial_state(handle, config)

    v_unit, labels, teacher_unit = prepare_support(
        images, labels, len(class_names), handle.embedding_dim, handle.tau, teacher_ensemble,
    )
    log_teacher = None
    if teacher_unit is not None:
        log_teacher = teacher_log_probs(v_unit, teacher_unit, handle.tau)
    n = v_unit.shape[0]
    length = len(state.ctx)
    ctx0 = init_context(handle, config.context_init_text, length)
    lr = config.learning_rate

    def context() -> np.ndarray:  # ctx0 - lr·PᵀH, as stored
        return _stored_context(ctx0, lr * (handle.projection.T @ state.h_sum))

    if resumed:
        _check_resume(state, ctx0, lr * (handle.projection.T @ state.h_sum))
    logs: list[EpochLog] = []

    for epoch in range(state.epoch, config.epochs):
        gram = handle.gram()  # built at the first step, so an empty run never builds it
        order = state.rng.permutation(n)
        ce = sccm = kdsp = 0.0  # sample-weighted sums
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            breakdown, h = loss_gradient(
                handle, state.s, length, class_names,
                v_unit[batch], labels[batch],
                ensemble_mean, None if log_teacher is None else log_teacher[batch],
                config.lambda1, config.lambda2,
            )
            kh = gram @ h
            if not math.isfinite(breakdown.total):
                raise _numeric_abort("loss", epoch, start, breakdown, context(), h, kh)
            state.s = state.s - lr * length * kh
            state.h_sum = state.h_sum + h
            ce += len(batch) * breakdown.ce
            sccm += len(batch) * breakdown.sccm
            kdsp += len(batch) * breakdown.kdsp
        # float64 holds a context that float32 storage overflows, so the check
        # is on the stored values
        state.ctx = context()
        if not np.isfinite(state.ctx).all():
            raise _numeric_abort("context", epoch, start, breakdown, state.ctx, h, kh)
        epoch_breakdown = LossBreakdown.compose(
            ce / n, sccm / n, kdsp / n, config.lambda1, config.lambda2
        )
        train_acc = _accuracy_with_context(
            handle, state.s, length, class_names, images, labels
        )
        state.epoch = epoch + 1
        logs.append(EpochLog(epoch=epoch, breakdown=epoch_breakdown, train_acc=train_acc))
    return state, logs


def _check_resume(state: TrainState, ctx0: np.ndarray, step_sum: np.ndarray) -> None:
    """Reject a state whose stored context is not ``ctx0 - step_sum``
    (``step_sum = lr·PᵀH``) under the resuming config: its ``s`` and ``H``
    were built under another learning rate or init text.

    Each value may differ by 2⁻²² of the magnitude of its two terms, which
    covers the float32 rounding of the stored value and of the recomputed
    one, with the terms formed at another BLAS thread count.
    """
    expected = _stored_context(ctx0, step_sum)
    tolerance = 2.0**-22 * (np.abs(ctx0) + np.abs(step_sum))
    if np.any(np.abs(state.ctx - expected) > tolerance):
        raise DataError(
            "the state's stored context is not this config's initial context less "
            "lr·PᵀH: the state was saved under another learning_rate or context_init_text"
        )


def _numeric_abort(
    what: str, epoch: int, start: int, breakdown: LossBreakdown,
    ctx: np.ndarray, h: np.ndarray, kh: np.ndarray,
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
            # every context row carries the gradient row Pᵀh, and
            # ‖Pᵀh‖² = h·(K·h), which is >= 0 up to rounding
            "grad_norm": float(np.sqrt(len(ctx) * abs(h @ kh))),
        },
    )


def _accuracy_with_context(
    handle: SyntheticTextEncoder,
    s: np.ndarray,
    length: int,
    class_names: list[str],
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    text, _ = encode_text_with_context(handle, s, length, class_names)
    probs = class_probabilities(images, text, handle.tau)
    return np.count_nonzero(predict(probs) == labels) / len(labels)


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


# trailer fields before the float64 s and H: u32 epoch, u32 D, encoder sha256
_TRAILER_HEAD = struct.Struct("<II32s")


def save_checkpoint(state: TrainState, path: str | Path) -> None:
    """Write the context in the binary layout under a (version, rows, width)
    header, with a trailer of u32 epoch, u32 D, the 32-byte encoder digest,
    ``s`` and ``H`` as D little-endian float64 each, u32 RNG state length
    and the RNG state."""
    rng_blob = _pack_rng_state(state.rng)
    trailer = b"".join((
        _TRAILER_HEAD.pack(state.epoch, len(state.s), bytes.fromhex(state.encoder)),
        np.asarray(state.s, "<f8").tobytes(),
        np.asarray(state.h_sum, "<f8").tobytes(),
        struct.pack("<I", len(rng_blob)),
        rng_blob,
    ))
    write_binary(path, CKPT_MAGIC, (CKPT_VERSION,), state.ctx, trailer)


def load_checkpoint(path: str | Path) -> TrainState:
    (version,), ctx32, trailer = read_binary(path, CKPT_MAGIC, "a checkpoint", 1, "train")
    if version != CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if len(ctx32) == 0:
        raise DataError(f"{path}: checkpoint context has 0 rows")
    check_finite(ctx32, f"{path}: checkpoint context")  # the cast warns on a signalling NaN
    ctx = ctx32.astype(np.float64)
    if len(trailer) < _TRAILER_HEAD.size:
        raise DataError(f"{path}: truncated checkpoint trailer")
    epoch, dim, encoder = _TRAILER_HEAD.unpack_from(trailer)
    rng_at = _TRAILER_HEAD.size + 16 * dim
    if len(trailer) < rng_at + 4:
        raise DataError(f"{path}: truncated checkpoint trailer")
    s_and_h = np.frombuffer(trailer, "<f8", 2 * dim, _TRAILER_HEAD.size).astype(np.float64)
    check_finite(s_and_h, f"{path}: checkpoint s and H")
    (rng_len,) = struct.unpack_from("<I", trailer, rng_at)
    if len(trailer) != rng_at + 4 + rng_len:
        raise DataError(f"{path}: trailing or missing rng state bytes")
    return TrainState(
        ctx=ctx, s=s_and_h[:dim], h_sum=s_and_h[dim:], encoder=encoder.hex(),
        epoch=epoch, rng=_unpack_rng_state(trailer[rng_at + 4 :]),
    )
