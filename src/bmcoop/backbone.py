"""Frozen encoder abstraction with a differentiable text path for the context.

The synthetic text encoder is deliberately simple so its gradient can be
written by hand and checked against finite differences:

    tokens  = whitespace-split(text), each mapped to a fixed seeded vector
    pooled  = mean of [context rows ; class-name token vectors]
    raw     = P @ pooled            (fixed random projection, d_tok -> D)
    embed   = raw / ||raw||

Pooling is a linear mean, so for class c with n_c the sum of its name
token vectors and L_c = M + (name tokens) the sequence length,

    raw_c = (P·Σctx + P·n_c) / L_c

``P·n_c`` is fixed for the run and memoised on the encoder, so encoding
all C classes costs one mat-vec ``P·Σctx`` plus a (C, D) normalization.
Every context row receives the same gradient, so the M rows move in
lockstep and only Σctx matters to the embeddings.

Only the context rows ever receive gradients; token vectors and the
projection are frozen at construction. The synthetic vision encoder is a
fixed random affine map followed by L2 normalization; a cache-backed
source serves embeddings exported from a real backbone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .types import EmbeddingMatrix, PromptBank, check_finite

# Standard deviation of the Gaussian rows used to right-pad a context
# whose init text has fewer tokens than the context length.
PAD_SIGMA = 0.02


def _hash_seed(*parts: str) -> int:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class ContextVectors:
    """The learnable prompt context: M rows in token-embedding space."""

    vectors: np.ndarray  # (M, d_tok) float64
    init_text: str = ""

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise DataError(f"context must be a non-empty 2-D matrix, got {self.vectors.shape}")
        check_finite(self.vectors, "context vectors")

    @property
    def length(self) -> int:
        return self.vectors.shape[0]

    @property
    def token_width(self) -> int:
        return self.vectors.shape[1]

    def copy(self) -> "ContextVectors":
        return ContextVectors(vectors=self.vectors.copy(), init_text=self.init_text)


@dataclass
class TextGradTape:
    """Closure over one encoding of all classes, exposing the exact vector-Jacobian product.

    The forward pass was ``raw_c = (P·Σctx + P·n_c) / L_c`` and
    ``u_c = raw_c / ||raw_c||``. ``vjp(g)`` maps dLoss/dEmbeddings (C x D)
    to dLoss/dContext (M x d_tok) with one mat-vec:

        row = P.T @ Σ_c g_raw_c / L_c,   g_raw_c = (g_c - (g_c·u_c) u_c) / ||raw_c||

    tiled over the M rows. Mean pooling gives every context row the same
    gradient, so the rows move in lockstep. Tapes are single-use
    bookkeeping, not shared across threads.
    """

    projection: np.ndarray  # (D, d_tok), frozen
    unit: np.ndarray        # (C, D) embeddings after normalization
    raw_norm: np.ndarray    # (C,) ||raw_c|| before normalization
    seq_len: np.ndarray     # (C,) context rows + class-name tokens
    ctx_rows: int

    def vjp(self, grad_embedding: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_embedding, dtype=np.float64)
        if g.shape != self.unit.shape:
            raise DataError(f"gradient has shape {g.shape}, embeddings have {self.unit.shape}")
        radial = np.einsum("cd,cd->c", g, self.unit)
        g_raw = (g - radial[:, None] * self.unit) / self.raw_norm[:, None]
        row = self.projection.T @ (g_raw / self.seq_len[:, None]).sum(axis=0)
        return np.tile(row, (self.ctx_rows, 1))


class SyntheticTextEncoder:
    """Deterministic frozen text encoder over a seeded hash-to-vector token table."""

    def __init__(
        self,
        seed: int = 0,
        embedding_dim: int = 64,
        token_width: int = 96,
        tau: float = 0.01,
        token_sigma: float = 0.25,
    ):
        if embedding_dim <= 0 or token_width <= 0:
            raise DataError("embedding_dim and token_width must be positive")
        if tau <= 0:
            raise DataError("tau must be > 0")
        self.seed = int(seed)
        self.embedding_dim = int(embedding_dim)
        self.token_width = int(token_width)
        self.tau = float(tau)
        self.token_sigma = float(token_sigma)
        rng = np.random.default_rng(_hash_seed("text-projection", str(self.seed)))
        self.projection = rng.standard_normal((embedding_dim, token_width)) / np.sqrt(token_width)
        self.projection.setflags(write=False)
        self._token_cache: dict[str, np.ndarray] = {}
        self._name_cache: dict[str, tuple[np.ndarray, int]] = {}

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            rng = np.random.default_rng(_hash_seed("token", str(self.seed), token))
            vec = rng.standard_normal(self.token_width) * self.token_sigma
            vec.setflags(write=False)
            self._token_cache[token] = vec
        return vec

    def token_vectors(self, text: str) -> np.ndarray:
        tokens = self.tokenize(text)
        if not tokens:
            return np.zeros((0, self.token_width))
        return np.stack([self.token_vector(t) for t in tokens])

    def name_projection(self, name: str) -> tuple[np.ndarray, int]:
        """``(P·n, token count)`` for a class name, n being its token-vector sum."""
        cached = self._name_cache.get(name)
        if cached is None:
            rows = self.token_vectors(name)
            projected = self.projection @ rows.sum(axis=0)
            projected.setflags(write=False)
            cached = self._name_cache[name] = (projected, rows.shape[0])
        return cached

    def parameter_digest(self) -> str:
        """Stable digest of the frozen parameters, for freeze checks."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.projection).tobytes())
        h.update(str(self.seed).encode())
        return h.hexdigest()


def init_context(handle: SyntheticTextEncoder, init_text: str, length: int) -> ContextVectors:
    """Build the initial context from the token embeddings of ``init_text``.

    Exactly ``length`` rows: token embeddings in order, truncated if the
    text is longer, right-padded with seeded zero-mean Gaussian rows
    (sigma 0.02) if shorter. An empty text yields all-Gaussian rows.
    """
    if length <= 0:
        raise DataError(f"context length must be positive, got {length}")
    token_rows = handle.token_vectors(init_text)[:length]
    n_pad = length - token_rows.shape[0]
    if n_pad > 0:
        rng = np.random.default_rng(
            _hash_seed("context-pad", str(handle.seed), init_text, str(length))
        )
        pad = rng.standard_normal((n_pad, handle.token_width)) * PAD_SIGMA
        rows = np.vstack([token_rows, pad]) if token_rows.size else pad
    else:
        rows = token_rows
    return ContextVectors(vectors=rows.astype(np.float64), init_text=init_text)


def encode_text_with_context(
    handle: SyntheticTextEncoder,
    ctx: ContextVectors,
    class_names: list[str],
) -> tuple[np.ndarray, TextGradTape]:
    """Encode [context ; class-name tokens] for every class: (C, D) unit rows plus one tape."""
    if ctx.token_width != handle.token_width:
        raise DataError(
            f"context width {ctx.token_width} does not match handle width {handle.token_width}"
        )
    if not class_names:
        raise DataError("no class names to encode")
    names = [handle.name_projection(name) for name in class_names]
    seq_len = np.array([ctx.length + n_tokens for _, n_tokens in names], dtype=np.float64)
    ctx_raw = handle.projection @ ctx.vectors.sum(axis=0)
    raw = (ctx_raw + np.stack([row for row, _ in names])) / seq_len[:, None]
    norms = np.linalg.norm(raw, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"degenerate zero embedding for class {class_names[zero[0]]!r}")
    unit = raw / norms[:, None]
    tape = TextGradTape(
        projection=handle.projection,
        unit=unit,
        raw_norm=norms,
        seq_len=seq_len,
        ctx_rows=ctx.length,
    )
    return unit, tape


def encode_text_plain(handle: SyntheticTextEncoder, text: str) -> np.ndarray:
    """Encode free text without any learnable context (frozen, no gradient)."""
    rows = handle.token_vectors(text)
    if rows.shape[0] == 0:
        raise DataError("cannot encode empty text")
    pooled = rows.mean(axis=0)
    raw = handle.projection @ pooled
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise DataError(f"degenerate zero embedding for text {text!r}")
    return raw / norm


def encode_text_bank(
    handle: SyntheticTextEncoder, bank: PromptBank
) -> dict[str, EmbeddingMatrix]:
    """Encode every prompt of every class; frozen unit-norm rows, keyed by class."""
    out: dict[str, EmbeddingMatrix] = {}
    for name, prompts in bank.prompts.items():
        if not prompts:
            raise DataError(f"class {name!r} has an empty prompt list")
        rows = np.stack([encode_text_plain(handle, p) for p in prompts])
        out[name] = EmbeddingMatrix(values=rows, normalized=True)
    return out


class SyntheticVisionEncoder:
    """Fixed random affine map from feature space to the embedding sphere."""

    def __init__(self, seed: int = 0, feature_dim: int = 16, embedding_dim: int = 64):
        if feature_dim <= 0 or embedding_dim <= 0:
            raise DataError("feature_dim and embedding_dim must be positive")
        self.seed = int(seed)
        self.feature_dim = int(feature_dim)
        self.embedding_dim = int(embedding_dim)
        rng = np.random.default_rng(_hash_seed("vision-projection", str(self.seed)))
        self.projection = rng.standard_normal((embedding_dim, feature_dim)) / np.sqrt(feature_dim)
        self.bias = rng.standard_normal(embedding_dim) * 0.5
        self.projection.setflags(write=False)
        self.bias.setflags(write=False)

    def encode(self, features: np.ndarray) -> EmbeddingMatrix:
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.feature_dim:
            raise DataError(
                f"expected features of shape (B, {self.feature_dim}), got {feats.shape}"
            )
        check_finite(feats, "image features")
        raw = feats @ self.projection.T
        raw += self.bias
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise DataError("a feature row mapped to the zero vector and cannot be normalized")
        raw /= norms
        return EmbeddingMatrix(values=raw, normalized=True)


def check_index_rows(index: dict[str, int], row_count: int) -> None:
    """Reject a cache index that points outside a matrix of ``row_count`` rows."""
    bad = [i for i in index.values() if not 0 <= i < row_count]
    if bad:
        raise DataError(f"cache index points outside the matrix: rows {sorted(set(bad))}")


@dataclass
class CachedVisionSource:
    """Image embeddings exported offline, addressed by item id."""

    matrix: EmbeddingMatrix
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        check_index_rows(self.index, self.matrix.row_count)

    def encode(self, item_ids: list[str]) -> EmbeddingMatrix:
        try:
            rows = [self.index[item_id] for item_id in item_ids]
        except KeyError as e:
            raise DataError(
                f"item id {e.args[0]!r} not present in the embedding cache index"
            ) from None
        raw = self.matrix.values[np.asarray(rows, dtype=np.intp)].astype(np.float64)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise DataError("cached embedding row has zero norm")
        raw /= norms
        return EmbeddingMatrix(values=raw, normalized=True)
