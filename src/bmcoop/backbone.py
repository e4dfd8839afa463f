"""Frozen encoder abstraction with a differentiable text path for the context.

The synthetic text encoder is deliberately simple so its gradient can be
written by hand and checked against finite differences:

    tokens  = whitespace-split(text), each mapped to a fixed seeded vector
    pooled  = mean of [context rows ; class-name token vectors]
    raw     = P @ pooled            (fixed random projection, d_tok -> D)
    embed   = raw / ||raw||

Pooling is a linear mean, so for class c with n_c the sum of its name
token vectors and L_c = M + (name tokens) the sequence length,

    raw_c = (s + P·n_c) / L_c,    s = P·Σctx

The (M, d_tok) context reaches every class only through the D-vector
``s`` (``project_context``), so ``s`` is what training updates. ``P·n_c``
is fixed for the run; the encoder memoises the stacked (C, D) rows and the
(C,) name token counts per class list, so encoding all C classes from
``s`` costs (C, D) adds and one normalization. Every context row receives
the same gradient ``Pᵀh``, with ``h`` the (D,) vector the tape returns, so
one SGD step moves ``s`` by ``-lr·M·K·h`` with ``K = P·Pᵀ`` (``gram``,
D x D, built once per encoder). The trainer forms the context itself only
when it stores it.

The prompt bank has no context, and every prompt is frozen, so the whole
bank is encoded from one table. With ``T`` the (V, W) token vectors of the
bank's V unique tokens, ``counts`` the prompt-by-token count matrix and
``L_i`` the token count of prompt ``i``,

    raw_i = (counts_i · (T Pᵀ)) / L_i,    u_i = raw_i / ‖raw_i‖

so ``T Pᵀ`` is projected once and each class costs one (N, V)·(V, D) GEMM.

Only the context rows ever receive gradients; token vectors and the
projection are frozen at construction. The synthetic vision encoder is a
fixed random affine map followed by L2 normalization, computed in float64
one block of rows at a time (``types.row_blocks``) and returned as float32,
the type the image cache stores. A cache-backed source serves embeddings
exported from a real backbone: ``encode`` returns unit rows of a few item
ids, and ``positions`` maps item ids to cache rows, so that a whole split
is scored from the cache matrix in place, block by block. Every encoder
returns a plain array of rows made unit by ``types.normalize_rows``:
float32 from the vision encoder, float64 from the others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError
from .types import EmbeddingMatrix, PromptBank, check_finite, normalize_rows, row_blocks

# Standard deviation of the seeded Gaussian token vectors.
TOKEN_SIGMA = 0.25
# Standard deviation of the Gaussian rows used to right-pad a context
# whose init text has fewer tokens than the context length.
PAD_SIGMA = 0.02


def _hash_seed(*parts: str) -> int:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class TextGradTape:
    """Closure over one encoding of all classes, exposing the exact vector-Jacobian product.

    The forward pass was ``raw_c = (s + P·n_c) / L_c`` and
    ``u_c = raw_c / ||raw_c||``. ``vjp(g)`` maps dLoss/dEmbeddings (C x D)
    to dLoss/ds, the (D,) vector

        h = Σ_c g_raw_c / L_c,   g_raw_c = (g_c - (g_c·u_c) u_c) / ||raw_c||

    Mean pooling gives each of the M context rows the same gradient
    ``Pᵀh``. Tapes are single-use bookkeeping, not shared across threads.
    """

    unit: np.ndarray        # (C, D) embeddings after normalization
    raw_norm: np.ndarray    # (C,) ||raw_c|| before normalization
    seq_len: np.ndarray     # (C,) context rows + class-name tokens

    def vjp(self, grad_embedding: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_embedding, dtype=np.float64)
        if g.shape != self.unit.shape:
            raise DataError(f"gradient has shape {g.shape}, embeddings have {self.unit.shape}")
        radial = np.einsum("cd,cd->c", g, self.unit)
        g_raw = g - radial[:, None] * self.unit
        g_raw /= self.raw_norm[:, None]
        g_raw /= self.seq_len[:, None]
        return np.add.reduce(g_raw, axis=0)


class SyntheticTextEncoder:
    """Deterministic frozen text encoder over a seeded hash-to-vector token table."""

    def __init__(
        self,
        seed: int = 0,
        embedding_dim: int = 64,
        token_width: int = 96,
        tau: float = 0.01,
    ):
        if embedding_dim <= 0 or token_width <= 0:
            raise DataError("embedding_dim and token_width must be positive")
        if tau <= 0:
            raise DataError("tau must be > 0")
        self.seed = int(seed)
        self.embedding_dim = int(embedding_dim)
        self.token_width = int(token_width)
        self.tau = float(tau)
        rng = np.random.default_rng(_hash_seed("text-projection", str(self.seed)))
        self.projection = rng.standard_normal((embedding_dim, token_width)) / np.sqrt(token_width)
        self.projection.setflags(write=False)
        self._token_cache: dict[str, np.ndarray] = {}
        self._block_cache: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._gram: np.ndarray | None = None

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            rng = np.random.default_rng(_hash_seed("token", str(self.seed), token))
            vec = rng.standard_normal(self.token_width) * TOKEN_SIGMA
            vec.setflags(write=False)
            self._token_cache[token] = vec
        return vec

    def token_vectors(self, text: str) -> np.ndarray:
        tokens = self.tokenize(text)
        if not tokens:
            return np.zeros((0, self.token_width))
        return np.stack([self.token_vector(t) for t in tokens])

    def name_block(self, class_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(P·n_c rows (C, D), token counts (C,))`` for a class list,
        memoised; ``n_c`` is the token-vector sum of class name ``c``."""
        key = tuple(class_names)
        cached = self._block_cache.get(key)
        if cached is None:
            tokens = [self.token_vectors(name) for name in class_names]
            rows = np.stack([self.projection @ t.sum(axis=0) for t in tokens])
            counts = np.array([t.shape[0] for t in tokens], dtype=np.float64)
            rows.setflags(write=False)
            counts.setflags(write=False)
            cached = self._block_cache[key] = (rows, counts)
        return cached

    def gram(self) -> np.ndarray:
        """Read-only ``K = P·Pᵀ`` (D x D), built on the first call and memoised:
        an SGD step on ``s`` is ``-lr·M·K·h``."""
        if self._gram is None:
            self._gram = self.projection @ self.projection.T
            self._gram.setflags(write=False)
        return self._gram

    def parameter_digest(self) -> str:
        """Stable digest of the frozen parameters, for freeze checks and as the
        encoder identity a checkpoint carries."""
        h = hashlib.sha256()
        # hashed in place: a bytes copy would add 3 MB to a stage's peak at paper shape
        h.update(np.ascontiguousarray(self.projection))
        h.update(str(self.seed).encode())
        return h.hexdigest()


def init_context(handle: SyntheticTextEncoder, init_text: str, length: int) -> np.ndarray:
    """Build the initial (length, d_tok) float64 context from the token
    embeddings of ``init_text``.

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
    return rows.astype(np.float64)


def project_context(handle: SyntheticTextEncoder, ctx: np.ndarray) -> np.ndarray:
    """``s = P·Σctx``, the (D,) vector through which the (M, d_tok) context
    ``ctx`` reaches every class."""
    width = ctx.shape[1]
    if width != handle.token_width:
        raise DataError(
            f"context width {width} does not match handle width {handle.token_width}"
        )
    return handle.projection @ ctx.sum(axis=0)


def encode_text_with_context(
    handle: SyntheticTextEncoder,
    s: np.ndarray,
    length: int,
    class_names: list[str],
) -> tuple[np.ndarray, TextGradTape]:
    """Encode [context ; class-name tokens] for every class: (C, D) unit rows
    plus one tape. ``s`` is ``project_context`` of a context of ``length`` rows."""
    if s.shape != (handle.embedding_dim,):
        raise DataError(
            f"context embedding has shape {s.shape}, not the handle width "
            f"({handle.embedding_dim},)"
        )
    if not class_names:
        raise DataError("no class names to encode")
    name_rows, name_tokens = handle.name_block(class_names)
    seq_len = length + name_tokens
    unit = (s + name_rows) / seq_len[:, None]
    norms = normalize_rows(unit, "class embeddings", class_names)
    return unit, TextGradTape(unit=unit, raw_norm=norms, seq_len=seq_len)


def encode_text_bank(
    handle: SyntheticTextEncoder, bank: PromptBank, class_names: list[str]
) -> np.ndarray:
    """Encode every prompt of the classes ``class_names``: a float64 array of
    frozen unit rows, class-major in the order of ``class_names``.

    One projected token table for those classes, one count-block GEMM per
    class (module docstring). Bank classes not in ``class_names`` are not
    encoded.
    """
    if not class_names:
        raise DataError("no class names to encode")
    columns: dict[str, int] = {}
    tokenized: list[list[list[int]]] = []
    for name in class_names:
        prompts = bank.prompts.get(name)
        if not prompts:
            raise DataError(f"class {name!r} has no prompts in the bank")
        rows = []
        for text in prompts:
            tokens = handle.tokenize(text)
            if not tokens:
                raise DataError(f"cannot encode empty text under class {name!r}")
            rows.append([columns.setdefault(t, len(columns)) for t in tokens])
        tokenized.append(rows)
    vocab = len(columns)
    out = np.empty((sum(len(rows) for rows in tokenized), handle.embedding_dim))
    # T Pᵀ, (V, D); the (V, W) table T is dropped once it is projected
    projected = np.stack([handle.token_vector(t) for t in columns]) @ handle.projection.T
    start = 0
    for name, rows in zip(class_names, tokenized):
        lengths = np.array([len(r) for r in rows])
        flat = np.repeat(np.arange(len(rows)) * vocab, lengths) + np.concatenate(rows)
        # weights make bincount count in float64, ready for the GEMM
        counts = np.bincount(flat, weights=np.ones(flat.size), minlength=len(rows) * vocab)
        # one GEMM per class, written in place: BLAS picks its kernel by the
        # row count, so a single (C·N, V) product could round differently
        raw = out[start : start + len(rows)]
        np.matmul(counts.reshape(len(rows), vocab), projected, out=raw)
        raw /= lengths[:, None]
        normalize_rows(raw, f"prompt embeddings of class {name!r}", bank.prompts[name])
        start += len(rows)
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

    def encode(self, features: np.ndarray, names: list | None = None, out=None):
        """(B, D) float32 unit rows, one per feature row; a zero row is named by
        ``names`` when given, else by its index. Each block of ``types.row_blocks``
        is checked finite, projected, biased and normalized in float64, then
        stored as float32, the cache's type, in ``out``: a new array, or a
        target of ``out[span] = rows`` that takes the blocks in order, such as
        an ``io.RowWriter``. Returns ``out``."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise DataError(
                f"expected features of shape (B, {self.feature_dim}), got {features.shape}"
            )
        names = range(len(features)) if names is None else names
        if out is None:
            out = np.empty((len(features), self.embedding_dim), dtype=np.float32)
        raw_buffer = None
        for span, feats in row_blocks(features):
            check_finite(feats, "image features")
            if raw_buffer is None:  # the first block is the largest
                raw_buffer = np.empty((len(feats), self.embedding_dim))
            raw = np.matmul(feats, self.projection.T, out=raw_buffer[: len(feats)])
            raw += self.bias
            normalize_rows(raw, "image embeddings", names[span])
            out[span] = raw
        return out


def check_index_rows(index: dict[str, int], row_count: int) -> None:
    """Reject a cache index that points outside a matrix of ``row_count`` rows."""
    if index and not (min(index.values()) >= 0 and max(index.values()) < row_count):
        bad = sorted({i for i in index.values() if not 0 <= i < row_count})
        raise DataError(f"cache index points outside the matrix: rows {bad}")


@dataclass
class CachedVisionSource:
    """Image embeddings exported offline, addressed by item id."""

    matrix: EmbeddingMatrix
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        check_index_rows(self.index, self.matrix.row_count)

    def positions(self, item_ids) -> np.ndarray:
        """Row positions of the sequence ``item_ids`` in the cache matrix, in
        request order; an id missing from the index is named."""
        rows = np.fromiter(map(self.index.get, item_ids, repeat(-1)), np.intp, len(item_ids))
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            raise DataError(
                f"item id {item_ids[missing[0]]!r} not present in the embedding cache index"
            )
        return rows

    def encode(self, item_ids: list[str]) -> np.ndarray:
        """(B, D) float64 unit rows of ``item_ids``, in request order."""
        raw = self.matrix.values[self.positions(item_ids)].astype(np.float64)
        normalize_rows(raw, "cached image embeddings", item_ids)
        return raw
