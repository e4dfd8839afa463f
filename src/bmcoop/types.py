"""Core domain types: catalogs, manifests, prompt banks, embeddings, run config.

All class-indexed arrays in the package use the catalog's canonical class
order (order of appearance in the catalog file, never re-sorted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

SPLITS = ("train", "val", "test")

# Rows per block of ``row_blocks``, the one loop over many image rows.
# 1024 was the fastest of the sizes tried on 40k x 512 rows.
BLOCK_ROWS = 1024


def row_blocks(rows: np.ndarray, positions: np.ndarray | None = None):
    """Yield ``(span, block)`` over ``rows[positions]`` (every row when ``positions``
    is None), ``BLOCK_ROWS`` at a time: ``span`` is the block's slice of them and
    ``block`` their float64 copy in one buffer, overwritten by the next block."""
    n = rows.shape[0] if positions is None else len(positions)
    buffer = np.empty((min(n, BLOCK_ROWS), rows.shape[1]))
    for start in range(0, n, BLOCK_ROWS):
        span = slice(start, min(start + BLOCK_ROWS, n))
        block = buffer[: span.stop - start]
        block[...] = rows[span if positions is None else positions[span]]
        yield span, block


def check_finite(values: np.ndarray, what: str) -> None:
    """Reject an array with a NaN or an infinity, checking ``BLOCK_ROWS`` rows
    at a time, so that no mask of the whole array is made."""
    for start in range(0, len(values), BLOCK_ROWS):
        if not np.isfinite(values[start : start + BLOCK_ROWS]).all():
            raise DataError(f"{what} contains non-finite values")


def normalize_rows(
    rows: np.ndarray, what: str, names: list[str] | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Divide each row of the float64 array ``rows`` by its L2 norm, in place
    or into ``out``, and return the norms.

    A zero row has no direction (its cosine is undefined), so it is a
    ``DataError`` naming the row: ``names[i]`` when given, else its index.
    """
    # the bits of np.linalg.norm(rows, axis=1), without its conj() copy of rows
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if not norms.all():
        zero = np.flatnonzero(norms == 0.0)[0]
        row = zero if names is None else repr(names[zero])
        raise DataError(f"zero-norm row {row} in {what}: cosine similarity undefined")
    np.divide(rows, norms[:, None], out=rows if out is None else out)
    return norms


@dataclass
class EmbeddingMatrix:
    """A finite 2-D stack of rows: the in-memory form of an embedding cache file."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise DataError(
                f"embedding matrix must be 2-D, got shape {self.values.shape}"
            )
        check_finite(self.values, "embedding matrix")

    @property
    def row_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class ClassCatalog:
    """Classes in canonical order as two columns: names and modalities.

    The order is persisted, and every per-class vector anywhere in the
    pipeline is indexed by position in it.
    """

    names: list[str]
    modalities: list[str]

    def __post_init__(self):
        names = self.names
        if any(not n for n in names):
            raise DataError("catalog contains an empty class name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate class names in catalog: {dupes}")

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class DatasetManifest:
    """Items in file order as three columns: ids, catalog positions, split codes."""

    item_ids: list[str]
    labels: np.ndarray  # (N,) intp positions in the catalog the manifest was read against
    splits: np.ndarray  # (N,) int8 indices into SPLITS

    def in_split(self, split: str) -> np.ndarray:
        """Boolean mask of the items in ``split``."""
        return self.splits == SPLITS.index(split)


@dataclass
class PromptBank:
    """N generated text prompts per class, keyed by catalog class name."""

    prompts: dict[str, list[str]]  # class name -> N prompt strings
    modalities: dict[str, str]
    query_template: str = ""
    generator: dict = field(default_factory=dict)  # model name, timestamp, ...

    def validate(self, catalog: ClassCatalog, n_expected: int | None = None) -> list[str]:
        """Raise on a bank the pipeline cannot use; return one note per repeated prompt.

        Only the catalog's classes are checked, since no other class is
        encoded. A repeated prompt is usable (it only weighs twice in the
        class ensemble), so it is reported rather than rejected.
        """
        for name in catalog.names:
            if name not in self.prompts:
                raise DataError(f"prompt bank missing class {name!r}")
        sizes = {len(self.prompts[name]) for name in catalog.names}
        if len(sizes) != 1:
            raise DataError(f"inconsistent prompt counts across classes: {sorted(sizes)}")
        n = sizes.pop()
        if n_expected is not None and n != n_expected:
            raise DataError(f"prompt bank has {n} prompts per class, expected {n_expected}")
        notes: list[str] = []
        for name in catalog.names:
            plist = self.prompts[name]
            if any(not p.strip() for p in plist):
                raise DataError(f"empty prompt string under class {name!r}")
            seen: set[str] = set()
            for p in plist:
                if p in seen:
                    notes.append(f"duplicate prompt in class {name}: {p[:60]!r}")
                seen.add(p)
        return notes


# Largest geometry a run may ask for. Each value sizes an allocation made
# before any work: the (M, W) context, the (D, W) text projection and its
# (D, D) Gram matrix. At the maxima these hold 32 MB and 128 MB each, well
# above CLIP-sized backbones (D and W of 512 to 1280, context of 4 to 16).
MAX_GEOMETRY = {"context_length": 1024, "embedding_dim": 4096, "token_width": 4096}


@dataclass
class RunConfig:
    """All run hyperparameters with the framework defaults; ``MAX_GEOMETRY``
    bounds the encoder and context sizes."""

    lambda1: float = 0.5
    lambda2: float = 0.25
    zeta_s: float = 1.5
    beta: float = 100.0
    tau: float = 0.01
    context_length: int = 4
    learning_rate: float = 0.0025
    batch_size: int = 4
    epochs: int = 100
    shots: int = 16
    seed: int = 1
    context_init_text: str = "a photo of a"
    prompts_per_class: int = 50
    # synthetic encoder geometry
    embedding_dim: int = 64
    token_width: int = 96
    feature_dim: int = 16
    encoder_seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for key in ("lambda1", "lambda2", "zeta_s", "beta", "tau", "learning_rate"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be >= 0")
        for key in ("zeta_s", "beta", "tau", "learning_rate"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        for key in (
            "context_length", "batch_size", "shots", "prompts_per_class",
            "embedding_dim", "token_width", "feature_dim",
        ):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be a positive integer")
        for key, maximum in MAX_GEOMETRY.items():
            if getattr(self, key) > maximum:
                raise ConfigError(f"{key} must be at most {maximum}, got {getattr(self, key)}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
