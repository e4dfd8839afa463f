"""Core domain types: catalogs, manifests, prompt banks, embeddings, run config.

All class-indexed arrays in the package use the catalog's canonical class
order (order of appearance in the catalog file, never re-sorted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError

SPLITS = ("train", "val", "test")


def check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contains non-finite values")


def normalize_rows(
    rows: np.ndarray, what: str, names: list[str] | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Divide each row of the float64 array ``rows`` by its L2 norm, in place
    or into ``out``, and return the norms.

    A zero row has no direction (its cosine is undefined), so it is a
    ``DataError`` naming the row: ``names[i]`` when given, else its index.
    """
    norms = np.linalg.norm(rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        row = zero[0] if names is None else repr(names[zero[0]])
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


@dataclass(frozen=True)
class ClassEntry:
    name: str
    modality: str


@dataclass
class ClassCatalog:
    """Ordered class list; the order is canonical and persisted.

    Every per-class vector anywhere in the pipeline is indexed by position
    in this list.
    """

    classes: list[ClassEntry]

    def __post_init__(self):
        names = [c.name for c in self.classes]
        if any(not n for n in names):
            raise DataError("catalog contains an empty class name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate class names in catalog: {dupes}")

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ClassEntry]:
        return iter(self.classes)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.classes]


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
        for entry in catalog:
            if entry.name not in self.prompts:
                raise DataError(f"prompt bank missing class {entry.name!r}")
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


@dataclass
class RunConfig:
    """All run hyperparameters with the framework defaults."""

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
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
