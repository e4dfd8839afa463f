"""Core domain types: catalogs, manifests, prompt banks, embeddings, run config.

All class-indexed arrays in the package use the catalog's canonical class
order (order of appearance in the catalog file, never re-sorted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError

SPLITS = ("train", "val", "test")

# Unit-norm tolerance for freshly encoded float64 embeddings.
NORM_TOL = 1e-6


def check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contains non-finite values")


@dataclass
class EmbeddingMatrix:
    """A stack of same-length embedding rows."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise DataError(
                f"embedding matrix must be 2-D, got shape {self.values.shape}"
            )
        check_finite(self.values, "embedding matrix")
        if self.normalized and self.values.shape[0] > 0:
            norms = np.linalg.norm(np.asarray(self.values, dtype=np.float64), axis=1)
            bad = np.abs(norms - 1.0) > NORM_TOL
            if np.any(bad):
                raise DataError(
                    f"{int(bad.sum())} rows flagged normalized deviate from "
                    f"unit L2 norm by more than {NORM_TOL}"
                )

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

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.classes):
            if c.name == name:
                return i
        raise DataError(f"class {name!r} not in catalog")


@dataclass(frozen=True)
class ManifestRecord:
    item_id: str
    class_name: str
    split: str


@dataclass
class DatasetManifest:
    """Per-item records (id, class, split) in file order."""

    records: list[ManifestRecord]

    def __len__(self) -> int:
        return len(self.records)

    def split_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.split] = counts.get(r.split, 0) + 1
        return counts

    def items(self, split: str | None = None, class_name: str | None = None) -> list[ManifestRecord]:
        out = self.records
        if split is not None:
            out = [r for r in out if r.split == split]
        if class_name is not None:
            out = [r for r in out if r.class_name == class_name]
        return out


@dataclass
class PromptBank:
    """N generated text prompts per class, keyed by catalog class name."""

    prompts: dict[str, list[str]]  # class name -> N prompt strings
    modalities: dict[str, str]
    query_template: str = ""
    generator: dict = field(default_factory=dict)  # model name, timestamp, ...

    def prompts_per_class(self) -> int:
        sizes = {len(v) for v in self.prompts.values()}
        if len(sizes) != 1:
            raise DataError(f"inconsistent prompt counts across classes: {sorted(sizes)}")
        return sizes.pop()

    def validate(self, catalog: ClassCatalog, n_expected: int | None = None) -> None:
        for entry in catalog:
            if entry.name not in self.prompts:
                raise DataError(f"prompt bank missing class {entry.name!r}")
        n = self.prompts_per_class()
        if n_expected is not None and n != n_expected:
            raise DataError(f"prompt bank has {n} prompts per class, expected {n_expected}")
        for name, plist in self.prompts.items():
            if any(not p.strip() for p in plist):
                raise DataError(f"empty prompt string under class {name!r}")


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

    def with_overrides(self, **kwargs) -> "RunConfig":
        known = {f.name for f in fields(self)}
        for key in kwargs:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        return replace(self, **kwargs)
