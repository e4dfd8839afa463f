"""File formats: manifests, catalogs, prompt banks, binary embedding caches.

The embedding cache is a custom little-endian binary layout
(``BMCEMB1`` + u32 row_count + u32 dim + float32 payload) so that any
implementation in any language reads it bit-identically.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .types import (
    SPLITS,
    ClassCatalog,
    ClassEntry,
    DatasetManifest,
    EmbeddingMatrix,
    ManifestRecord,
    PromptBank,
)

CACHE_MAGIC = b"BMCEMB1"  # 7 bytes
_HEADER = struct.Struct("<II")  # row_count, dim


# ── catalog ──────────────────────────────────────────────────────────

def load_catalog(path: str | Path) -> ClassCatalog:
    """Read a catalog file: one `name<TAB>modality` line per class, in canonical order."""
    path = Path(path)
    entries = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}")
        entries.append(ClassEntry(name=parts[0], modality=parts[1]))
    if not entries:
        raise DataError(f"{path}: catalog lists no classes")
    return ClassCatalog(classes=entries)


def write_catalog(catalog: ClassCatalog, path: str | Path) -> None:
    lines = [f"{c.name}\t{c.modality}\n" for c in catalog]
    Path(path).write_text("".join(lines), encoding="utf-8")


# ── manifest ─────────────────────────────────────────────────────────

def load_manifest(path: str | Path, catalog: ClassCatalog) -> DatasetManifest:
    """Read `item_id<TAB>class_name<TAB>split` lines, validating against the catalog."""
    path = Path(path)
    known = set(catalog.names)
    records = []
    seen: set[str] = set()
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        item_id, class_name, split = parts
        if item_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
        seen.add(item_id)
        if class_name not in known:
            raise DataError(f"{path}:{lineno}: unknown class {class_name!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: malformed split value {split!r}")
        records.append(ManifestRecord(item_id=item_id, class_name=class_name, split=split))
    return DatasetManifest(records=records)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    lines = [f"{r.item_id}\t{r.class_name}\t{r.split}\n" for r in manifest.records]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _read_lines(path: Path) -> list[str]:
    if not path.exists():
        raise DataError(f"file not found: {path}")
    text = path.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip()]


# ── prompt bank JSON ─────────────────────────────────────────────────

def load_prompt_bank(path: str | Path) -> PromptBank:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    try:
        prompts, modalities = {}, {}
        for position, c in enumerate(doc["classes"]):
            name = c["name"]
            if name in prompts:
                raise DataError(f"{path}: class {name!r} repeated at position {position}")
            prompts[name] = c["prompts"]
            modalities[name] = c.get("modality", "")
    except (KeyError, TypeError) as e:
        raise DataError(f"{path}: malformed prompt bank document ({e})") from e
    for name, plist in prompts.items():
        if not isinstance(plist, list) or not all(isinstance(p, str) for p in plist):
            raise DataError(f"{path}: prompts of class {name!r} must be a list of strings")
    return PromptBank(
        prompts=prompts,
        modalities=modalities,
        query_template=doc.get("query_template", ""),
        generator=doc.get("generator", {}),
    )


def write_prompt_bank(bank: PromptBank, path: str | Path) -> None:
    doc = {
        "query_template": bank.query_template,
        "generator": bank.generator,
        "classes": [
            {"name": name, "modality": bank.modalities.get(name, ""), "prompts": plist}
            for name, plist in bank.prompts.items()
        ],
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


# ── binary embedding cache ───────────────────────────────────────────

def write_embedding_cache(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Serialize as magic + u32 rows + u32 dim + row-major little-endian float32.

    Values are stored as float32; callers keeping float64 pipelines must
    expect the cast here. Output bytes are a pure function of the values.
    """
    values = np.ascontiguousarray(matrix.values, dtype="<f4")
    rows, dim = values.shape
    try:
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(_HEADER.pack(rows, dim))
            fh.write(values.tobytes(order="C"))
    except OSError as e:
        raise DataError(f"cannot write embedding cache {path}: {e}") from e


def read_embedding_cache(path: str | Path) -> EmbeddingMatrix:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < len(CACHE_MAGIC) or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise DataError(f"{path}: bad magic, not an embedding cache")
    offset = len(CACHE_MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise DataError(f"{path}: truncated header")
    rows, dim = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    expected = rows * dim * 4
    payload = blob[offset:]
    if len(payload) != expected:
        raise DataError(
            f"{path}: truncated payload, header declares {rows}x{dim} "
            f"({expected} bytes) but found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, dim).copy()
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: cache contains non-finite values")
    return EmbeddingMatrix(values=values)


# ── cache index (item_id -> row) ─────────────────────────────────────

def load_cache_index(path: str | Path) -> dict[str, int]:
    path = Path(path)
    index: dict[str, int] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected `item_id<TAB>row_index`")
        item_id, row = parts
        if item_id in index:
            raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
        try:
            index[item_id] = int(row)
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: row index {row!r} is not an integer") from e
    return index


def write_cache_index(index: dict[str, int], path: str | Path) -> None:
    lines = [f"{item_id}\t{row}\n" for item_id, row in index.items()]
    Path(path).write_text("".join(lines), encoding="utf-8")
