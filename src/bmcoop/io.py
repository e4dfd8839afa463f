"""File formats: manifests, catalogs, prompt banks, and the one binary layout.

Embedding caches and checkpoints share a little-endian binary layout
(magic bytes + u32 header fields, rows and width last + row-major float32
payload + trailer bytes) that ``write_binary`` writes and ``read_binary``
reads, so that any implementation in any language reads it bit-identically.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .errors import BmcoopError, DataError
from .types import (
    SPLITS,
    ClassCatalog,
    DatasetManifest,
    EmbeddingMatrix,
    PromptBank,
)

CACHE_MAGIC = b"BMCEMB1"  # 7 bytes


# ── files ────────────────────────────────────────────────────────────

def write_atomic(path: str | Path, write: Callable[[BinaryIO], None]) -> None:
    """Call ``write`` on a temporary file beside ``path``, then rename it over ``path``.

    A reader sees the previous file or the whole new one, never a partial
    write; if ``write`` or the rename fails, the previous file is left as it
    was and the temporary file is removed. An ``OSError`` on the way is a
    ``DataError`` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from e


def _unreadable(path: Path, e: OSError, what: str, error: type[BmcoopError]) -> BmcoopError:
    if isinstance(e, FileNotFoundError):
        return error(f"{what} not found: {path}")
    return error(f"cannot read {path}: {e.strerror or e}")


def read_file(path: Path, what: str = "file", error: type[BmcoopError] = DataError) -> bytes:
    """The bytes of ``path``; a missing or unreadable path (a directory, say)
    raises ``error`` naming it."""
    try:
        return path.read_bytes()
    except OSError as e:
        raise _unreadable(path, e, what, error) from None


def read_text(path: Path, what: str = "file", error: type[BmcoopError] = DataError) -> str:
    """The UTF-8 text of ``path``, less one leading byte-order mark; any
    other bytes raise ``error`` naming it."""
    try:
        # not "utf-8-sig", whose error offsets would skip the mark's 3 bytes
        return read_file(path, what, error).decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (invalid byte at offset {e.start})") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``write_atomic``."""
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as strict JSON: sorted keys, two-space indent, no NaN or
    infinity (a ``ValueError``), one trailing newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _read_table(path: Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a tab-separated file."""
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        yield lineno, fields


# ── catalog ──────────────────────────────────────────────────────────

def load_catalog(path: str | Path) -> ClassCatalog:
    """Read a catalog file: one `name<TAB>modality` line per class, in canonical order."""
    path = Path(path)
    columns = list(zip(*(fields for _, fields in _read_table(path, 2))))
    if not columns:
        raise DataError(f"{path}: catalog lists no classes")
    return ClassCatalog(names=list(columns[0]), modalities=list(columns[1]))


# ── manifest ─────────────────────────────────────────────────────────

def load_manifest(path: str | Path, catalog: ClassCatalog) -> DatasetManifest:
    """Read `item_id<TAB>class_name<TAB>split` lines into columns, mapping each
    class name to its catalog position and each split to its index in ``SPLITS``."""
    path = Path(path)
    position = {name: c for c, name in enumerate(catalog.names)}
    code = {split: s for s, split in enumerate(SPLITS)}
    item_ids: list[str] = []
    labels: list[int] = []
    splits: list[int] = []
    seen: set[str] = set()
    for lineno, (item_id, class_name, split) in _read_table(path, 3):
        if item_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
        seen.add(item_id)
        if class_name not in position:
            raise DataError(f"{path}:{lineno}: unknown class {class_name!r}")
        if split not in code:
            raise DataError(f"{path}:{lineno}: malformed split value {split!r}")
        item_ids.append(item_id)
        labels.append(position[class_name])
        splits.append(code[split])
    return DatasetManifest(
        item_ids=item_ids,
        labels=np.array(labels, dtype=np.intp),
        splits=np.array(splits, dtype=np.int8),
    )


# ── prompt bank JSON ─────────────────────────────────────────────────

def load_prompt_bank(path: str | Path) -> PromptBank:
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as e:
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
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


# ── binary layout: embedding caches and checkpoints ──────────────────

def write_binary(
    path: str | Path, magic: bytes, fields: tuple[int, ...], values: np.ndarray, trailer: bytes
) -> None:
    """Write ``magic``, the u32 ``fields`` and the rows and width of the 2-D
    ``values``, then ``values`` as row-major little-endian float32, then
    ``trailer``, through ``write_atomic``. Output bytes are a pure function
    of the arguments; float64 values are cast to float32.
    """
    values = np.ascontiguousarray(values, dtype="<f4")
    head = magic + struct.pack(f"<{len(fields) + 2}I", *fields, *values.shape)

    def write(fh: BinaryIO) -> None:
        fh.write(head)
        values.tofile(fh)
        fh.write(trailer)

    write_atomic(path, write)


def read_binary(
    path: str | Path, magic: bytes, what: str, n_fields: int = 0, stage: str = ""
) -> tuple[tuple[int, ...], np.ndarray, bytes]:
    """Read a file written by ``write_binary`` with ``n_fields`` leading header
    fields: (those fields, the (rows, width) float32 payload, the trailer).

    A file that is not ``what``, a short header, a width of 0 or a short
    payload is a ``DataError`` naming ``path``. A magic ends in its format
    version, so a file of another version is named as one, with the
    ``stage`` that writes the current one. The size is checked before the
    payload is allocated, and the payload is read straight into it.
    """
    path = Path(path)
    header = struct.Struct(f"<{n_fields + 2}I")
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(magic) + header.size)
            found_magic = head[: len(magic)]
            if found_magic != magic:
                if stage and len(found_magic) == len(magic) and found_magic[:-1] == magic[:-1]:
                    raise DataError(
                        f"{path}: {what} in format {found_magic!r}, this version reads "
                        f"{magic!r}; re-run {stage}"
                    )
                raise DataError(f"{path}: bad magic, not {what}")
            if len(head) < len(magic) + header.size:
                raise DataError(f"{path}: truncated header")
            *fields, rows, width = header.unpack_from(head, len(magic))
            if width == 0:
                raise DataError(f"{path}: header declares rows of width 0")
            expected = rows * width * 4
            found = os.fstat(fh.fileno()).st_size - len(head)
            if found < expected:
                raise DataError(
                    f"{path}: truncated payload, header declares {rows}x{width} "
                    f"({expected} bytes) but found {found}"
                )
            values = np.empty((rows, width), dtype="<f4")
            if fh.readinto(values) != expected:
                raise DataError(f"{path}: file shrank while it was read")
            trailer = fh.read()
    except OSError as e:
        raise _unreadable(path, e, "file", DataError) from None
    return tuple(fields), values, trailer


def write_embedding_cache(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``matrix`` as ``BMCEMB1`` + u32 rows + u32 dim + float32 rows."""
    write_binary(path, CACHE_MAGIC, (), matrix.values, b"")


def read_embedding_cache(path: str | Path) -> EmbeddingMatrix:
    """Read a cache written by ``write_embedding_cache``."""
    _, values, trailer = read_binary(path, CACHE_MAGIC, "an embedding cache")
    if trailer:
        raise DataError(f"{path}: {len(trailer)} unexpected bytes after the payload")
    try:
        return EmbeddingMatrix(values=values)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


# ── cache index (item_id -> row) ─────────────────────────────────────

def load_cache_index(path: str | Path) -> dict[str, int]:
    """Read `item_id<TAB>row` lines; a row is ASCII decimal digits only, so
    the signs, spaces, underscores and non-ASCII digits that ``int`` also
    takes are rejected."""
    path = Path(path)
    index: dict[str, int] = {}
    for lineno, (item_id, row) in _read_table(path, 2):
        if item_id in index:
            raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
        if not (row.isascii() and row.isdigit()):
            raise DataError(
                f"{path}:{lineno}: row index {row!r} is not a non-negative decimal integer"
            )
        index[item_id] = int(row)
    return index


def write_cache_index(index: dict[str, int], path: str | Path) -> None:
    write_text(path, "".join(f"{item_id}\t{row}\n" for item_id, row in index.items()))
