"""File formats: manifests, catalogs, prompt banks, and the one binary layout.

Embedding caches and checkpoints share a little-endian binary layout
(magic bytes + u32 header fields, rows and width last + row-major float32
payload + trailer bytes) that ``write_binary`` writes and ``read_binary``
reads, so that any implementation in any language reads it bit-identically.
A payload is read as a read-only view over a map of the file, never copied;
it is written through a ``RowWriter``, which checks every block finite, so a
command can write rows it never holds at once.

Each tab-separated format (catalog, manifest, cache index) is read once, by
``_read_table``, and a bad file is rejected naming its first bad line.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Sequence, TypeVar

import numpy as np

from .errors import BmcoopError, DataError
from .types import (
    SPLITS,
    ClassCatalog,
    DatasetManifest,
    EmbeddingMatrix,
    PromptBank,
    check_finite,
)

CACHE_MAGIC = b"BMCEMB1"  # 7 bytes
Table = TypeVar("Table")  # what a tab-separated file is read into


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


def read_text(path: Path, what: str = "file", error: type[BmcoopError] = DataError) -> str:
    """The UTF-8 text of ``path``, less one leading byte-order mark; a missing or
    unreadable path (a directory, say) or any other bytes raise ``error`` naming it."""
    try:
        # not "utf-8-sig", whose error offsets would skip the mark's 3 bytes
        return path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as e:
        raise _unreadable(path, e, what, error) from None
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (invalid byte at offset {e.start})") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through ``write_atomic``."""
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as strict JSON: sorted keys, two-space indent, no NaN or
    infinity (a ``ValueError``), one trailing newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


# Line breaks that ``str.splitlines`` honours besides "\n" and "\r\n".
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# ``bytes.translate`` deletes every byte but tab and newline.
_NOT_TAB_OR_NEWLINE = bytes(b for b in range(256) if b not in b"\t\n")


def _read_table(
    path: Path, n_fields: int, build: Callable[[list[list[str]], Sequence[int]], Table]
) -> Table:
    """Read a tab-separated file once; return ``build(columns, linenos)`` of its
    non-blank lines. A file of ``n_fields``-field lines ended by "\\n" or
    "\\r\\n", no last field blank, is split by columns in one pass; any other,
    line by line. ``build`` raises for its first bad row, and sees the rows
    before a line of another field count first, so the first bad line is named."""
    text = read_text(path)
    folded = text.replace("\r\n", "\n") if "\r" in text else text
    tabs = b"\t" * (n_fields - 1)
    ended = folded.endswith("\n")
    shape = (tabs + b"\n") * folded.count("\n") + (b"" if ended else tabs)
    if (not any(mark in folded for mark in _OTHER_BREAKS)
            and folded.encode().translate(None, _NOT_TAB_OR_NEWLINE) == shape):
        fields = folded.replace("\n", "\t").split("\t")
        del text, folded
        if ended:
            fields.pop()  # the empty string after the last line break
        columns = [fields[j::n_fields] for j in range(n_fields)]
        del fields
        # a whitespace-only line, which is skipped, has a blank last field
        if all(map(str.strip, columns[-1])):
            return build(columns, range(1, len(columns[0]) + 1))
        text = "\n".join(map("\t".join, zip(*columns)))  # the same lines
    columns, linenos = [[] for _ in range(n_fields)], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            build(columns, linenos)  # a bad line before this one is named first
            raise DataError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        for column, field in zip(columns, fields):
            column.append(field)
        linenos.append(lineno)
    return build(columns, linenos)


# ── catalog ──────────────────────────────────────────────────────────

def load_catalog(path: str | Path) -> ClassCatalog:
    """Read a catalog file: one `name<TAB>modality` line per class, in canonical order."""
    path = Path(path)
    names, modalities = _read_table(path, 2, lambda columns, linenos: columns)
    if not names:
        raise DataError(f"{path}: catalog lists no classes")
    return ClassCatalog(names=names, modalities=modalities)


# ── manifest ─────────────────────────────────────────────────────────

def load_manifest(path: str | Path, catalog: ClassCatalog) -> DatasetManifest:
    """Read `item_id<TAB>class_name<TAB>split` lines into columns, mapping each
    class name to its catalog position and each split to its index in ``SPLITS``."""
    path = Path(path)
    position = {name: c for c, name in enumerate(catalog.names)}
    code = {split: s for s, split in enumerate(SPLITS)}

    def build(columns: list[list[str]], linenos: Sequence[int]) -> DatasetManifest:
        item_ids, class_names, splits = columns
        n = len(item_ids)
        if len(set(item_ids)) == n:
            try:
                return DatasetManifest(
                    item_ids=item_ids,
                    labels=np.fromiter(map(position.__getitem__, class_names), np.intp, n),
                    splits=np.fromiter(map(code.__getitem__, splits), np.int8, n),
                )
            except KeyError:
                pass
        seen: set[str] = set()
        for lineno, item_id, class_name, split in zip(linenos, *columns):
            if item_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
            seen.add(item_id)
            if class_name not in position:
                raise DataError(f"{path}:{lineno}: unknown class {class_name!r}")
            if split not in code:
                raise DataError(f"{path}:{lineno}: malformed split value {split!r}")
        raise AssertionError("unreachable: a failed column check has a bad row")

    return _read_table(path, 3, build)


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

class RowWriter:
    """The payload of a binary file being written, filled in order, one block
    of rows at a time: ``writer[start:stop] = rows`` casts ``rows`` to
    float32, checks them finite and writes them."""

    def __init__(self, fh: BinaryIO, shape: tuple[int, int], path: str | Path):
        self.shape, self.written = shape, 0
        self._fh, self._path = fh, path

    def __setitem__(self, span: slice, rows: np.ndarray) -> None:
        rows = np.ascontiguousarray(rows, dtype="<f4")
        expected = (span.stop - span.start, self.shape[1])
        if span.start != self.written or span.stop > self.shape[0] or rows.shape != expected:
            raise ValueError(
                f"rows [{span.start}:{span.stop}] of shape {rows.shape} do not continue "
                f"a {self.shape} payload at row {self.written}"
            )
        check_finite(rows, f"{self._path}: payload")
        rows.tofile(self._fh)
        self.written = span.stop


def write_binary(
    path: str | Path,
    magic: bytes,
    fields: tuple[int, ...],
    values: np.ndarray | Callable[[RowWriter], object],
    trailer: bytes,
    shape: tuple[int, int] | None = None,
) -> None:
    """Write ``magic``, the u32 ``fields`` and the payload's rows and width, then
    the payload as row-major little-endian float32, then ``trailer``, through
    ``write_atomic``.

    The payload ``values`` is a 2-D array, written as one block, or, given its
    ``shape``, a function that fills it block by block; either way a
    ``RowWriter`` checks it finite. Output bytes are a pure function of the payload.
    """
    if shape is None:
        block, shape = values, np.shape(values)

        def values(writer: RowWriter) -> None:
            writer[0 : shape[0]] = block

    head = magic + struct.pack(f"<{len(fields) + 2}I", *fields, *shape)

    def write(fh: BinaryIO) -> None:
        fh.write(head)
        writer = RowWriter(fh, shape, path)
        values(writer)
        if writer.written != shape[0]:
            raise ValueError(f"{writer.written} of the {shape[0]} payload rows were written")
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
    file is mapped, and the payload is a read-only view of the map: no copy
    is made, and pages are read as the rows are used.
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
            # Every writer in this package replaces a file through
            # ``write_atomic`` (a rename), so a mapped file is never truncated
            # in place; a file cut short by another program before the map is
            # taken is caught below.
            try:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # the file is empty now
                data = b""
    except OSError as e:
        raise _unreadable(path, e, "file", DataError) from None
    end = len(head) + expected
    if len(data) < end:
        raise DataError(f"{path}: file shrank while it was read")
    values = np.frombuffer(data, "<f4", rows * width, len(head)).reshape(rows, width)
    return tuple(fields), values, data[end:]


def write_embedding_cache(
    rows: EmbeddingMatrix | np.ndarray | Callable[[RowWriter], object],
    path: str | Path,
    shape: tuple[int, int] | None = None,
) -> None:
    """Write ``rows`` as ``BMCEMB1`` + u32 rows + u32 dim + float32 rows: an
    ``EmbeddingMatrix``, a 2-D array, or a function that fills a payload of
    ``shape`` through a ``RowWriter`` (``write_binary``)."""
    values = rows.values if isinstance(rows, EmbeddingMatrix) else rows
    write_binary(path, CACHE_MAGIC, (), values, b"", shape)


def read_embedding_cache(path: str | Path) -> EmbeddingMatrix:
    """Read a cache written by ``write_embedding_cache``; its rows are a
    read-only view of the file (``read_binary``)."""
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

    def build(columns: list[list[str]], linenos: Sequence[int]) -> dict[str, int]:
        item_ids, rows = columns
        digits = "".join(rows)
        if digits.isascii() and digits.isdigit():
            try:
                index = dict(zip(item_ids, map(int, rows)))
            except ValueError:  # a blank row, or more digits than int() takes
                index = {}
            if len(index) == len(item_ids):
                return index
        index = {}
        for lineno, item_id, row in zip(linenos, item_ids, rows):
            if item_id in index:
                raise DataError(f"{path}:{lineno}: duplicate item id {item_id!r}")
            if not (row.isascii() and row.isdigit()):
                raise DataError(
                    f"{path}:{lineno}: row index {row!r} is not a non-negative decimal integer"
                )
            try:
                index[item_id] = int(row)
            except ValueError:  # more digits than int() takes
                raise DataError(f"{path}:{lineno}: row index too long: {len(row)} digits") from None
        return index

    return _read_table(path, 2, build)


def write_cache_index(index: dict[str, int], path: str | Path) -> None:
    write_text(path, "".join(f"{item_id}\t{row}\n" for item_id, row in index.items()))
