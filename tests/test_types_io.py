"""Core types and file formats: manifests, catalogs, banks, embedding caches."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.cli import parse_config
from bmcoop.errors import BmcoopError, ConfigError, DataError
from bmcoop.io import (
    CACHE_MAGIC,
    load_cache_index,
    load_catalog,
    load_manifest,
    load_prompt_bank,
    read_embedding_cache,
    write_atomic,
    write_cache_index,
    write_embedding_cache,
    write_prompt_bank,
)
from bmcoop.trainer import CKPT_MAGIC, CKPT_VERSION, _pack_rng_state, load_checkpoint
from bmcoop.types import (
    SPLITS,
    ClassCatalog,
    ClassEntry,
    EmbeddingMatrix,
    PromptBank,
    RunConfig,
    normalize_rows,
)


def make_catalog(*names, modality="ultrasound"):
    return ClassCatalog(classes=[ClassEntry(name=n, modality=modality) for n in names])


class TestCatalog:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            make_catalog("benign", "benign")

    def test_empty_name_rejected(self):
        with pytest.raises(DataError, match="empty"):
            make_catalog("benign", "")

    def test_order_is_preserved_across_round_trip(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("zebra\tMRI\nalpha\tCT\nmiddle\tMRI\n")
        loaded = load_catalog(path)
        assert loaded.names == ["zebra", "alpha", "middle"]


class TestManifest:
    def test_three_row_train_manifest(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tbenign\ttrain\nb\tmalignant\ttrain\nc\tbenign\ttrain\n")
        manifest = load_manifest(path, make_catalog("benign", "malignant"))
        assert len(manifest.item_ids) == 3
        assert list(manifest.splits) == [SPLITS.index("train")] * 3
        assert list(manifest.labels) == [0, 1, 0]

    def test_unknown_class_named_in_error(self, tmp_path):
        path = tmp_path / "m.tsv"
        for text, match in (
            ("a\tcyst\ttrain\n", "cyst"),
            ("a\tbenign\ttrain\nb\tbenign\ttrain\na\tmalignant\ttest\n", ":3: duplicate item id 'a'"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=match):
                load_manifest(path, make_catalog("benign", "malignant"))

    def test_errors_name_the_physical_line(self, tmp_path):
        # blank lines are skipped but still counted
        path = tmp_path / "m.tsv"
        path.write_text("a\tbenign\ttrain\n\nb\tbenign\n")
        with pytest.raises(DataError, match=r"m.tsv:3: expected 3 tab-separated fields, got 2"):
            load_manifest(path, make_catalog("benign"))

    def test_malformed_split_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tbenign\tholdout\n")
        with pytest.raises(DataError, match="split"):
            load_manifest(path, make_catalog("benign"))

    def test_busi_style_split_counts(self, tmp_path):
        # 3 classes, 389/155/236 train/val/test items
        catalog = make_catalog("benign", "malignant", "normal")
        lines = []
        counts = {"train": 389, "val": 155, "test": 236}
        i = 0
        for split, n in counts.items():
            for _ in range(n):
                lines.append(f"img{i}\t{catalog.names[i % 3]}\t{split}\n")
                i += 1
        path = tmp_path / "busi.tsv"
        path.write_text("".join(lines))
        manifest = load_manifest(path, catalog)
        for split, n in counts.items():
            assert int(np.sum(manifest.in_split(split))) == n

    def test_record_order_preserved(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("z\tbenign\ttrain\na\tbenign\ttrain\n")
        manifest = load_manifest(path, make_catalog("benign"))
        assert manifest.item_ids == ["z", "a"]


class TestEmbeddingCache:
    def test_round_trip_2x4_bit_exact(self, tmp_path):
        values = np.array([[1.5, -2.25, 3.125, 0.0], [1e-8, -1e8, 7.0, 2.5]], dtype=np.float32)
        path = tmp_path / "m.emb"
        write_embedding_cache(EmbeddingMatrix(values=values), path)
        back = read_embedding_cache(path)
        assert back.values.dtype == np.float32
        assert np.array_equal(back.values, values)

    def test_empty_matrix_header_only(self, tmp_path):
        path = tmp_path / "empty.emb"
        write_embedding_cache(EmbeddingMatrix(values=np.zeros((0, 8), dtype=np.float32)), path)
        assert path.stat().st_size == len(CACHE_MAGIC) + 8  # magic + two u32s
        back = read_embedding_cache(path)
        assert back.values.shape == (0, 8)

    def test_deterministic_bytes(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        write_embedding_cache(EmbeddingMatrix(values=values), p1)
        write_embedding_cache(EmbeddingMatrix(values=values), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_byte_arithmetic_1x3(self, tmp_path):
        path = tmp_path / "one.emb"
        write_embedding_cache(
            EmbeddingMatrix(values=np.array([[1.0, 0.0, 0.0]], dtype=np.float32)), path
        )
        # 1 row * 3 dims * 4 bytes after the 15-byte header
        assert path.stat().st_size - (len(CACHE_MAGIC) + 8) == 1 * 3 * 4

    def test_synthetic_class_cache_dimensions(self, tmp_path):
        # 4 class-text embeddings at D=512: payload must be 4*512*4 bytes
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4, 512)).astype(np.float32)
        path = tmp_path / "classes.emb"
        write_embedding_cache(EmbeddingMatrix(values=rows), path)
        assert path.stat().st_size == len(CACHE_MAGIC) + 8 + 4 * 512 * 4
        back = read_embedding_cache(path)
        assert back.values.shape == (4, 512)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            read_embedding_cache(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.emb"
        write_embedding_cache(
            EmbeddingMatrix(values=np.ones((3, 2), dtype=np.float32)), path
        )
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])  # drop one row
        with pytest.raises(DataError, match="truncated"):
            read_embedding_cache(path)
        # a corrupt header declaring an absurd size fails before any allocation
        path.write_bytes(CACHE_MAGIC + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(8))
        with pytest.raises(DataError, match="truncated"):
            read_embedding_cache(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.emb"
        clean = np.ones((1, 2), dtype=np.float32)
        write_embedding_cache(EmbeddingMatrix(values=clean), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32("nan").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite") as err:
            read_embedding_cache(path)
        assert str(path) in str(err.value)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.emb"
        write_embedding_cache(EmbeddingMatrix(values=np.ones((2, 3), dtype=np.float32)), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match="rename refused"):
            write_embedding_cache(EmbeddingMatrix(values=np.zeros((4, 3), dtype=np.float32)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.emb"]

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(0, 6),
        dim=st.integers(1, 9),
        seed=st.integers(0, 2**31 - 1),
        magnitude=st.integers(-40, 38),
    )
    def test_round_trip_property(self, rows, dim, seed, magnitude, tmp_path_factory):
        # full finite float32 range, including subnormal magnitudes
        raw = np.random.default_rng(seed).standard_normal((rows, dim)) * 10.0 ** magnitude
        values = np.clip(raw, -3.0e38, 3.0e38).astype(np.float32)
        path = tmp_path_factory.mktemp("prop") / "m.emb"
        write_embedding_cache(EmbeddingMatrix(values=values), path)
        assert np.array_equal(read_embedding_cache(path).values, values)


class TestWriteAtomic:
    def test_failure_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous")

        def write(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(DataError, match=r"cannot write \S*out\.bin: disk full"):
            write_atomic(path, write)
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"a much longer previous content")
        write_atomic(path, lambda fh: fh.write(b"new"))
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestCacheIndex:
    def test_round_trip(self, tmp_path):
        index = {"img3": 0, "img1": 1, "img2": 2}
        path = tmp_path / "index.tsv"
        write_cache_index(index, path)
        assert load_cache_index(path) == index

    def test_bad_row_index(self, tmp_path):
        path = tmp_path / "index.tsv"
        for text, match in (
            ("img1\tnot-a-number\n", "row index"),
            ("x\t0\nx\t1\n", ":2: duplicate item id 'x'"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=match):
                load_cache_index(path)


class TestPromptBank:
    def make_bank(self):
        return PromptBank(
            prompts={
                "benign": ["a well-defined nodule", "smooth margins visible"],
                "malignant": ["irregular spiculated mass", "microcalcifications present"],
            },
            modalities={"benign": "ultrasound", "malignant": "ultrasound"},
            query_template="Give {n} ...",
            generator={"model": "test"},
        )

    def test_json_round_trip(self, tmp_path):
        bank = self.make_bank()
        path = tmp_path / "bank.json"
        write_prompt_bank(bank, path)
        back = load_prompt_bank(path)
        assert back.prompts == bank.prompts
        assert back.modalities == bank.modalities
        assert back.query_template == bank.query_template

    def test_prompts_must_be_a_list_of_strings(self, tmp_path):
        path = tmp_path / "bank.json"
        for prompts in ("xy", [1, 2]):
            path.write_text(json.dumps({"classes": [{"name": "benign", "prompts": prompts}]}))
            with pytest.raises(DataError, match="list of strings"):
                load_prompt_bank(path)

    def test_repeated_class_named_with_position(self, tmp_path):
        path = tmp_path / "bank.json"
        classes = [
            {"name": "a", "prompts": ["x y"]},
            {"name": "b", "prompts": ["u v"]},
            {"name": "a", "prompts": ["z w"]},
        ]
        path.write_text(json.dumps({"classes": classes}))
        with pytest.raises(DataError, match="class 'a' repeated at position 2"):
            load_prompt_bank(path)

    def test_validate_missing_class(self):
        bank = self.make_bank()
        with pytest.raises(DataError, match="missing"):
            bank.validate(make_catalog("benign", "malignant", "normal"))

    def test_validate_count_mismatch(self):
        bank = self.make_bank()
        with pytest.raises(DataError, match="expected 50"):
            bank.validate(make_catalog("benign", "malignant"), n_expected=50)

    def test_empty_prompt_rejected(self):
        bank = self.make_bank()
        bank.prompts["benign"][0] = "  "
        with pytest.raises(DataError, match="empty prompt"):
            bank.validate(make_catalog("benign", "malignant"))

    def test_validate_uneven_counts_rejected(self):
        bank = self.make_bank()
        bank.prompts["malignant"].append("a third finding")
        with pytest.raises(DataError, match=r"inconsistent prompt counts across classes: \[2, 3\]"):
            bank.validate(make_catalog("benign", "malignant"))

    def test_validate_ignores_classes_outside_the_catalog(self):
        bank = self.make_bank()
        bank.prompts["extra"] = ["", "same", "same"]
        assert bank.validate(make_catalog("benign", "malignant"), n_expected=2) == []

    def test_validate_notes_each_repeated_prompt(self):
        bank = self.make_bank()
        bank.prompts["benign"] = ["same", "same", "other", "same"]
        bank.prompts["malignant"] = ["x y", "z", "x y", "w"]
        notes = bank.validate(make_catalog("benign", "malignant"))
        assert notes == [
            "duplicate prompt in class benign: 'same'",
            "duplicate prompt in class benign: 'same'",
            "duplicate prompt in class malignant: 'x y'",
        ]


class TestEmbeddingMatrixInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix(values=np.array([[np.inf, 0.0]]))


class TestNormalizeRows:
    def test_equals_out_of_place_division(self):
        x = np.random.default_rng(3).standard_normal((50, 12)) * 4.0
        rows = x.copy()
        norms = normalize_rows(rows, "rows")
        assert np.array_equal(rows, x / np.linalg.norm(x, axis=1)[:, None])
        assert np.array_equal(norms, np.linalg.norm(x, axis=1))

    def test_out_leaves_rows_unchanged(self):
        x = np.random.default_rng(5).standard_normal((20, 7))
        rows, out = x.copy(), np.empty_like(x)
        normalize_rows(rows, "rows", out=out)
        assert np.array_equal(rows, x)
        assert np.array_equal(out, x / np.linalg.norm(x, axis=1)[:, None])

    def test_in_place_on_a_row_slice(self):
        x = np.random.default_rng(4).standard_normal((10, 6))
        big = x.copy()
        normalize_rows(big[3:7], "rows")
        assert np.array_equal(big[3:7], x[3:7] / np.linalg.norm(x[3:7], axis=1)[:, None])
        assert np.array_equal(big[:3], x[:3]) and np.array_equal(big[7:], x[7:])

    def test_zero_row_named(self):
        rows = np.ones((3, 4))
        rows[1] = 0.0
        with pytest.raises(DataError, match="zero-norm row 'img1' in cached image embeddings"):
            normalize_rows(rows.copy(), "cached image embeddings", ["img0", "img1", "img2"])
        with pytest.raises(DataError, match="zero-norm row 1 in images"):
            normalize_rows(rows.copy(), "images")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.context_length == 4
        assert cfg.learning_rate == 0.0025
        assert cfg.batch_size == 4
        assert cfg.epochs == 100
        assert cfg.prompts_per_class == 50
        assert cfg.context_init_text == "a photo of a"
        assert cfg.tau == 0.01
        assert cfg.beta == 100.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda1=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(tau=0.0)
        with pytest.raises(ConfigError):
            RunConfig(context_length=0)
        for key in ("lambda1", "lambda2", "zeta_s", "beta", "tau", "learning_rate"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=f"{key} must be finite"):
                    RunConfig(**{key: value})
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig(seed=-1)



def _checkpoint_bytes() -> bytes:
    rng_blob = _pack_rng_state(np.random.default_rng(3))
    return (
        CKPT_MAGIC + struct.pack("<III", CKPT_VERSION, 1, 2) + np.ones(2, "<f4").tobytes()
        + struct.pack("<II", 5, len(rng_blob)) + rng_blob
    )


CATALOG = make_catalog("benign", "malignant")
BANK = {"query_template": "q", "classes": [
    {"name": "benign", "modality": "ultrasound", "prompts": ["a b", "c d"]},
    {"name": "malignant", "prompts": ["e f", "g h"]},
]}
# (loader, a well-formed input) pairs; the property mutates the input or replaces it
LOADERS = {
    "catalog": (load_catalog, b"benign\tultrasound\nmalignant\tultrasound\n"),
    "manifest": (lambda p: load_manifest(p, CATALOG), b"a\tbenign\ttrain\nb\tmalignant\ttest\n"),
    "cache index": (load_cache_index, b"a\t0\nb\t1\n"),
    "prompt bank": (load_prompt_bank, json.dumps(BANK).encode()),
    "config": (parse_config, b'{"epochs": 3, "lambda1": 0.5, "eval_split": "val"}'),
    "embedding cache": (
        read_embedding_cache,
        CACHE_MAGIC + struct.pack("<II", 2, 3) + np.ones((2, 3), "<f4").tobytes(),
    ),
    "checkpoint": (load_checkpoint, _checkpoint_bytes()),
}


@st.composite
def loader_inputs(draw):
    kind = draw(st.sampled_from(sorted(LOADERS)))
    valid = LOADERS[kind][1]
    start = draw(st.integers(0, len(valid)))
    mutated = valid[:start] + draw(st.binary(max_size=8)) + valid[start + draw(st.integers(0, 8)):]
    return kind, draw(st.one_of(st.just(valid), st.just(mutated), st.binary(max_size=64)))


class TestLoadersOnArbitraryBytes:
    def test_well_formed_inputs_load(self, tmp_path):
        for load, valid in LOADERS.values():
            path = tmp_path / "input"
            path.write_bytes(valid)
            load(path)

    @settings(max_examples=200, deadline=None)
    @given(case=loader_inputs())
    def test_only_package_errors_escape(self, case, tmp_path_factory):
        kind, blob = case
        path = tmp_path_factory.mktemp("fuzz") / "input"
        path.write_bytes(blob)
        try:
            LOADERS[kind][0](path)
        except BmcoopError:
            pass

    def test_directory_and_non_utf8_are_named(self, tmp_path):
        for kind, (load, _) in LOADERS.items():
            with pytest.raises(BmcoopError, match="cannot read") as err:
                load(tmp_path)
            assert str(tmp_path) in str(err.value), kind
        path = tmp_path / "latin1"
        path.write_bytes(b"x\ta\ttrain\n\xff\xfe\ta\ttest\n")
        for kind in ("catalog", "manifest", "cache index", "prompt bank", "config"):
            with pytest.raises(BmcoopError, match="not UTF-8 text") as err:
                LOADERS[kind][0](path)
            assert str(path) in str(err.value), kind

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        catalog_path, manifest_path = tmp_path / "catalog.tsv", tmp_path / "m.tsv"
        catalog_path.write_bytes(bom + LOADERS["catalog"][1])
        manifest_path.write_bytes(bom + LOADERS["manifest"][1])
        catalog = load_catalog(catalog_path)
        assert catalog.names == ["benign", "malignant"]
        manifest = load_manifest(manifest_path, catalog)
        assert manifest.item_ids == ["a", "b"]
        assert list(manifest.labels) == [0, 1]
        config_path = tmp_path / "c.json"
        config_path.write_bytes(bom + LOADERS["config"][1])
        assert parse_config(config_path).run.epochs == 3

    def test_byte_order_mark_keeps_the_error_offset(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_bytes(b"\xef\xbb\xbfab\xff\tx\n")
        with pytest.raises(DataError, match="invalid byte at offset 5"):
            load_catalog(path)
