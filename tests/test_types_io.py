"""Core types and file formats: manifests, catalogs, banks, embedding caches."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcoop.errors import ConfigError, DataError
from bmcoop.io import (
    CACHE_MAGIC,
    load_cache_index,
    load_catalog,
    load_manifest,
    load_prompt_bank,
    read_embedding_cache,
    write_cache_index,
    write_catalog,
    write_embedding_cache,
    write_manifest,
    write_prompt_bank,
)
from bmcoop.types import (
    ClassCatalog,
    ClassEntry,
    EmbeddingMatrix,
    PromptBank,
    RunConfig,
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
        catalog = make_catalog("zebra", "alpha", "middle")
        path = tmp_path / "catalog.tsv"
        write_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.names == ["zebra", "alpha", "middle"]
        assert loaded.index_of("middle") == 2


class TestManifest:
    def test_three_row_train_manifest(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tbenign\ttrain\nb\tmalignant\ttrain\nc\tbenign\ttrain\n")
        manifest = load_manifest(path, make_catalog("benign", "malignant"))
        assert len(manifest) == 3
        assert manifest.split_counts() == {"train": 3}

    def test_unknown_class_named_in_error(self, tmp_path):
        path = tmp_path / "m.tsv"
        for text, match in (
            ("a\tcyst\ttrain\n", "cyst"),
            ("a\tbenign\ttrain\nb\tbenign\ttrain\na\tmalignant\ttest\n", ":3: duplicate item id 'a'"),
        ):
            path.write_text(text)
            with pytest.raises(DataError, match=match):
                load_manifest(path, make_catalog("benign", "malignant"))

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
        assert manifest.split_counts() == counts

    def test_load_save_load_identity(self, tmp_path):
        catalog = make_catalog("benign", "malignant")
        path = tmp_path / "m.tsv"
        path.write_text("x1\tbenign\ttrain\nx2\tmalignant\tval\nx3\tbenign\ttest\n")
        first = load_manifest(path, catalog)
        out = tmp_path / "m2.tsv"
        write_manifest(first, out)
        second = load_manifest(out, catalog)
        assert first.records == second.records

    def test_record_order_preserved(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("z\tbenign\ttrain\na\tbenign\ttrain\n")
        manifest = load_manifest(path, make_catalog("benign"))
        assert [r.item_id for r in manifest.records] == ["z", "a"]


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

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.emb"
        clean = np.ones((1, 2), dtype=np.float32)
        write_embedding_cache(EmbeddingMatrix(values=clean), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32("nan").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite"):
            read_embedding_cache(path)

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


class TestEmbeddingMatrixInvariants:
    def test_normalized_flag_enforced(self):
        with pytest.raises(DataError, match="unit"):
            EmbeddingMatrix(values=np.array([[3.0, 4.0]]), normalized=True)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingMatrix(values=np.array([[np.inf, 0.0]]))


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

    def test_with_overrides_unknown_key(self):
        with pytest.raises(ConfigError, match="lamda1"):
            RunConfig().with_overrides(lamda1=1.0)
