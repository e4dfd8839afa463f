"""Config parsing and end-to-end command flows on a generated toy dataset."""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bmcoop import cli
from bmcoop.backbone import SyntheticTextEncoder, SyntheticVisionEncoder, encode_text_with_context
from bmcoop.cli import _eval_logits, _load_inputs, parse_config, run
from bmcoop.ensemble import mean_ensemble
from bmcoop.errors import ConfigError
from bmcoop.evaluation import accuracy
from bmcoop.io import (
    EmbeddingMatrix,
    load_cache_index,
    read_embedding_cache,
    write_cache_index,
    write_embedding_cache,
    write_prompt_bank,
)
from bmcoop.objective import class_probabilities, cosine_logits, predict
from bmcoop.trainer import TrainState, load_checkpoint, save_checkpoint
from bmcoop.types import BLOCK_ROWS, PromptBank
from conftest import (
    DESK_DIM,
    DESK_ENCODER_SEED,
    DESK_WIDTH,
    build_desk_task,
    build_two_shell_outlier,
    encode_context,
    per_prompt_encode,
)


class TestParseConfig:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_empty_object_gives_defaults(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, {}))
        assert cfg.run.learning_rate == 0.0025
        assert cfg.run.batch_size == 4
        assert cfg.run.epochs == 100
        assert cfg.run.context_length == 4

    def test_reference_hyperparameter_row(self, tmp_path):
        cfg = parse_config(
            self.write(tmp_path, {"lambda1": 0.5, "lambda2": 0.25, "zeta_s": 1.5})
        )
        assert (cfg.run.lambda1, cfg.run.lambda2, cfg.run.zeta_s) == (0.5, 0.25, 1.5)

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="lamda1"):
            parse_config(self.write(tmp_path, {"lamda1": 1}))

    def test_repeated_key_named(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"lambda1": 0.5, "seed": 2, "lambda1": 0}')
        with pytest.raises(ConfigError, match="'lambda1' is given more than once"):
            parse_config(path)

    def test_type_mismatch_named(self, tmp_path):
        for key, value in (("epochs", "ten"), ("lambda1", 10**400)):
            with pytest.raises(ConfigError, match=key):
                parse_config(self.write(tmp_path, {key: value}))

    def test_non_finite_json_rejected(self, tmp_path):
        # Python's json module reads the NaN and Infinity literals
        for text in ('{"lambda1": NaN, "tau": NaN}', '{"beta": Infinity}',
                     '{"learning_rate": -Infinity}'):
            path = tmp_path / "config.json"
            path.write_text(text)
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config(path)

    def test_non_finite_override_rejected(self, tmp_path):
        for item in ("learning_rate=nan", "tau=inf", "zeta_s=-inf", "lambda2=NaN"):
            with pytest.raises(ConfigError, match=f"{item.split('=')[0]} must be finite"):
                parse_config(self.write(tmp_path, {}), [item])

    def test_overrides_apply(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, {"seed": 1}), ["seed=9", "lambda1=0.75"])
        assert cfg.run.seed == 9
        assert cfg.run.lambda1 == 0.75

    def test_override_must_be_run_key(self, tmp_path):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config(self.write(tmp_path, {}), ["out_dir=/tmp/x"])

    def test_digest_tracks_effective_config(self, tmp_path):
        base = parse_config(self.write(tmp_path, {"seed": 1}))
        overridden = parse_config(self.write(tmp_path, {"seed": 1}), ["seed=2"])
        same = parse_config(self.write(tmp_path, {"seed": 2}))
        assert base.digest != overridden.digest
        assert overridden.digest == same.digest

    def test_digests_pinned(self, tmp_path):
        # literals recorded before the config schema was rewritten; they are
        # the config_digest stamped into eval and prompt-score reports
        readme = {
            "catalog": "data/catalog.tsv", "manifest": "data/manifest.tsv",
            "image_cache": "data/images.emb", "image_index": "data/images.idx",
            "bank_cache": "data/bank.emb", "out_dir": "runs/demo",
            "shots": 16, "lambda1": 0.5, "lambda2": 0.25, "zeta_s": 1.5,
        }
        every_group = {
            "epochs": 30, "tau": 0.02, "lambda2": 1, "context_init_text": "an image of",
            "checkpoint": "runs/x.ckpt", "eval_split": "val", "llm_model": "m",
            "llm_timeout": 60, "llm_max_retries": 5,
        }
        overrides = ["epochs=7", "lambda1=0.75", "context_init_text=a scan of"]
        for doc, args, digest in (
            (readme, [], "ee0e326309c70e5bbff573ee6041d37e3edd3eb73e9518d4f0d30723d6e11149"),
            (every_group, [], "d45f6eaa7661eb94ee8a521a5eeb841dc9edb2a5254c808f76a539d04d8440d7"),
            ({"seed": 1}, overrides, "068281a181ab4801d2dcbfb100b8043991354dcec265621e427f8a7c50ecea02"),
        ):
            assert parse_config(self.write(tmp_path, doc), args).digest == digest


@pytest.fixture
def toy_dataset(tmp_path):
    """Catalog, manifest, image cache, and aligned bank cache on disk."""
    task = build_desk_task()
    names = task.names
    catalog_path = tmp_path / "catalog.tsv"
    catalog_path.write_text("".join(f"{n}\tMRI\n" for n in names))

    rng = np.random.default_rng(1234)
    records, rows, index = [], [], {}
    for split, per_class, seed in (("train", 20, 11), ("val", 5, 12), ("test", 30, 13)):
        images, labels = task.sample(per_class, seed)
        for i, (row, label) in enumerate(zip(images, labels)):
            item = f"{split}-{names[label].split()[0]}-{i}"
            records.append(f"{item}\t{names[label]}\t{split}\n")
            index[item] = len(rows)
            rows.append(row)
    manifest_path = tmp_path / "manifest.tsv"
    manifest_path.write_text("".join(records))

    cache_path = tmp_path / "images.emb"
    write_embedding_cache(
        EmbeddingMatrix(values=np.stack(rows).astype(np.float32)), cache_path
    )
    index_path = tmp_path / "images.idx"
    write_cache_index(index, index_path)

    bank_cache_path = tmp_path / "bank.emb"
    stacked = np.vstack(task.aligned_bank(n=20)).astype(np.float32)
    write_embedding_cache(EmbeddingMatrix(values=stacked), bank_cache_path)

    config = {
        "catalog": str(catalog_path),
        "manifest": str(manifest_path),
        "image_cache": str(cache_path),
        "image_index": str(index_path),
        "bank_cache": str(bank_cache_path),
        "out_dir": str(tmp_path / "out"),
        "embedding_dim": DESK_DIM,
        "token_width": DESK_WIDTH,
        "encoder_seed": DESK_ENCODER_SEED,
        "epochs": 5,
        "shots": 8,
        "lambda1": 0.0,
        "lambda2": 0.0,
        "dataset_name": "toy-mri",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config, config_path


def rewrite(config_path, config, **changes):
    doc = dict(config)
    doc.update(changes)
    config_path.write_text(json.dumps(doc))
    return config_path


class TestTrainEval:
    def test_train_writes_artifacts(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        assert run("train", str(config_path)) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "train_log.tsv").exists()
        lines = (out / "train_log.tsv").read_text().splitlines()
        assert len(lines) == 5

    def test_train_is_byte_deterministic(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        run("train", str(config_path))
        first = (tmp_path / "out" / "checkpoint.ckpt").read_bytes()
        first_log = (tmp_path / "out" / "train_log.tsv").read_bytes()
        run("train", str(config_path))
        assert (tmp_path / "out" / "checkpoint.ckpt").read_bytes() == first
        assert (tmp_path / "out" / "train_log.tsv").read_bytes() == first_log

    def test_train_with_distillation(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        rewrite(config_path, config, lambda1=0.5, lambda2=0.25)
        assert run("train", str(config_path)) == 0

    def test_eval_zero_shot_runs_without_checkpoint(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        assert run("eval", str(config_path)) == 0
        doc = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert doc["dataset"] == "toy-mri"
        assert 0.0 <= doc["mean"] <= 100.0
        assert doc["classifier"] == "context"

    def test_eval_after_train_improves_over_zero_shot(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        run("eval", str(config_path))
        zero_shot = json.loads((tmp_path / "out" / "eval_report.json").read_text())["mean"]
        rewrite(config_path, config, epochs=40)
        run("train", str(config_path))
        rewrite(
            config_path, config,
            checkpoint=str(tmp_path / "out" / "checkpoint.ckpt"),
        )
        run("eval", str(config_path))
        trained = json.loads((tmp_path / "out" / "eval_report.json").read_text())["mean"]
        assert trained >= zero_shot

    def test_eval_ensemble_classifier(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        rewrite(config_path, config, eval_classifier="ensemble")
        assert run("eval", str(config_path)) == 0
        doc = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert doc["classifier"] == "ensemble"
        # aligned bank means are near the class centroids: high accuracy
        assert doc["mean"] > 90.0

    def test_eval_accuracy_matches_class_probabilities(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        rewrite(config_path, config, epochs=3)
        assert run("train", str(config_path)) == 0

        handle = SyntheticTextEncoder(
            seed=DESK_ENCODER_SEED, embedding_dim=DESK_DIM, token_width=DESK_WIDTH, tau=0.01
        )
        names = [line.split("\t")[0] for line in (tmp_path / "catalog.tsv").read_text().splitlines()]
        index = load_cache_index(tmp_path / "images.idx")
        cache = read_embedding_cache(tmp_path / "images.emb").values.astype(np.float64)
        records = [line.split("\t") for line in (tmp_path / "manifest.tsv").read_text().splitlines()]
        test = [(item, name) for item, name, split in records if split == "test"]
        images = cache[[index[item] for item, _ in test]]
        labels = np.array([names.index(name) for _, name in test])
        ctx = load_checkpoint(tmp_path / "out" / "checkpoint.ckpt").ctx
        bank = read_embedding_cache(tmp_path / "bank.emb").values.astype(np.float64)
        classifiers = {
            # eval projects the stored context
            "context": encode_context(handle, ctx, names)[0],
            "ensemble": mean_ensemble(bank.reshape(len(names), -1, bank.shape[1])),
        }
        for classifier, embeds in classifiers.items():
            rewrite(
                config_path, config, eval_classifier=classifier,
                checkpoint=str(tmp_path / "out" / "checkpoint.ckpt"),
            )
            assert run("eval", str(config_path)) == 0
            doc = json.loads((tmp_path / "out" / "eval_report.json").read_text())
            predicted = predict(class_probabilities(images, embeds, 0.01))
            assert doc["accuracies"] == [accuracy(predicted, labels)], classifier

    def test_eval_logits_score_the_indexed_cache_rows(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        cfg = parse_config(config_path)
        catalog, manifest, source = _load_inputs(cfg)
        embeds = np.random.default_rng(3).standard_normal((len(catalog), DESK_DIM))
        logits, labels = _eval_logits(cfg, manifest, source, embeds, 0.01)
        records = [line.split("\t") for line in (tmp_path / "manifest.tsv").read_text().splitlines()]
        test = [(item, name) for item, name, split in records if split == "test"]
        assert labels.dtype == np.intp
        assert list(labels) == [catalog.names.index(name) for _, name in test]
        # the stored rows of the split's item ids, in manifest order
        cache = read_embedding_cache(tmp_path / "images.emb").values
        index = load_cache_index(tmp_path / "images.idx")
        rows = cache[[index[item] for item, _ in test]]
        assert np.array_equal(logits, cosine_logits(rows, embeds, 0.01))

    def test_eval_report_is_deterministic(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        run("eval", str(config_path))
        first = (tmp_path / "out" / "eval_report.json").read_bytes()
        run("eval", str(config_path))
        assert (tmp_path / "out" / "eval_report.json").read_bytes() == first


class TestBaseToNovel:
    def test_report_fields(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        assert run("base-to-novel", str(config_path)) == 0
        doc = json.loads((tmp_path / "out" / "base_to_novel_report.json").read_text())
        assert doc["base"] is not None and doc["novel"] is not None
        expected_hm = 2 * doc["base"] * doc["novel"] / (doc["base"] + doc["novel"])
        assert doc["hm"] == pytest.approx(expected_hm, abs=1e-9)
        assert doc["base_classes"] == ["glioma tumor", "meningioma tumor"]
        assert doc["novel_classes"] == ["normal brain"]
        assert doc["train_epochs"] == 5  # explicit epochs in config wins

    def test_zero_halves_fail_after_checkpoint_and_log(self, toy_dataset, capsys, monkeypatch):
        tmp_path, config, config_path = toy_dataset
        monkeypatch.setattr(cli, "_accuracy", lambda logits, labels, first, stop: 0.0)
        assert run("base-to-novel", str(config_path)) == 3
        assert "harmonic mean undefined when both accuracies are zero" in capsys.readouterr().err
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["checkpoint.ckpt", "train_log.tsv"]

    def test_default_epochs_when_not_explicit(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        doc = dict(config)
        doc.pop("epochs")
        doc["shots"] = 8
        config_path.write_text(json.dumps(doc))
        assert run("base-to-novel", str(config_path)) == 0
        report = json.loads((tmp_path / "out" / "base_to_novel_report.json").read_text())
        assert report["train_epochs"] == 50

    def test_accuracies_match_per_subset_computation(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        assert run("base-to-novel", str(config_path)) == 0
        doc = json.loads((tmp_path / "out" / "base_to_novel_report.json").read_text())

        handle = SyntheticTextEncoder(
            seed=DESK_ENCODER_SEED, embedding_dim=DESK_DIM, token_width=DESK_WIDTH, tau=0.01
        )
        state = load_checkpoint(tmp_path / "out" / "checkpoint.ckpt")
        index = load_cache_index(tmp_path / "images.idx")
        cache = read_embedding_cache(tmp_path / "images.emb").values.astype(np.float64)
        records = [line.split("\t") for line in (tmp_path / "manifest.tsv").read_text().splitlines()]

        def subset_accuracy(names):
            test = [(item, name) for item, name, split in records if split == "test" and name in names]
            images = cache[[index[item] for item, _ in test]]
            images /= np.linalg.norm(images, axis=1, keepdims=True)
            # base-to-novel encodes from the trained s
            embeds, _ = encode_text_with_context(handle, state.s, len(state.ctx), names)
            predicted = np.argmax(images @ embeds.T, axis=1)
            labels = np.array([names.index(name) for _, name in test])
            return 100.0 * int(np.sum(predicted == labels)) / len(test)

        names = [line.split("\t")[0] for line in (tmp_path / "catalog.tsv").read_text().splitlines()]
        assert doc["base"] == subset_accuracy(names[:2])
        assert doc["novel"] == subset_accuracy(names[2:])
        assert doc["accuracies"] == [subset_accuracy(names)]


class TestEncodeCommands:
    def features_config(self, tmp_path, index):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10, 6)).astype(np.float32)
        write_embedding_cache(EmbeddingMatrix(values=feats), tmp_path / "feats.emb")
        write_cache_index(index, tmp_path / "feats.idx")
        config = {
            "features_cache": str(tmp_path / "feats.emb"),
            "features_index": str(tmp_path / "feats.idx"),
            "image_cache": str(tmp_path / "images.emb"),
            "image_index": str(tmp_path / "images.idx"),
            "embedding_dim": 16,
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        return config_path

    def test_encode_images_synthetic_path(self, tmp_path):
        config_path = self.features_config(tmp_path, {f"it{i}": i for i in range(10)})
        assert run("encode-images", str(config_path)) == 0
        out = read_embedding_cache(tmp_path / "images.emb")
        assert out.values.shape == (10, 16)
        norms = np.linalg.norm(out.values.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5

    def test_encode_images_streams_the_rows_of_one_encode(self, tmp_path):
        config_path = self.features_config(tmp_path, {"it0": 0})
        feats = np.random.default_rng(1).standard_normal((2 * BLOCK_ROWS + 3, 6))
        write_embedding_cache(EmbeddingMatrix(values=feats.astype(np.float32)), tmp_path / "feats.emb")
        assert run("encode-images", str(config_path)) == 0
        features = read_embedding_cache(tmp_path / "feats.emb").values
        expected = SyntheticVisionEncoder(feature_dim=6, embedding_dim=16).encode(features)
        assert np.array_equal(read_embedding_cache(tmp_path / "images.emb").values, expected)

    def test_encode_images_zero_row_names_the_item(self, tmp_path, capsys, monkeypatch):
        # no float32 feature cancels a float64 bias exactly, so zero the bias:
        # an all-zero feature row then encodes to an exactly zero row
        class Unbiased(SyntheticVisionEncoder):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.bias = np.zeros(self.embedding_dim)

        monkeypatch.setattr(cli, "SyntheticVisionEncoder", Unbiased)
        config_path = self.features_config(tmp_path, {f"it{i}": 9 - i for i in range(10)})
        feats = read_embedding_cache(tmp_path / "feats.emb").values.copy()
        feats[7] = 0.0  # the row of it2
        write_embedding_cache(EmbeddingMatrix(values=feats), tmp_path / "feats.emb")
        assert run("encode-images", str(config_path)) == 3
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("bmcoop-error")]
        assert len(lines) == 1
        assert "category=data" in lines[0] and "zero-norm row 'it2' " in lines[0]
        # a row that no id points to is named by its index
        write_cache_index({f"it{i}": 9 - i for i in range(10) if i != 2}, tmp_path / "feats.idx")
        assert run("encode-images", str(config_path)) == 3
        assert "zero-norm row 7 in image embeddings" in capsys.readouterr().err
        assert not (tmp_path / "images.emb").exists()

    def test_encode_images_rejects_index_outside_features(self, tmp_path, capsys):
        config_path = self.features_config(tmp_path, {"it0": 0, "it1": 999999})
        assert run("encode-images", str(config_path)) == 3
        assert "cache index points outside the matrix: rows [999999]" in capsys.readouterr().err
        assert not (tmp_path / "images.emb").exists()
        assert not (tmp_path / "images.idx").exists()

    def test_encode_bank_stacks_catalog_order(self, tmp_path):
        (tmp_path / "catalog.tsv").write_text("benign\tultrasound\nmalignant\tultrasound\n")
        bank = PromptBank(
            prompts={
                "malignant": [f"malignant case {i}" for i in range(4)],
                "benign": [f"benign case {i}" for i in range(4)],
            },
            modalities={"benign": "ultrasound", "malignant": "ultrasound"},
        )
        write_prompt_bank(bank, tmp_path / "bank.json")
        config = {
            "catalog": str(tmp_path / "catalog.tsv"),
            "bank": str(tmp_path / "bank.json"),
            "bank_cache": str(tmp_path / "bank.emb"),
            "embedding_dim": 16,
            "token_width": 24,
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert run("encode-bank", str(config_path)) == 0
        out = read_embedding_cache(tmp_path / "bank.emb")
        assert out.values.shape == (8, 16)
        handle = SyntheticTextEncoder(seed=0, embedding_dim=16, token_width=24)
        # row 0 is the first benign prompt (catalog order, not bank order)
        expected = per_prompt_encode(handle, "benign case 0").astype(np.float32)
        assert np.array_equal(out.values[0], expected)

    def test_encode_bank_ignores_classes_outside_the_catalog(self, tmp_path):
        (tmp_path / "catalog.tsv").write_text("lesion\tMRI\n")
        lesion = ["a bright lesion", "a dark lesion"]
        caches = []
        for name, prompts in (("catalog-only", {"lesion": lesion}),
                              ("with-extra", {"lesion": lesion, "extra": ["an extra class"]})):
            bank = PromptBank(prompts=prompts, modalities={c: "MRI" for c in prompts})
            write_prompt_bank(bank, tmp_path / f"{name}.json")
            config_path = tmp_path / f"{name}.c.json"
            config_path.write_text(json.dumps({
                "catalog": str(tmp_path / "catalog.tsv"),
                "bank": str(tmp_path / f"{name}.json"),
                "bank_cache": str(tmp_path / f"{name}.emb"),
                "embedding_dim": 16,
                "token_width": 24,
            }))
            assert run("encode-bank", str(config_path)) == 0, name
            caches.append((tmp_path / f"{name}.emb").read_bytes())
        assert caches[0] == caches[1]


class TestSelectCommand:
    def test_planted_outlier_is_the_only_exclusion(self, tmp_path):
        bank, images, outlier_idx = build_two_shell_outlier(seed=3, dim=16)
        (tmp_path / "catalog.tsv").write_text("lesion\tMRI\n")
        lines, index = [], {}
        for i in range(images.shape[0]):
            lines.append(f"img{i}\tlesion\ttrain\n")
            index[f"img{i}"] = i
        (tmp_path / "manifest.tsv").write_text("".join(lines))
        write_embedding_cache(
            EmbeddingMatrix(values=images.astype(np.float32)), tmp_path / "images.emb"
        )
        write_cache_index(index, tmp_path / "images.idx")
        write_embedding_cache(
            EmbeddingMatrix(values=bank.astype(np.float32)),
            tmp_path / "bank.emb",
        )
        config = {
            "catalog": str(tmp_path / "catalog.tsv"),
            "manifest": str(tmp_path / "manifest.tsv"),
            "image_cache": str(tmp_path / "images.emb"),
            "image_index": str(tmp_path / "images.idx"),
            "bank_cache": str(tmp_path / "bank.emb"),
            "out_dir": str(tmp_path / "out"),
            "shots": 8,
            "embedding_dim": 16,
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert run("select", str(config_path)) == 0
        doc = json.loads((tmp_path / "out" / "prompt_scores.json").read_text())
        entry = doc["classes"][0]
        assert entry["excluded_indices"] == [outlier_idx]
        assert outlier_idx not in entry["selected_indices"]
        assert entry["n_selected"] == bank.shape[0] - 1


class TestGenPrompts:
    def test_offline_fallback(self, tmp_path):
        (tmp_path / "catalog.tsv").write_text("lesion\tMRI\n")
        bank = PromptBank(
            prompts={"lesion": [f"finding {i}" for i in range(5)]},
            modalities={"lesion": "MRI"},
        )
        write_prompt_bank(bank, tmp_path / "fallback.json")
        config = {
            "catalog": str(tmp_path / "catalog.tsv"),
            "bank": str(tmp_path / "bank.json"),
            "llm_fallback_bank": str(tmp_path / "fallback.json"),
            "prompts_per_class": 5,
        }
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config))
        assert run("gen-prompts", str(config_path)) == 0
        assert (tmp_path / "bank.json").exists()


# per command: config changes on the toy dataset, and the primary artifacts
# it writes, relative to the dataset directory
SIDECAR_RUNS = {
    "gen-prompts": ({"bank": "generated.json", "llm_fallback_bank": "bank.json",
                     "prompts_per_class": 4}, ["generated.json"]),
    "encode-bank": ({"bank": "bank.json", "bank_cache": "encoded_bank.emb"},
                    ["encoded_bank.emb"]),
    "encode-images": ({"features_cache": "images.emb", "features_index": "images.idx",
                       "image_cache": "encoded.emb", "image_index": "encoded.idx"},
                      ["encoded.emb", "encoded.idx"]),
    "select": ({}, ["out/prompt_scores.json"]),
    "train": ({}, ["out/checkpoint.ckpt", "out/train_log.tsv"]),
    "eval": ({}, ["out/eval_report.json"]),
    "base-to-novel": ({}, ["out/checkpoint.ckpt", "out/train_log.tsv",
                           "out/base_to_novel_report.json"]),
}


@pytest.mark.parametrize("command", list(SIDECAR_RUNS))
def test_every_primary_artifact_has_one_meta(toy_dataset, command):
    tmp_path, config, config_path = toy_dataset
    changes, artifacts = SIDECAR_RUNS[command]
    names = [line.split("\t")[0] for line in (tmp_path / "catalog.tsv").read_text().splitlines()]
    bank = PromptBank(prompts={n: [f"{n} finding {i}" for i in range(4)] for n in names},
                      modalities={n: "MRI" for n in names})
    write_prompt_bank(bank, tmp_path / "bank.json")
    rewrite(config_path, config, **{k: str(tmp_path / v) if isinstance(v, str) else v
                                    for k, v in changes.items()})

    def files():
        return {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    assert run(command, str(config_path)) == 0
    written = files() - before
    assert written == {*artifacts, *(f"{a}.meta" for a in artifacts)}
    cfg = parse_config(config_path)
    for artifact in artifacts:
        meta = json.loads((tmp_path / f"{artifact}.meta").read_text())
        assert set(meta) == {"command", "config_digest", "created_unix", "host", "seed"}
        assert (meta["command"], meta["config_digest"], meta["seed"]) == (
            command, cfg.digest, cfg.run.seed), artifact


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"lamda1": 1}))
        assert run("train", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("bmcoop-error category=config")
        assert err.count("\n") == 1  # single line

    def test_data_error_is_3(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "catalog": str(tmp_path / "missing.tsv"),
            "manifest": str(tmp_path / "missing2.tsv"),
            "image_cache": "x", "image_index": "y",
        }))
        assert run("train", str(config_path)) == 3
        assert "category=data" in capsys.readouterr().err

    def test_truncated_checkpoint_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"BMCCKPT1\x01\x00")
        rewrite(config_path, config, checkpoint=str(ckpt))
        assert run("eval", str(config_path)) == 3
        assert "category=data" in capsys.readouterr().err

    def test_absurd_geometry_is_2(self, toy_dataset, capsys):
        # a (10^15, W) context would be asked for; it is refused before any work
        tmp_path, config, config_path = toy_dataset
        assert run("train", str(config_path), ["context_length=1000000000000000"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("bmcoop-error")]
        assert len(errors) == 1
        assert errors[0].startswith("bmcoop-error category=config ")
        assert "context_length must be at most" in errors[0]

    def test_missing_item_named_only_when_requested(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        index = load_cache_index(tmp_path / "images.idx")
        test_ids = [item for item in index if item.startswith("test-")]
        # a val item is never requested when eval scores the test split
        del index[next(item for item in index if item.startswith("val-"))]
        write_cache_index(index, tmp_path / "images.idx")
        for command in ("train", "eval"):
            assert run(command, str(config_path)) == 0
        # the first missing test item in manifest order is named
        del index[test_ids[9]], index[test_ids[4]]
        write_cache_index(index, tmp_path / "images.idx")
        assert run("eval", str(config_path)) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("bmcoop-error")]
        assert len(errors) == 1
        assert f"item id {test_ids[4]!r} not present in the embedding cache index" in errors[0]

    def test_index_row_beyond_the_int_digit_limit_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        index_path = tmp_path / "images.idx"
        lines = index_path.read_text().count("\n")
        with index_path.open("a") as fh:
            fh.write("huge\t" + "1" * 5000 + "\n")
        assert run("train", str(config_path)) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("bmcoop-error")]
        assert len(errors) == 1
        assert errors[0].startswith("bmcoop-error category=data ")
        assert f"images.idx:{lines + 1}: row index too long: 5000 digits" in errors[0]

    def test_negative_seed_is_2(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        for command in ("train", "select"):
            assert run(command, str(config_path), ["seed=-1"]) == 2
            assert "seed must be >= 0" in capsys.readouterr().err

    def test_width_mismatch_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        # class text 16 wide against the 32-wide image cache
        assert run("train", str(config_path), ["embedding_dim=16"]) == 3
        assert "image width 32 does not match class-embedding width 16" in capsys.readouterr().err
        narrow = tmp_path / "narrow_bank.emb"
        write_embedding_cache(EmbeddingMatrix(values=np.eye(6, 16, dtype=np.float32)), narrow)
        rewrite(config_path, config, eval_classifier="ensemble", bank_cache=str(narrow))
        assert run("eval", str(config_path)) == 3
        assert "image width 32 does not match class-embedding width 16" in capsys.readouterr().err

    def test_empty_catalog_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        (tmp_path / "empty.tsv").write_text("")
        (tmp_path / "images.idx").write_text("")
        (tmp_path / "manifest.tsv").write_text("")
        write_prompt_bank(
            PromptBank(prompts={"a": ["a b"]}, modalities={"a": "MRI"}), tmp_path / "bank.json"
        )
        rewrite(
            config_path, config, catalog=str(tmp_path / "empty.tsv"),
            bank=str(tmp_path / "bank.json"), lambda1=0.5,
        )
        for command in ("select", "train", "encode-bank"):
            assert run(command, str(config_path)) == 3, command
            assert "empty.tsv: catalog lists no classes" in capsys.readouterr().err

    def test_network_error_is_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("BMCOOP_API_KEY", raising=False)
        (tmp_path / "catalog.tsv").write_text("lesion\tMRI\n")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "catalog": str(tmp_path / "catalog.tsv"),
            "bank": str(tmp_path / "bank.json"),
            "llm_base_url": "http://127.0.0.1:1/v1",
            "llm_model": "none",
        }))
        assert run("gen-prompts", str(config_path)) == 5
        assert "category=network" in capsys.readouterr().err

    def test_unwritable_outputs_are_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        ckpt = tmp_path / "out" / "checkpoint.ckpt"
        ckpt.mkdir(parents=True)
        assert run("train", str(config_path)) == 3
        assert f"cannot write {ckpt}" in capsys.readouterr().err
        taken = tmp_path / "taken"
        taken.write_text("")
        rewrite(config_path, config, out_dir=str(taken))
        for command in ("select", "train", "eval", "base-to-novel"):
            assert run(command, str(config_path)) == 3, command
            assert f"cannot create output directory {taken}" in capsys.readouterr().err

    def test_zero_width_bank_cache_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        flat = tmp_path / "flat.emb"
        write_embedding_cache(EmbeddingMatrix(values=np.zeros((8 * 3, 0), dtype=np.float32)), flat)
        rewrite(config_path, config, bank_cache=str(flat), lambda1=0.5, eval_classifier="ensemble")
        for command in ("select", "train", "eval"):
            assert run(command, str(config_path)) == 3, command
            assert "flat.emb: header declares rows of width 0" in capsys.readouterr().err

    def test_nan_checkpoint_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(TrainState(ctx=np.zeros((2, 3)), s=np.zeros(4), h_sum=np.zeros(4),
                                   encoder="ab" * 32, epoch=0, rng=np.random.default_rng(0)), ckpt)
        # the writer refuses a NaN payload, so the NaNs go in after the 20-byte header by hand
        data = bytearray(ckpt.read_bytes())
        data[20 : 20 + 6 * 4] = np.full(6, np.nan, "<f4").tobytes()
        ckpt.write_bytes(data)
        rewrite(config_path, config, checkpoint=str(ckpt))
        assert run("eval", str(config_path)) == 3
        err = capsys.readouterr().err
        assert "category=data" in err and "checkpoint context contains non-finite values" in err

    def test_checkpoint_of_another_encoder_seed_is_3(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        assert run("train", str(config_path), ["encoder_seed=9"]) == 0
        rewrite(config_path, config, checkpoint=str(tmp_path / "out" / "checkpoint.ckpt"))
        assert run("eval", str(config_path)) == 3
        err = capsys.readouterr().err
        digests = [
            SyntheticTextEncoder(seed=seed, embedding_dim=DESK_DIM, token_width=DESK_WIDTH)
            .parameter_digest() for seed in (9, DESK_ENCODER_SEED)
        ]
        assert "category=data" in err and all(digest in err for digest in digests)

    @pytest.mark.parametrize("command", ["train", "base-to-novel"])
    def test_context_overflow_on_the_last_step_is_4(self, toy_dataset, capsys, command):
        tmp_path, config, config_path = toy_dataset
        # one step per run, so only the context check can see the overflow
        rewrite(config_path, config, epochs=1, shots=1, batch_size=4, learning_rate=1e40)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(command, str(config_path)) == 4
        assert "non-finite context at epoch 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        dump = json.loads(config_path.with_suffix(".abort.json").read_text(), parse_constant=strict)
        assert set(dump) == {
            "epoch", "batch_start", "ce", "sccm", "kdsp", "ctx_norm", "grad_norm",
        }
        assert dump["ctx_norm"] == "inf"

    @pytest.mark.parametrize("command", ["eval", "base-to-novel"])
    def test_empty_eval_split_is_3(self, toy_dataset, capsys, command):
        tmp_path, config, config_path = toy_dataset
        manifest = tmp_path / "manifest.tsv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if not line.endswith("\tval\n")))
        rewrite(config_path, config, eval_split="val")
        assert run(command, str(config_path)) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("bmcoop-error")]
        assert len(errors) == 1
        assert errors[0].startswith("bmcoop-error category=data ")
        assert "no items in the eval split" in errors[0]

    def test_zero_image_row_is_3_naming_the_item(self, toy_dataset, capsys):
        tmp_path, config, config_path = toy_dataset
        cache = read_embedding_cache(tmp_path / "images.emb").values.copy()
        cache[load_cache_index(tmp_path / "images.idx")["test-glioma-3"]] = 0.0
        write_embedding_cache(EmbeddingMatrix(values=cache), tmp_path / "images.emb")
        assert run("eval", str(config_path)) == 3
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("bmcoop-error")]
        assert len(lines) == 1
        assert "category=data" in lines[0] and "'test-glioma-3'" in lines[0]

    def test_zero_cache_row_past_the_first_block_is_3(self, tmp_path, capsys):
        # eval items in manifest order sit at shuffled cache rows, and the
        # zero row is the eval split's item BLOCK_ROWS + 7
        n = BLOCK_ROWS + 20
        (tmp_path / "catalog.tsv").write_text("glioma\tMRI\nmeningioma\tMRI\n")
        items = [f"scan-{i}" for i in range(n)]
        (tmp_path / "manifest.tsv").write_text("".join(
            f"train-{i}\tglioma\ttrain\n" for i in range(3)
        ) + "".join(f"{item}\t{('glioma', 'meningioma')[i % 2]}\ttest\n"
                    for i, item in enumerate(items)))
        order = np.random.default_rng(5).permutation(n + 3)
        index = dict(zip([f"train-{i}" for i in range(3)] + items, order.tolist()))
        values = np.random.default_rng(6).standard_normal((n + 3, 8)).astype(np.float32)
        values[index[items[BLOCK_ROWS + 7]]] = 0.0
        write_embedding_cache(EmbeddingMatrix(values=values), tmp_path / "images.emb")
        write_cache_index(index, tmp_path / "images.idx")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "catalog": str(tmp_path / "catalog.tsv"), "manifest": str(tmp_path / "manifest.tsv"),
            "image_cache": str(tmp_path / "images.emb"), "image_index": str(tmp_path / "images.idx"),
            "out_dir": str(tmp_path / "out"), "embedding_dim": 8,
        }))
        assert run("eval", str(config_path)) == 3
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("bmcoop-error")]
        assert len(lines) == 1
        assert lines[0].startswith("bmcoop-error category=data ")
        assert f"'scan-{BLOCK_ROWS + 7}'" in lines[0]

    @pytest.mark.parametrize("key,value", [
        ("llm_max_retries", -1), ("llm_max_retries", 2.5), ("llm_max_retries", float("nan")),
        ("llm_timeout", -1), ("llm_timeout", 0), ("llm_timeout", float("inf")),
        ("llm_timeout", float("nan")), ("llm_timeout", 10**400),
        ("llm_timeout", 1e10), ("llm_timeout", 1e300),
    ], ids=["retries-negative", "retries-fraction", "retries-nan", "timeout-negative",
            "timeout-zero", "timeout-inf", "timeout-nan", "timeout-past-float-range",
            "timeout-past-socket-limit", "timeout-huge-finite"])
    def test_bad_llm_settings_are_2(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.delenv("BMCOOP_API_KEY", raising=False)
        (tmp_path / "catalog.tsv").write_text("lesion\tMRI\n")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "catalog": str(tmp_path / "catalog.tsv"),
            "bank": str(tmp_path / "bank.json"),
            "llm_base_url": "http://127.0.0.1:1/v1",
            "llm_model": "none",
            key: value,
        }))
        assert run("gen-prompts", str(config_path)) == 2
        assert f"category=config message='{key} must be" in capsys.readouterr().err

    def test_unknown_command_is_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text("{}")
        assert run("frobnicate", str(config_path)) == 2


# The CLI fault table: one fault per example, over the seven commands on the
# toy dataset. A fault is one input file cut short, overwritten in place or
# removed, one config value replaced, or one override added. Every path in
# the config names the example's own copy of the dataset, and gen-prompts
# reads its fallback bank or, with no API key set, fails before any request.
FAULT_FILES = ["bank.emb", "bank.json", "catalog.tsv", "checkpoint.ckpt", "images.emb",
               "images.idx", "manifest.tsv"]
PATH_KEYS = {"catalog", "manifest", "bank", "bank_cache", "image_cache", "image_index",
             "features_cache", "features_index", "checkpoint", "out_dir", "llm_fallback_bank"}
FAULT_VALUES = [0, 1, -1, 2.5, 1e300, 2**70, "", "x", "images.emb", None, True, [], {}]
FAULT_COMMANDS = {**{command: changes for command, (changes, _) in SIDECAR_RUNS.items()},
                  "eval": {"checkpoint": "checkpoint.ckpt"}}


@st.composite
def cli_faults(draw):
    command = draw(st.sampled_from(sorted(FAULT_COMMANDS)))
    kind = draw(st.sampled_from(["file", "config", "override"]))
    if kind == "file":
        how = draw(st.sampled_from(["cut", "write", "remove"]))
        fault = (draw(st.sampled_from(FAULT_FILES)), how, draw(st.integers(0, 2**16)),
                 draw(st.binary(min_size=1, max_size=8)))
    elif kind == "config":
        # the key naming the API key's variable stays, so no key is ever found
        key = draw(st.sampled_from(sorted(set(cli.SCHEMA) - {"llm_api_key_env"})))
        fault = (key, draw(st.sampled_from(FAULT_VALUES)))
    else:
        key = draw(st.sampled_from([*cli.RUN_KEYS, "bank"]))
        value = draw(st.sampled_from([None, "", "0", "-1", "2.5", "1e300", "nan", "x", str(2**70)]))
        fault = key if value is None else f"{key}={value}"
    # 2**70 epochs is a long run, not a fault
    assume(fault not in (("epochs", 2**70), f"epochs={2**70}"))
    return command, kind, fault


class TestFaultTable:
    @pytest.fixture
    def dataset(self, toy_dataset, monkeypatch):
        """The toy dataset with a prompt bank and a trained checkpoint, and a
        config template whose paths are file names in it."""
        tmp_path, config, config_path = toy_dataset
        monkeypatch.delenv("BMCOOP_API_KEY", raising=False)
        names = [line.split("\t")[0]
                 for line in (tmp_path / "catalog.tsv").read_text().splitlines()]
        bank = PromptBank(prompts={n: [f"{n} finding {i}" for i in range(4)] for n in names},
                          modalities={n: "MRI" for n in names})
        write_prompt_bank(bank, tmp_path / "bank.json")
        assert run("train", str(config_path), ["epochs=1"]) == 0
        shutil.move(tmp_path / "out" / "checkpoint.ckpt", tmp_path / "checkpoint.ckpt")
        shutil.rmtree(tmp_path / "out")
        config_path.unlink()
        template = {key: Path(value).name if key in PATH_KEYS else value
                    for key, value in config.items()}
        return tmp_path, template

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=cli_faults())
    def test_one_fault_ends_in_a_documented_exit(self, dataset, case, tmp_path_factory):
        base, template = dataset
        command, kind, fault = case
        work = tmp_path_factory.mktemp("fault") / "data"
        shutil.copytree(base, work)
        config = {**template, **FAULT_COMMANDS[command]}
        overrides = []
        if kind == "file":
            name, how, at, data = fault
            path = work / name
            blob = path.read_bytes()
            at %= len(blob) + 1
            if how == "remove":
                path.unlink()
            elif how == "cut":
                path.write_bytes(blob[:at])
            else:  # overwritten in place
                path.write_bytes(blob[:at] + data + blob[at + len(data):])
        elif kind == "config":
            config[fault[0]] = fault[1]
        else:
            overrides.append(fault)
        config = {key: str(work / value) if key in PATH_KEYS and isinstance(value, str) and value
                  else value for key, value in config.items()}
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        err = StringIO()
        cwd = os.getcwd()
        os.chdir(work)  # an unset out_dir is the working directory
        try:
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(StringIO()):
                warnings.simplefilter("always")
                code = run(command, str(config_path), overrides)
        finally:
            os.chdir(cwd)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("bmcoop-error ")]
        assert code in (0, 2, 3, 4, 5)
        assert len(errors) == (code != 0), err.getvalue()
        # numpy's overflow warnings are expected only on the way to a numeric failure
        assert code == 4 or not caught, [str(w.message) for w in caught]


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    out = subprocess.run(
        [sys.executable, "-m", "bmcoop.cli", *map(str, args)],
        env=source_env(), capture_output=True, text=True,
    )
    return out.returncode, out.stderr


class TestUnreadableInputs:
    """Non-UTF-8 text and directories given as files end in one error line, not a traceback."""

    def assert_one_error(self, stderr, category, *fragments):
        lines = [line for line in stderr.splitlines() if line.startswith("bmcoop-error")]
        assert len(lines) == 1, stderr
        assert f"category={category}" in lines[0]
        for fragment in fragments:
            assert fragment in lines[0]
        assert "Traceback" not in stderr

    def test_non_utf8_catalog_is_3(self, tmp_path):
        (tmp_path / "catalog.tsv").write_bytes(b"x\ta\ttrain\n\xff\xfe\ta\ttest\n")
        (tmp_path / "bank.json").write_text("{}")
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "catalog": str(tmp_path / "catalog.tsv"), "bank": str(tmp_path / "bank.json"),
        }))
        code, err = run_cli("encode-bank", config_path)
        assert code == 3
        self.assert_one_error(err, "data", "catalog.tsv: not UTF-8 text")

    def test_non_utf8_config_is_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_bytes(b"\xff{}")
        code, err = run_cli("train", config_path)
        assert code == 2
        self.assert_one_error(err, "config", "c.json: not UTF-8 text")

    def test_directories_are_3(self, toy_dataset):
        tmp_path, config, config_path = toy_dataset
        for command, key in (
            ("train", "catalog"), ("encode-images", "features_cache"), ("eval", "checkpoint"),
        ):
            changes = {key: str(tmp_path)}
            if command == "encode-images":
                changes["features_index"] = str(tmp_path / "images.idx")
            rewrite(config_path, config, **changes)
            code, err = run_cli(command, config_path)
            assert code == 3, (command, key)
            self.assert_one_error(err, "data", f"cannot read {tmp_path}")


def test_cli_import_leaves_http_stack_unloaded():
    # promptgen and logging too: only gen-prompts and a logged message need them
    code = ("import sys, bmcoop.cli; print(sorted({'requests', 'urllib.request', 'http.client', "
            "'bmcoop.promptgen', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_select_and_three_term_train_leave_numpy_ma_unloaded(toy_dataset):
    # np.median's first call imports numpy.ma; the MAD rule takes its medians without it
    _, _, config_path = toy_dataset
    code = (
        "import sys; from bmcoop.cli import run; "
        f"assert run('select', {str(config_path)!r}) == 0; "
        f"assert run('train', {str(config_path)!r}, ['lambda1=0.5', 'lambda2=0.25']) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "False"
