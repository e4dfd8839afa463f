"""Support sampling, the SGD loop, and checkpoint/resume determinism."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from bmcoop.backbone import init_context
from bmcoop.errors import DataError, NumericError
from bmcoop.trainer import (
    FewShotSupportSet,
    initial_state,
    load_checkpoint,
    prepare_ensembles,
    sample_few_shot,
    save_checkpoint,
    train_run,
    write_training_log,
)
from conftest import per_class_ce_grad
from bmcoop.types import ClassCatalog, ClassEntry, DatasetManifest, ManifestRecord


def make_manifest(per_class_train, classes=("benign", "malignant"), extra_splits=True):
    records = []
    for name in classes:
        for i in range(per_class_train):
            records.append(ManifestRecord(f"{name}-{i}", name, "train"))
        if extra_splits:
            records.append(ManifestRecord(f"{name}-val", name, "val"))
            records.append(ManifestRecord(f"{name}-test", name, "test"))
    catalog = ClassCatalog(classes=[ClassEntry(n, "ultrasound") for n in classes])
    return DatasetManifest(records=records), catalog


class TestSampleFewShot:
    def test_deterministic_under_seed(self):
        manifest, catalog = make_manifest(10)
        a = sample_few_shot(manifest, catalog, shots=1, seed=7)
        b = sample_few_shot(manifest, catalog, shots=1, seed=7)
        assert a.item_ids == b.item_ids
        assert np.array_equal(a.labels, b.labels)

    def test_insufficient_items_names_class(self):
        manifest, catalog = make_manifest(6)
        # leave malignant with only 3 train items
        manifest = DatasetManifest(
            records=[
                r for r in manifest.records
                if not (r.class_name == "malignant" and r.split == "train"
                        and int(r.item_id.split("-")[1]) >= 3)
            ]
        )
        with pytest.raises(DataError, match="malignant"):
            sample_few_shot(manifest, catalog, shots=4, seed=0)

    def test_train_split_only_without_replacement(self):
        manifest, catalog = make_manifest(8)
        support = sample_few_shot(manifest, catalog, shots=8, seed=3)
        assert len(set(support.item_ids)) == 16
        assert all("-val" not in i and "-test" not in i for i in support.item_ids)

    def test_class_major_label_layout(self):
        manifest, catalog = make_manifest(5)
        support = sample_few_shot(manifest, catalog, shots=2, seed=1)
        assert list(support.labels) == [0, 0, 1, 1]
        assert all(i.startswith("benign") for i in support.item_ids[:2])

    def test_overlap_matches_hypergeometric_expectation(self):
        """K=16 of 100: pairwise overlap should hover near K^2/100 = 2.56."""
        manifest, catalog = make_manifest(100, classes=("solo",), extra_splits=False)
        picks = [
            set(sample_few_shot(manifest, catalog, shots=16, seed=s).item_ids)
            for s in (1, 2, 3)
        ]
        assert picks[0] != picks[1] != picks[2]
        overlaps = [
            len(picks[0] & picks[1]),
            len(picks[0] & picks[2]),
            len(picks[1] & picks[2]),
        ]
        # loose bound: mean 2.56, std ~1.4; allow a wide corridor
        assert all(0 <= o <= 9 for o in overlaps)


def make_support(task, per_class=16, seed=500):
    images, labels = task.sample(per_class, seed)
    return FewShotSupportSet(
        item_ids=[f"i{i}" for i in range(labels.size)],
        labels=labels,
        shots=per_class,
        seed=1,
        embeddings=images,
    )


class TestTrainRun:
    def test_zero_epochs_leaves_context_unchanged(self, desk_task):
        cfg = desk_task.config(epochs=0)
        state = initial_state(desk_task.handle, cfg)
        before = state.ctx.vectors.copy()
        out, logs = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg, state=state)
        assert logs == []
        assert np.array_equal(out.ctx.vectors, before)

    def test_deterministic_trajectory(self, desk_task):
        cfg = desk_task.config(epochs=5)
        support = make_support(desk_task)
        s1, l1 = train_run(support, desk_task.names, desk_task.handle, cfg)
        s2, l2 = train_run(support, desk_task.names, desk_task.handle, cfg)
        assert np.array_equal(s1.ctx.vectors, s2.ctx.vectors)
        assert [e.line() for e in l1] == [e.line() for e in l2]

    def test_ce_only_run_matches_reference_loop(self, desk_task):
        """lambda1 = lambda2 = 0 must retrace a bare CE loop bit for bit."""
        cfg = desk_task.config(epochs=5)
        support = make_support(desk_task)
        state, _ = train_run(support, desk_task.names, desk_task.handle, cfg)

        # reference loop: independent shuffling/update wiring, CE path only
        handle = desk_task.handle
        ctx = init_context(handle, cfg.context_init_text, cfg.context_length)
        vectors = ctx.vectors.astype(np.float32).astype(np.float64)
        rng = np.random.default_rng(cfg.seed)
        images, labels = support.embeddings, support.labels
        for _ in range(cfg.epochs):
            order = rng.permutation(images.shape[0])
            for start in range(0, images.shape[0], cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                grad = per_class_ce_grad(
                    handle, vectors, desk_task.names, images[batch], labels[batch]
                )
                vectors = (vectors - cfg.learning_rate * grad).astype(np.float32).astype(np.float64)
        assert np.array_equal(state.ctx.vectors, vectors)

    def test_loss_decreases_by_epoch_ten(self, desk_task):
        for seed in (1, 2, 3, 4, 5):
            cfg = desk_task.config(epochs=11, seed=seed)
            support = make_support(desk_task)
            _, logs = train_run(support, desk_task.names, desk_task.handle, cfg)
            assert logs[10].breakdown.total < logs[0].breakdown.total, f"seed {seed}"

    def test_only_context_changes(self, desk_task):
        cfg = desk_task.config(epochs=3, lambda1=0.5, lambda2=0.25)
        support = make_support(desk_task)
        bank = desk_task.aligned_bank()
        pg, ps, _ = prepare_ensembles(desk_task.names, bank, support.embeddings, cfg)
        digests_before = (
            desk_task.handle.parameter_digest(),
            hashlib.sha256(pg.tobytes()).hexdigest(),
            hashlib.sha256(ps.tobytes()).hexdigest(),
            hashlib.sha256(np.vstack(bank).tobytes()).hexdigest(),
        )
        train_run(
            support, desk_task.names, desk_task.handle, cfg,
            ensemble_mean=pg, teacher_ensemble=ps,
        )
        digests_after = (
            desk_task.handle.parameter_digest(),
            hashlib.sha256(pg.tobytes()).hexdigest(),
            hashlib.sha256(ps.tobytes()).hexdigest(),
            hashlib.sha256(np.vstack(bank).tobytes()).hexdigest(),
        )
        assert digests_before == digests_after

    def test_missing_embeddings_rejected(self, desk_task):
        support = make_support(desk_task)
        bare = FewShotSupportSet(
            item_ids=support.item_ids, labels=support.labels,
            shots=support.shots, seed=support.seed,
        )
        with pytest.raises(DataError, match="embeddings"):
            train_run(bare, desk_task.names, desk_task.handle, desk_task.config())

    def test_nan_loss_aborts_with_state(self, desk_task):
        # big enough to overflow the float32 context storage into inf/nan
        cfg = desk_task.config(epochs=3, learning_rate=1e45)
        support = make_support(desk_task)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
            train_run(support, desk_task.names, desk_task.handle, cfg)
        assert "epoch" in err.value.state
        assert "ctx_norm" in err.value.state


class TestTrainingLog:
    def test_line_format(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=2)
        _, logs = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "log.tsv"
        write_training_log(logs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            fields = line.split("\t")
            assert len(fields) == 6
            assert int(fields[0]) == i
            for value in fields[1:]:
                float(value)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=3)
        state, _ = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.ctx.vectors, state.ctx.vectors)
        assert back.epoch == state.epoch
        assert back.rng.bit_generator.state == state.rng.bit_generator.state

    def test_resume_equals_straight_through(self, desk_task, tmp_path):
        support = make_support(desk_task)
        full_cfg = desk_task.config(epochs=20)
        straight, _ = train_run(support, desk_task.names, desk_task.handle, full_cfg)

        half_cfg = desk_task.config(epochs=10)
        halfway, _ = train_run(support, desk_task.names, desk_task.handle, half_cfg)
        path = tmp_path / "half.ckpt"
        save_checkpoint(halfway, path)
        resumed_state = load_checkpoint(path)
        resumed, logs = train_run(
            support, desk_task.names, desk_task.handle, full_cfg, state=resumed_state
        )
        assert logs[0].epoch == 10
        assert np.array_equal(resumed.ctx.vectors, straight.ctx.vectors)

    def test_checkpoint_bytes_stable_across_identical_runs(self, desk_task, tmp_path):
        support = make_support(desk_task)
        cfg = desk_task.config(epochs=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        s1, _ = train_run(support, desk_task.names, desk_task.handle, cfg)
        s2, _ = train_run(support, desk_task.names, desk_task.handle, cfg)
        save_checkpoint(s1, p1)
        save_checkpoint(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_width_mismatch_rejected_on_resume(self, desk_task, tmp_path, small_handle):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        with pytest.raises(DataError, match="width"):
            train_run(
                make_support(desk_task), desk_task.names, small_handle,
                desk_task.config(epochs=2), state=loaded,
            )

    def test_failed_save_keeps_previous_checkpoint(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        before = path.read_bytes()
        # the epoch is packed after the context payload, so this fails mid-write
        with pytest.raises(struct.error):
            save_checkpoint(dataclasses.replace(state, epoch=-1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):  # every proper prefix, the bare magic included
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(path)
