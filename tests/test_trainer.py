"""Support sampling, the SGD loop, and checkpoint/resume determinism."""

import copy
import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from bmcoop import trainer
from bmcoop.backbone import SyntheticTextEncoder, init_context
from bmcoop.errors import DataError, NumericError
from bmcoop.io import load_manifest
from bmcoop.objective import loss_gradient
from bmcoop.trainer import (
    TrainState,
    initial_state,
    load_checkpoint,
    prepare_ensembles,
    sample_few_shot,
    save_checkpoint,
    train_run,
    write_training_log,
)
from conftest import (
    oracle_log_teacher,
    oracle_text_grad,
    oracle_total_loss,
    per_class_encode_from_s,
    per_class_h,
    reference_ce_epochs,
)
from bmcoop.types import SPLITS, ClassCatalog, DatasetManifest


def make_manifest(per_class_train, classes=("benign", "malignant"), extra_splits=True):
    records = []
    for c, name in enumerate(classes):
        for i in range(per_class_train):
            records.append((f"{name}-{i}", c, "train"))
        if extra_splits:
            records.append((f"{name}-val", c, "val"))
            records.append((f"{name}-test", c, "test"))
    catalog = ClassCatalog(names=list(classes), modalities=["ultrasound"] * len(classes))
    return columns(records), catalog


def columns(records):
    """A manifest from (item id, catalog position, split) rows."""
    return DatasetManifest(
        item_ids=[item_id for item_id, _, _ in records],
        labels=np.array([c for _, c, _ in records], dtype=np.intp),
        splits=np.array([SPLITS.index(split) for _, _, split in records], dtype=np.int8),
    )


class TestSampleFewShot:
    def test_deterministic_under_seed(self):
        manifest, catalog = make_manifest(10)
        a_ids, a_labels = sample_few_shot(manifest, catalog, shots=1, seed=7)
        b_ids, b_labels = sample_few_shot(manifest, catalog, shots=1, seed=7)
        assert a_ids == b_ids
        assert np.array_equal(a_labels, b_labels)

    def test_insufficient_items_names_class(self):
        manifest, catalog = make_manifest(6)
        # leave malignant with only 3 train items
        manifest = columns([
            (item_id, c, SPLITS[s])
            for item_id, c, s in zip(manifest.item_ids, manifest.labels, manifest.splits)
            if not (c == 1 and SPLITS[s] == "train" and int(item_id.split("-")[1]) >= 3)
        ])
        with pytest.raises(DataError, match="malignant"):
            sample_few_shot(manifest, catalog, shots=4, seed=0)

    def test_train_split_only_without_replacement(self):
        manifest, catalog = make_manifest(8)
        item_ids, _ = sample_few_shot(manifest, catalog, shots=8, seed=3)
        assert len(set(item_ids)) == 16
        assert all("-val" not in i and "-test" not in i for i in item_ids)

    def test_class_major_label_layout(self):
        manifest, catalog = make_manifest(5)
        item_ids, labels = sample_few_shot(manifest, catalog, shots=2, seed=1)
        assert list(labels) == [0, 0, 1, 1]
        assert all(i.startswith("benign") for i in item_ids[:2])

    def test_overlap_matches_hypergeometric_expectation(self):
        """K=16 of 100: pairwise overlap should hover near K^2/100 = 2.56."""
        manifest, catalog = make_manifest(100, classes=("solo",), extra_splits=False)
        picks = [
            set(sample_few_shot(manifest, catalog, shots=16, seed=s)[0])
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

    def test_interleaved_manifest_picks_pinned(self, tmp_path):
        """Item ids recorded at the record-list manifest, before it became columns."""
        names = ("benign", "malignant", "normal")
        lines = [
            f"img{i:02d}\t{names[(i * 7) % 3]}\t{('train', 'val', 'train', 'test')[i % 4]}\n"
            for i in range(60)
        ]
        path = tmp_path / "m.tsv"
        path.write_text("".join(lines))
        catalog = ClassCatalog(names=list(names), modalities=["ultrasound"] * len(names))
        manifest = load_manifest(path, catalog)
        full_ids, full_labels = sample_few_shot(manifest, catalog, shots=3, seed=5)
        base_ids, base_labels = sample_few_shot(manifest, catalog, shots=3, seed=5, keep=slice(2))
        assert full_ids == [
            "img42", "img30", "img00", "img34", "img28", "img16", "img32", "img14", "img20",
        ]
        assert base_ids == full_ids[:6]
        assert list(full_labels) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert list(base_labels) == [0, 0, 0, 1, 1, 1]


def make_support(task, per_class=16, seed=500):
    """Support rows and their labels."""
    return task.sample(per_class, seed)


class TestTrainRun:
    def test_zero_epochs_leaves_context_unchanged(self, desk_task):
        cfg = desk_task.config(epochs=0)
        state = initial_state(desk_task.handle, cfg)
        before = state.ctx.copy()
        out, logs = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg, state=state)
        assert logs == []
        assert np.array_equal(out.ctx, before)

    def test_deterministic_trajectory(self, desk_task):
        cfg = desk_task.config(epochs=5)
        images, labels = make_support(desk_task)
        s1, l1 = train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        s2, l2 = train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        assert np.array_equal(s1.ctx, s2.ctx)
        assert [e.line() for e in l1] == [e.line() for e in l2]

    def test_ce_only_run_matches_reference_loop(self, desk_task):
        """lambda1 = lambda2 = 0 must retrace a bare CE loop bit for bit."""
        cfg = desk_task.config(epochs=5)
        images, labels = make_support(desk_task)
        state, _ = train_run(images, labels, desk_task.names, desk_task.handle, cfg)

        # reference loop: independent shuffling/update wiring, CE path only
        *_, (s, ctx) = reference_ce_epochs(desk_task.handle, cfg, desk_task.names, images, labels)
        assert np.array_equal(state.s, s)
        assert np.array_equal(state.ctx, ctx)

    def test_empty_run_never_builds_the_gram_matrix(self, desk_task):
        handle = SyntheticTextEncoder(seed=7, embedding_dim=8, token_width=12)
        cfg = desk_task.config(epochs=0, embedding_dim=8, token_width=12)
        images = np.random.default_rng(0).standard_normal((6, 8))
        train_run(images, np.repeat(np.arange(3), 2), desk_task.names, handle, cfg)
        assert handle._gram is None
        train_run(images, np.repeat(np.arange(3), 2), desk_task.names, handle,
                  desk_task.config(epochs=1, embedding_dim=8, token_width=12))
        assert handle._gram is not None

    def test_loss_decreases_by_epoch_ten(self, desk_task):
        for seed in (1, 2, 3, 4, 5):
            cfg = desk_task.config(epochs=11, seed=seed)
            images, labels = make_support(desk_task)
            _, logs = train_run(images, labels, desk_task.names, desk_task.handle, cfg)
            assert logs[10].breakdown.total < logs[0].breakdown.total, f"seed {seed}"

    def test_only_context_changes(self, desk_task):
        cfg = desk_task.config(epochs=3, lambda1=0.5, lambda2=0.25)
        images, labels = make_support(desk_task)
        bank = desk_task.aligned_bank()
        pg, ps, _ = prepare_ensembles(desk_task.names, bank, images, cfg)
        digests_before = (
            desk_task.handle.parameter_digest(),
            hashlib.sha256(pg.tobytes()).hexdigest(),
            hashlib.sha256(ps.tobytes()).hexdigest(),
            hashlib.sha256(np.vstack(bank).tobytes()).hexdigest(),
        )
        train_run(
            images, labels, desk_task.names, desk_task.handle, cfg,
            ensemble_mean=pg, teacher_ensemble=ps,
        )
        digests_after = (
            desk_task.handle.parameter_digest(),
            hashlib.sha256(pg.tobytes()).hexdigest(),
            hashlib.sha256(ps.tobytes()).hexdigest(),
            hashlib.sha256(np.vstack(bank).tobytes()).hexdigest(),
        )
        assert digests_before == digests_after

    def test_nan_loss_aborts_with_state(self, desk_task):
        # big enough to overflow the float32 context storage into inf/nan
        cfg = desk_task.config(epochs=3, learning_rate=1e45)
        images, labels = make_support(desk_task)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as err:
            train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        assert "epoch" in err.value.state
        assert "ctx_norm" in err.value.state
        assert set(err.value.state) == {
            "epoch", "batch_start", "ce", "sccm", "kdsp", "ctx_norm", "grad_norm",
        }

    def test_context_overflow_on_the_last_step_aborts(self, desk_task):
        # one step of three rows, so no later loss sees the overflowed context
        cfg = desk_task.config(epochs=1, batch_size=4, learning_rate=1e40)
        images, labels = make_support(desk_task, per_class=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="non-finite context at epoch 0"
        ) as err:
            train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        assert set(err.value.state) == {
            "epoch", "batch_start", "ce", "sccm", "kdsp", "ctx_norm", "grad_norm",
        }

    @pytest.mark.parametrize("fault", ["zero-norm", "width", "label", "tau"])
    def test_bad_input_rejected_before_first_step(self, desk_task, monkeypatch, fault):
        images, labels = make_support(desk_task)
        handle = desk_task.handle
        if fault == "zero-norm":
            images[5] = 0.0
        elif fault == "width":
            images = np.hstack([images, images[:, :1]])
        elif fault == "label":
            labels[7] = len(desk_task.names)
        else:
            handle = copy.copy(handle)
            handle.tau = 0.0

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran before the input check")

        monkeypatch.setattr(trainer, "loss_gradient", no_step)
        match = {"zero-norm": "zero-norm", "width": "width", "label": "label outside",
                 "tau": "tau must be > 0"}[fault]
        with pytest.raises(DataError, match=match) as err:
            train_run(images, labels, desk_task.names, handle, desk_task.config(epochs=1))
        assert err.value.exit_code == 3

    def test_matches_per_term_oracle_trajectory(self, desk_task):
        """Whole run at lambda = (0.5, 0.25) against a loop over the frozen
        per-term objective: every epoch's loss means and the final context
        are equal bit for bit."""
        cfg = desk_task.config(epochs=6, lambda1=0.5, lambda2=0.25)
        images, labels = make_support(desk_task)
        # raw rows of mixed norms, so the once-per-run normalization is exercised
        images = images * np.random.default_rng(3).uniform(0.5, 2.0, size=(len(labels), 1))
        pg, ps, _ = prepare_ensembles(
            desk_task.names, desk_task.aligned_bank(), images, cfg
        )
        state, logs = train_run(
            images, labels, desk_task.names, desk_task.handle, cfg,
            ensemble_mean=pg, teacher_ensemble=ps,
        )

        # reference loop on s: per-class encodes and h's, then K·h
        handle = desk_task.handle
        projection = handle.projection
        gram = projection @ projection.T
        ctx0 = init_context(handle, cfg.context_init_text, cfg.context_length)
        length = len(ctx0)
        s = projection @ ctx0.sum(axis=0)
        h_sum = np.zeros_like(s)
        rng = np.random.default_rng(cfg.seed)
        log_teacher = oracle_log_teacher(images, ps, handle.tau)
        n = len(labels)
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            sums = np.zeros(3)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                encoded = [per_class_encode_from_s(handle, s, length, name) for name in desk_task.names]
                text = np.stack([unit for unit, _, _ in encoded])
                args = (images[batch], labels[batch], text, pg, log_teacher[batch], handle.tau, 0.5, 0.25)
                bd = oracle_total_loss(*args)
                h = per_class_h(encoded, oracle_text_grad(*args))
                s = s - cfg.learning_rate * length * (gram @ h)
                h_sum = h_sum + h
                sums += len(batch) * np.array([bd.ce, bd.sccm, bd.kdsp])
            got = logs[epoch].breakdown
            assert np.array_equal(sums / n, [got.ce, got.sccm, got.kdsp]), epoch
        ctx = (ctx0 - cfg.learning_rate * (projection.T @ h_sum)).astype(np.float32)
        assert np.array_equal(state.s, s)
        assert np.array_equal(state.ctx, ctx)


def plain_step(handle, s, length, names, v, labels, mean, log_teacher, lambda1, lambda2):
    """One three-term step as plain expressions, every temporary its own
    array: (ce, sccm, kdsp, total) and dTotal/ds. ``v`` holds unit rows."""
    tokens = [handle.token_vectors(name) for name in names]
    name_rows = np.stack([handle.projection @ t.sum(axis=0) for t in tokens])
    seq_len = length + np.array([len(t) for t in tokens], dtype=np.float64)
    raw = (s + name_rows) / seq_len[:, None]
    raw_norm = np.linalg.norm(raw, axis=1)
    text = raw / raw_norm[:, None]
    cos = v @ text.T
    logits = cos / handle.tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = np.exp(log_p)
    rows = np.arange(len(labels))
    ce = float(-np.mean(log_p[rows, labels]))
    sccm = float(np.sum((text - mean) * (text - mean)))
    teacher = np.exp(log_teacher)
    kl_rows = np.where(teacher > 0.0, teacher * (log_teacher - log_p), 0.0).sum(axis=1)
    kdsp = max(0.0, float(np.mean(kl_rows)))
    onehot = np.zeros_like(p)
    onehot[rows, labels] = 1.0

    def chain(g):  # dL/dT of the logit gradient g; the text rows are unit
        return (g.T @ v - (g * cos).sum(axis=0)[:, None] * text) / handle.tau

    grad_text = (
        chain((p - onehot) / len(labels))
        + lambda1 * (2.0 * (text - mean))
        + lambda2 * chain((p - teacher) / len(labels))
    )
    radial = np.einsum("cd,cd->c", grad_text, text)
    h = ((grad_text - radial[:, None] * text) / raw_norm[:, None] / seq_len[:, None]).sum(axis=0)
    return (ce, sccm, kdsp, ce + lambda1 * sccm + lambda2 * kdsp), h


class TestThreeTermStep:
    """The step at lambda = (0.5, 0.25) against ``plain_step``, bit for bit."""

    def setup(self, task):
        cfg = task.config(epochs=3, lambda1=0.5, lambda2=0.25)
        images, labels = make_support(task)
        mean, teacher, _ = prepare_ensembles(task.names, task.aligned_bank(), images, cfg)
        v = images / np.linalg.norm(images, axis=1, keepdims=True)
        t_unit = teacher / np.linalg.norm(teacher, axis=1, keepdims=True)
        logits = (v @ t_unit.T) / task.handle.tau
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_teacher = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return cfg, images, labels, mean, teacher, v, log_teacher

    def test_loss_gradient_matches_plain_step(self, desk_task):
        cfg, _, labels, mean, _, v, log_teacher = self.setup(desk_task)
        handle = desk_task.handle
        state = initial_state(handle, cfg)
        length = len(state.ctx)
        for batch in np.split(np.random.default_rng(4).permutation(len(labels)), 12):
            args = (v[batch], labels[batch], mean, log_teacher[batch], 0.5, 0.25)
            breakdown, h = loss_gradient(handle, state.s, length, desk_task.names, *args)
            want, want_h = plain_step(handle, state.s, length, desk_task.names, *args)
            assert (breakdown.ce, breakdown.sccm, breakdown.kdsp, breakdown.total) == want
            assert np.array_equal(h, want_h)

    def test_trajectory_matches_plain_loop(self, desk_task):
        cfg, images, labels, mean, teacher, v, log_teacher = self.setup(desk_task)
        handle = desk_task.handle
        got, state = [], None
        for k in range(1, cfg.epochs + 1):
            state, _ = train_run(
                images, labels, desk_task.names, handle, dataclasses.replace(cfg, epochs=k),
                ensemble_mean=mean, teacher_ensemble=teacher, state=state,
            )
            got.append((state.s.copy(), state.h_sum.copy(), state.ctx.copy()))

        projection = handle.projection
        ctx0 = init_context(handle, cfg.context_init_text, cfg.context_length)
        s, h_sum = projection @ ctx0.sum(axis=0), np.zeros(handle.embedding_dim)
        rng = np.random.default_rng(cfg.seed)
        for got_s, got_h, got_ctx in got:
            order = rng.permutation(len(labels))
            for start in range(0, len(labels), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                _, h = plain_step(
                    handle, s, len(ctx0), desk_task.names, v[batch], labels[batch],
                    mean, log_teacher[batch], 0.5, 0.25,
                )
                s = s - cfg.learning_rate * len(ctx0) * ((projection @ projection.T) @ h)
                h_sum = h_sum + h
            ctx = (ctx0 - cfg.learning_rate * (projection.T @ h_sum)).astype(np.float32)
            assert np.array_equal(got_s, s)
            assert np.array_equal(got_h, h_sum)
            assert np.array_equal(got_ctx, ctx)


class TestTrainingLog:
    def test_line_format(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=2)
        _, logs = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
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


def stored_state(ctx):
    """A state with the (M, W) context ``ctx`` and a 4-wide ``s`` and ``H``."""
    return TrainState(ctx=ctx, s=np.arange(4.0), h_sum=np.zeros(4), encoder="ab" * 32,
                      epoch=0, rng=np.random.default_rng(0))


class TestCheckpoints:
    def test_round_trip_bit_exact(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=3)
        state, _ = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.ctx, state.ctx)
        assert np.array_equal(back.s, state.s)
        assert np.array_equal(back.h_sum, state.h_sum)
        assert back.encoder == state.encoder == desk_task.handle.parameter_digest()
        assert back.epoch == state.epoch
        assert back.rng.bit_generator.state == state.rng.bit_generator.state

    def test_resume_equals_straight_through(self, desk_task, tmp_path):
        images, labels = make_support(desk_task)
        full_cfg = desk_task.config(epochs=20)
        straight, _ = train_run(images, labels, desk_task.names, desk_task.handle, full_cfg)

        half_cfg = desk_task.config(epochs=10)
        halfway, _ = train_run(images, labels, desk_task.names, desk_task.handle, half_cfg)
        path = tmp_path / "half.ckpt"
        save_checkpoint(halfway, path)
        resumed_state = load_checkpoint(path)
        resumed, logs = train_run(
            images, labels, desk_task.names, desk_task.handle, full_cfg, state=resumed_state
        )
        assert logs[0].epoch == 10
        assert np.array_equal(resumed.ctx, straight.ctx)

    @pytest.mark.parametrize("change", [
        {"learning_rate": 0.005},
        {"context_init_text": "an image of a"},
    ])
    def test_resume_under_another_config_rejected(self, desk_task, tmp_path, change):
        # s and H were built under the saving config; the stored context
        # formed under the resuming one would not match them
        images, labels = make_support(desk_task)
        halfway, _ = train_run(
            images, labels, desk_task.names, desk_task.handle, desk_task.config(epochs=3)
        )
        path = tmp_path / "half.ckpt"
        save_checkpoint(halfway, path)
        with pytest.raises(DataError, match="saved under another learning_rate or context_init_text"):
            train_run(
                images, labels, desk_task.names, desk_task.handle,
                desk_task.config(epochs=6, **change), state=load_checkpoint(path),
            )

    def test_checkpoint_bytes_stable_across_identical_runs(self, desk_task, tmp_path):
        images, labels = make_support(desk_task)
        cfg = desk_task.config(epochs=4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        s1, _ = train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        s2, _ = train_run(images, labels, desk_task.names, desk_task.handle, cfg)
        save_checkpoint(s1, p1)
        save_checkpoint(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_width_mismatch_rejected_on_resume(self, desk_task, tmp_path, small_handle):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        with pytest.raises(DataError, match="width"):
            train_run(
                *make_support(desk_task), desk_task.names, small_handle,
                desk_task.config(epochs=2), state=loaded,
            )

    def test_failed_save_keeps_previous_checkpoint(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        before = path.read_bytes()
        # a negative epoch cannot be packed into the u32 trailer
        with pytest.raises(struct.error):
            save_checkpoint(dataclasses.replace(state, epoch=-1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_zero_row_context_rejected(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_checkpoint(stored_state(np.zeros((0, 3))), path)
        assert struct.unpack_from("<III", path.read_bytes(), 8) == (2, 0, 3)
        with pytest.raises(DataError, match="checkpoint context has 0 rows"):
            load_checkpoint(path)

    def test_non_finite_context_rejected(self, tmp_path):
        path = tmp_path / "nan.ckpt"
        save_checkpoint(stored_state(np.zeros((2, 3))), path)
        # the writer refuses a NaN payload, so ctx[1, 2] goes in after the 20-byte header by hand
        data = bytearray(path.read_bytes())
        data[20 + 5 * 4 : 20 + 6 * 4] = np.array(np.nan, "<f4").tobytes()
        path.write_bytes(data)
        with pytest.raises(DataError, match="checkpoint context contains non-finite values"):
            load_checkpoint(path)

    def test_signalling_nan_context_rejected_without_a_warning(self, tmp_path):
        # float32 0x7f810000 is a signalling NaN: casting it to float64 warns
        path = tmp_path / "snan.ckpt"
        save_checkpoint(stored_state(np.zeros((2, 3))), path)
        data = bytearray(path.read_bytes())
        data[20:24] = (0x7F810000).to_bytes(4, "little")
        path.write_bytes(data)
        with pytest.raises(DataError, match="checkpoint context contains non-finite values"):
            load_checkpoint(path)

    def test_non_finite_s_rejected(self, tmp_path):
        path = tmp_path / "inf.ckpt"
        state = stored_state(np.zeros((2, 3)))
        state.h_sum[1] = np.inf
        save_checkpoint(state, path)
        with pytest.raises(DataError, match="checkpoint s and H contains non-finite values"):
            load_checkpoint(path)

    def test_version_1_checkpoint_asks_for_a_new_train(self, tmp_path):
        path = tmp_path / "v1.ckpt"
        save_checkpoint(stored_state(np.zeros((2, 3))), path)
        path.write_bytes(b"BMCCKPT1" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="re-run train") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_truncated_rejected(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):  # every proper prefix, the bare magic included
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(path)

    def test_bad_rng_flag_rejected(self, desk_task, tmp_path):
        cfg = desk_task.config(epochs=1)
        state, _ = train_run(*make_support(desk_task), desk_task.names, desk_task.handle, cfg)
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = struct.pack("<I", 2**31)  # the has-uint32 flag of the rng state
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="rng state flag must be 0 or 1, got 2147483648"):
            load_checkpoint(path)
