"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import json
import math
import time

import numpy as np
import pytest

from bmcoop.backbone import SyntheticTextEncoder, encode_text_with_context, init_context
from bmcoop.cli import run as cli_run
from bmcoop.ensemble import (
    mad_zscores,
    mean_ensemble,
    prompt_scores,
    select_prompts,
)
from bmcoop.evaluation import harmonic_mean
from bmcoop.io import EmbeddingMatrix, write_cache_index, write_embedding_cache
from bmcoop.objective import (
    class_probabilities,
    loss_gradient,
    predict,
    prepare_support,
    sccm_loss,
    student_scores,
    teacher_log_probs,
    total_loss,
)
from bmcoop.trainer import prepare_ensembles, train_run
from conftest import build_desk_task, build_planted_outlier, per_class_ce_grad, unit_rows


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


# Published base/novel accuracy pairs with their printed harmonic means:
# the average row plus the ten per-dataset rows.
REPORTED_BASE_NOVEL_HM = [
    ("average-10", 76.26, 73.92, 75.07),
    ("btmri", 82.42, 96.84, 89.05),
    ("covid-qu-ex", 75.91, 91.63, 83.03),
    ("ctkidney", 86.93, 78.94, 82.74),
    ("dermamnist", 54.86, 74.10, 63.04),
    ("kvasir", 86.50, 61.83, 72.11),
    ("chmnist", 88.87, 42.73, 57.71),
    ("lc25000", 93.77, 97.00, 95.36),
    ("retina", 68.46, 67.72, 68.09),
    ("kneexray", 44.23, 78.35, 56.54),
    ("octmnist", 80.33, 50.07, 61.69),
]


def test_criterion_1_harmonic_mean_arithmetic():
    start = time.monotonic()
    worst = 0.0
    for name, base, novel, printed in REPORTED_BASE_NOVEL_HM:
        got = harmonic_mean(base, novel)
        worst = max(worst, abs(got - printed))
        assert abs(got - printed) <= 0.01, f"{name}: {got:.4f} vs printed {printed}"
    elapsed = time.monotonic() - start
    report(
        "criterion-1 harmonic-mean arithmetic (11 rows)",
        worst <= 0.01 and elapsed < 1.0,
        f"worst deviation {worst:.4f}, {elapsed:.3f}s",
    )


def test_criterion_2_gradient_exactness():
    start = time.monotonic()
    handle = SyntheticTextEncoder(seed=9, embedding_dim=10, token_width=12, tau=0.01)
    all_names = ["glioma tumor", "normal brain", "kidney stone", "lung opacity"]
    eps = 1e-5
    worst = 0.0
    configs = 0
    rng = np.random.default_rng(2024)
    for lambda1 in (0.0, 0.5, 2.0):
        for lambda2 in (0.0, 0.5, 2.0):
            for n_classes in (2, 4):
                for batch in (1, 4):
                    for _ in range(3):
                        configs += 1
                        names = all_names[:n_classes]
                        ctx = init_context(handle, "a photo of a", 4)
                        ctx.vectors = rng.standard_normal(ctx.vectors.shape) * 0.3
                        v = unit_rows(rng, batch, handle.embedding_dim)
                        labels = rng.integers(0, n_classes, size=batch)
                        pg = rng.standard_normal((n_classes, handle.embedding_dim)) * 0.4
                        ps = unit_rows(rng, n_classes, handle.embedding_dim)
                        v_unit, checked, teacher_unit = prepare_support(
                            v, labels, n_classes, handle.embedding_dim, handle.tau, ps
                        )
                        log_teacher = teacher_log_probs(v_unit, teacher_unit, handle.tau)
                        _, grad = loss_gradient(
                            handle, ctx, names, v_unit, checked, pg, teacher_unit,
                            lambda1, lambda2,
                        )

                        def f(vectors):
                            c = ctx.copy()
                            c.vectors = vectors
                            text, _ = encode_text_with_context(handle, c, names)
                            return total_loss(
                                student_scores(v_unit, text, handle.tau),
                                checked, pg, log_teacher, lambda1, lambda2,
                            ).total

                        fd = np.zeros_like(ctx.vectors)
                        for i in range(ctx.vectors.shape[0]):
                            for j in range(ctx.vectors.shape[1]):
                                plus = ctx.vectors.copy()
                                plus[i, j] += eps
                                minus = ctx.vectors.copy()
                                minus[i, j] -= eps
                                fd[i, j] = (f(plus) - f(minus)) / (2 * eps)
                        denom = np.maximum(np.abs(grad), np.abs(fd))
                        meaningful = denom > 1e-7
                        rel = np.abs(grad - fd)[meaningful] / denom[meaningful]
                        if rel.size:
                            worst = max(worst, float(rel.max()))
                        assert np.all(np.abs(grad - fd)[~meaningful] < 1e-10)
    elapsed = time.monotonic() - start
    report(
        "criterion-2 gradient exactness vs central differences",
        configs >= 100 and worst < 1e-4 and elapsed < 60.0,
        f"{configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    trials = 1000
    worst = {k: 0.0 for k in (
        "class_probabilities", "ce", "sccm_loss", "kdsp",
        "mean_ensemble", "prompt_scores", "mad_zscores",
    )}

    def softmax_oracle(logits):
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    for _ in range(trials):
        b = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        v = unit_rows(rng, b, d)
        t = rng.standard_normal((c, d))  # non-unit rows on purpose
        tau = float(rng.uniform(0.01, 0.5))

        probs = class_probabilities(v, t, tau)
        tn = t / np.linalg.norm(t, axis=1, keepdims=True)
        oracle_probs = softmax_oracle((v @ tn.T) / tau)
        worst["class_probabilities"] = max(
            worst["class_probabilities"], float(np.abs(probs - oracle_probs).max())
        )

        labels = rng.integers(0, c, size=b)
        oracle_ce = -sum(math.log(oracle_probs[i, labels[i]]) for i in range(b)) / b
        ce = total_loss(student_scores(v, t, tau), labels, None, None, 0.0, 0.0).ce
        worst["ce"] = max(worst["ce"], abs(ce - oracle_ce))

        pg = rng.standard_normal((c, d))
        oracle_sccm = sum(
            (t[i, j] - pg[i, j]) ** 2 for i in range(c) for j in range(d)
        )
        worst["sccm_loss"] = max(worst["sccm_loss"], abs(sccm_loss(t, pg) - oracle_sccm))

        ps = unit_rows(rng, c, d)
        teacher = softmax_oracle((v @ ps.T) / tau)
        oracle_kl = (
            sum(
                teacher[i, j] * math.log(teacher[i, j] / oracle_probs[i, j])
                for i in range(b)
                for j in range(c)
            )
            / b
        )
        kdsp = total_loss(
            student_scores(v, t, tau), labels, None, teacher_log_probs(v, ps, tau), 0.0, 1.0
        ).kdsp
        worst["kdsp"] = max(worst["kdsp"], abs(kdsp - oracle_kl))

        banks = [unit_rows(rng, n, d) for _ in range(c)]
        means = mean_ensemble(banks)
        for ci, bank in enumerate(banks):
            acc = np.zeros(d)
            for row in bank:
                acc += row
            worst["mean_ensemble"] = max(
                worst["mean_ensemble"], float(np.abs(means[ci] - acc / n).max())
            )

        beta = float(rng.uniform(1.0, 200.0))
        scores = prompt_scores(banks, v, beta)
        for ci, bank in enumerate(banks):
            for j in range(n):
                total = sum(beta * float(bank[j] @ v[i]) for i in range(b))
                worst["prompt_scores"] = max(
                    worst["prompt_scores"], abs(scores[ci][j] - total / b)
                )

        s = rng.standard_normal(n) * 10
        median, mad, z = mad_zscores(s)
        sorted_s = np.sort(s)
        oracle_median = (
            sorted_s[n // 2]
            if n % 2 == 1
            else (sorted_s[n // 2 - 1] + sorted_s[n // 2]) / 2
        )
        devs = np.sort(np.abs(s - oracle_median))
        oracle_mad = (
            devs[n // 2] if n % 2 == 1 else (devs[n // 2 - 1] + devs[n // 2]) / 2
        )
        oracle_z = (
            np.zeros(n) if oracle_mad == 0 else (s - oracle_median) / oracle_mad
        )
        worst["mad_zscores"] = max(
            worst["mad_zscores"],
            abs(median - oracle_median),
            abs(mad - oracle_mad),
            float(np.abs(z - oracle_z).max()),
        )

    elapsed = time.monotonic() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    report(
        "criterion-3 oracle equivalence (7 ops x 1000 instances)",
        not bad and elapsed < 60.0,
        f"worst {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_coop_reduction_bit_identical():
    start = time.monotonic()
    task = build_desk_task()
    images, labels = task.sample(16, seed=502)
    epochs = 15

    # trainer trajectory, snapshotted after every epoch via resume stepping
    trainer_snapshots = []
    state = None
    for k in range(1, epochs + 1):
        state, _ = train_run(
            images, labels, task.names, task.handle, task.config(epochs=k), state=state
        )
        trainer_snapshots.append(state.ctx.vectors.copy())

    # independent CE-only reference loop
    cfg = task.config(epochs=epochs)
    handle = task.handle
    ctx = init_context(handle, cfg.context_init_text, cfg.context_length)
    vectors = ctx.vectors.astype(np.float32).astype(np.float64)
    rng = np.random.default_rng(cfg.seed)
    trajectory_equal = True
    for epoch in range(epochs):
        order = rng.permutation(images.shape[0])
        for s in range(0, images.shape[0], cfg.batch_size):
            batch = order[s : s + cfg.batch_size]
            grad = per_class_ce_grad(handle, vectors, task.names, images[batch], labels[batch])
            vectors = (
                (vectors - cfg.learning_rate * grad).astype(np.float32).astype(np.float64)
            )
        if not np.array_equal(trainer_snapshots[epoch], vectors):
            trajectory_equal = False
    elapsed = time.monotonic() - start
    report(
        "criterion-4 CE-only reduction bit-identical to reference loop",
        trajectory_equal and elapsed < 60.0,
        f"{epochs}-epoch trajectory, {elapsed:.1f}s",
    )


def test_criterion_5_mad_selection_behavior():
    start = time.monotonic()
    # (a) worked example
    _, _, z = mad_zscores(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    mask = select_prompts(z, 1.5)
    a_ok = list(np.flatnonzero(mask)) == [1, 2, 3]

    # (b) planted orthogonal outlier excluded in 20/20 seeds
    exclusions = 0
    for seed in range(20):
        bank, images, outlier = build_planted_outlier(seed)
        scores = prompt_scores([bank], images, beta=100.0)[0]
        _, _, zz = mad_zscores(scores)
        if not select_prompts(zz, 1.5)[outlier]:
            exclusions += 1
    b_ok = exclusions == 20

    # (c) all-equal scores keep everything
    _, mad0, z0 = mad_zscores(np.full(10, 3.3))
    c_ok = mad0 == 0.0 and select_prompts(z0, 1.5).all()

    # (d) selection invariant to beta rescaling
    rng = np.random.default_rng(55)
    banks = [unit_rows(rng, 30, 12) for _ in range(2)]
    v = unit_rows(rng, 5, 12)
    d_ok = True
    for k in (0.001, 1.0, 1000.0):
        for base_s, scaled_s in zip(
            prompt_scores(banks, v, 100.0), prompt_scores(banks, v, 100.0 * k)
        ):
            _, _, z1 = mad_zscores(base_s)
            _, _, z2 = mad_zscores(scaled_s)
            if not np.array_equal(select_prompts(z1, 1.5), select_prompts(z2, 1.5)):
                d_ok = False
    elapsed = time.monotonic() - start
    report(
        "criterion-5 MAD selection behavior (a-d)",
        a_ok and b_ok and c_ok and d_ok and elapsed < 10.0,
        f"outlier excluded {exclusions}/20, {elapsed:.1f}s",
    )


def test_criterion_6_desk_scale_learning():
    start = time.monotonic()
    task = build_desk_task()
    train_images, train_labels = task.sample(16, seed=502)
    held_images, held_labels = task.sample(100, seed=902)

    def accuracy_of(state, images, labels):
        text, _ = encode_text_with_context(task.handle, state.ctx, task.names)
        probs = class_probabilities(images, text, task.handle.tau)
        return float(np.mean(predict(probs) == labels))

    # defaults with both extra losses off
    plain_cfg = task.config()  # lr 0.0025, batch 4, 100 epochs, M=4
    plain_state, _ = train_run(
        train_images, train_labels, task.names, task.handle, plain_cfg
    )
    plain_train = accuracy_of(plain_state, train_images, train_labels)
    plain_held = accuracy_of(plain_state, held_images, held_labels)

    # consistency + distillation with a well-aligned bank
    full_cfg = task.config(lambda1=0.5, lambda2=0.25)
    bank = task.aligned_bank()
    pg, ps, _ = prepare_ensembles(task.names, bank, train_images, full_cfg)
    full_state, _ = train_run(
        train_images, train_labels, task.names, task.handle, full_cfg,
        ensemble_mean=pg, teacher_ensemble=ps,
    )
    full_held = accuracy_of(full_state, held_images, held_labels)

    elapsed = time.monotonic() - start
    ok = (
        plain_train >= 0.95
        and plain_held >= 0.90
        and full_held >= plain_held - 0.02
        and elapsed < 120.0
    )
    report(
        "criterion-6 desk-scale learning",
        ok,
        f"train {plain_train:.3f}, heldout {plain_held:.3f}, "
        f"with-distillation heldout {full_held:.3f}, {elapsed:.1f}s",
    )


@pytest.fixture
def cli_dataset(tmp_path):
    task = build_desk_task()
    (tmp_path / "catalog.tsv").write_text("".join(f"{n}\tMRI\n" for n in task.names))
    records, rows, index = [], [], {}
    for split, per_class, seed in (("train", 20, 11), ("test", 30, 13)):
        images, labels = task.sample(per_class, seed)
        for i, (row, label) in enumerate(zip(images, labels)):
            item = f"{split}-{i}"
            records.append(f"{item}\t{task.names[label]}\t{split}\n")
            index[item] = len(rows)
            rows.append(row)
    (tmp_path / "manifest.tsv").write_text("".join(records))
    write_embedding_cache(
        EmbeddingMatrix(values=np.stack(rows).astype(np.float32)),
        tmp_path / "images.emb",
    )
    write_cache_index(index, tmp_path / "images.idx")
    write_embedding_cache(
        EmbeddingMatrix(values=np.vstack(task.aligned_bank(n=20)).astype(np.float32)),
        tmp_path / "bank.emb",
    )
    config = {
        "catalog": str(tmp_path / "catalog.tsv"),
        "manifest": str(tmp_path / "manifest.tsv"),
        "image_cache": str(tmp_path / "images.emb"),
        "image_index": str(tmp_path / "images.idx"),
        "bank_cache": str(tmp_path / "bank.emb"),
        "out_dir": str(tmp_path / "out"),
        "embedding_dim": 32,
        "token_width": 64,
        "encoder_seed": 2,
        "epochs": 20,
        "shots": 8,
        "lambda1": 0.0,
        "lambda2": 0.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return tmp_path, config, path


@pytest.mark.parametrize(
    "lambda1,lambda2", [(0.0, 0.0), (0.5, 0.25)], ids=["ce-only", "ce-sccm-kdsp"]
)
def test_criterion_7_end_to_end_determinism(cli_dataset, lambda1, lambda2):
    start = time.monotonic()
    tmp_path, config, config_path = cli_dataset
    # eval consumes the checkpoint train just produced
    config_path.write_text(json.dumps({
        **config,
        "checkpoint": str(tmp_path / "out" / "checkpoint.ckpt"),
        "lambda1": lambda1,
        "lambda2": lambda2,
    }))
    artifacts = {}
    for attempt in range(2):
        assert cli_run("train", str(config_path)) == 0
        assert cli_run("eval", str(config_path)) == 0
        artifacts[attempt] = (
            (tmp_path / "out" / "checkpoint.ckpt").read_bytes(),
            (tmp_path / "out" / "train_log.tsv").read_bytes(),
            (tmp_path / "out" / "eval_report.json").read_bytes(),
        )
    # the sccm and kdsp columns of the training log show which terms ran
    log_rows = [line.split("\t") for line in artifacts[0][1].decode().splitlines()]
    extra_terms = all(float(row[2]) > 0.0 and float(row[3]) > 0.0 for row in log_rows)
    elapsed = time.monotonic() - start
    report(
        f"criterion-7 end-to-end determinism (train + eval twice, "
        f"lambda1={lambda1}, lambda2={lambda2})",
        artifacts[0] == artifacts[1] and extra_terms == (lambda1 != 0.0) and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_zero_shot_ensemble_on_exported_caches(cli_dataset):
    """Stand-in for user-supplied exported real-backbone caches: only the
    cache files matter, so the same flow runs unchanged. No accuracy
    target is asserted, only that the pipeline completes and reports."""
    tmp_path, config, config_path = cli_dataset
    doc = dict(config)
    doc["eval_classifier"] = "ensemble"
    config_path.write_text(json.dumps(doc))
    code = cli_run("eval", str(config_path))
    out = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    ok = code == 0 and isinstance(out["mean"], float) and 0.0 <= out["mean"] <= 100.0
    report(
        "criterion-8 zero-shot ensemble pipeline on exported caches",
        ok,
        f"reported accuracy {out['mean']:.2f}%",
    )
