"""Workload definitions and the seeded input generator.

Every input file the CLI reads is written here from the workload seed:
catalog, manifest, prompt-bank JSON and raw image features with their
index. Class geometry is fixed per workload (the class names and the
shared offset do not depend on the seed); the seed draws the image
noise, the prompt words, the outlier prompts and the support sampling,
so quality numbers move a little between seeds and not at all between
two runs of one seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bmcoop.backbone import SyntheticTextEncoder, SyntheticVisionEncoder
from bmcoop.io import write_cache_index, write_embedding_cache
from bmcoop.types import EmbeddingMatrix

EMBEDDING_DIM = 512   # BiomedCLIP joint embedding width
TOKEN_WIDTH = 768     # PubMedBERT token width
FEATURE_DIM = 512     # square vision projection, so its pseudo-inverse is exact
ENCODER_SEED = 0
FEATURE_SCALE = 10.0  # norm of the pre-normalisation vision output we aim at
OUTLIER_SHARE = 0.04  # prompts made of unrelated words, for the MAD rule to drop

PAPER_NAMES = [
    "glioma tumor", "meningioma tumor", "pituitary tumor", "normal brain",
    "ischemic stroke", "hemorrhagic stroke", "multiple sclerosis", "brain abscess",
]


@dataclass(frozen=True)
class Workload:
    name: str
    n_classes: int
    shots: int
    train_per_class: int
    test_per_class: int
    prompts_per_class: int
    prompt_words: int       # descriptor words per prompt, besides the class name
    batch_size: int
    epochs: int             # train stage
    b2n_epochs: int         # base-to-novel stage (pinned in its config)
    lambda1: float
    lambda2: float
    noise: float            # image noise norm relative to the unit class centroid
    shared: float           # shared offset of the centroids, relative to a name direction
    mix: float              # pull of each centroid toward the next class's name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper16", n_classes=8, shots=16, train_per_class=32,
            test_per_class=250, prompts_per_class=50, prompt_words=10,
            batch_size=4, epochs=20, b2n_epochs=20, lambda1=0.5, lambda2=0.25,
            noise=3.0, shared=0.5, mix=0.6,
        ),
        Workload(
            name="wide100", n_classes=100, shots=4, train_per_class=8,
            test_per_class=40, prompts_per_class=50, prompt_words=10,
            batch_size=8, epochs=2, b2n_epochs=2, lambda1=0.5, lambda2=0.25,
            noise=3.0, shared=0.5, mix=0.6,
        ),
        Workload(
            name="bank40k", n_classes=8, shots=16, train_per_class=32,
            test_per_class=5000, prompts_per_class=400, prompt_words=22,
            batch_size=4, epochs=20, b2n_epochs=10, lambda1=0.0, lambda2=0.0,
            noise=3.0, shared=0.5, mix=0.6,
        ),
    )
}


def _words(rng: np.random.Generator, count: int, syllables: int) -> list[str]:
    parts = ["ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu",
             "ra", "se", "ti", "vo", "xu", "za", "lo", "ne", "ri", "tu"]
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        word = "".join(rng.choice(parts, size=syllables))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def class_names(workload: Workload) -> list[str]:
    if workload.n_classes == len(PAPER_NAMES):
        return list(PAPER_NAMES)
    # fixed (seed-independent) names, two or three tokens each
    rng = np.random.default_rng(12345)
    stems = _words(rng, workload.n_classes, 3)
    kinds = ["lesion", "tumor", "nodule", "cyst", "infarct"]
    return [
        f"{stem} {kinds[i % len(kinds)]}" + (" grade" if i % 3 == 0 else "")
        for i, stem in enumerate(stems)
    ]


def _centroids(names: list[str], workload: Workload) -> np.ndarray:
    """Unit class centroids near the class-text directions of the frozen encoder."""
    text = SyntheticTextEncoder(
        seed=ENCODER_SEED, embedding_dim=EMBEDDING_DIM, token_width=TOKEN_WIDTH
    )
    name_dirs = np.stack([text.projection @ text.token_vectors(n).sum(axis=0) for n in names])
    shared = np.random.default_rng(777).standard_normal(EMBEDDING_DIM)
    shared *= workload.shared * np.linalg.norm(name_dirs, axis=1).mean() / np.linalg.norm(shared)
    cent = shared + name_dirs + workload.mix * np.roll(name_dirs, -1, axis=0)
    return cent / np.linalg.norm(cent, axis=1, keepdims=True)


def _features(unit_rows: np.ndarray) -> np.ndarray:
    """Raw features the synthetic vision encoder maps onto ``unit_rows``."""
    vision = SyntheticVisionEncoder(
        seed=ENCODER_SEED, feature_dim=FEATURE_DIM, embedding_dim=EMBEDDING_DIM
    )
    inverse = np.linalg.pinv(vision.projection)  # (F, D)
    return (FEATURE_SCALE * unit_rows - vision.bias) @ inverse.T


def generate(workload: Workload, seed: int, out: Path) -> dict[str, str]:
    """Write every input file for ``workload`` under ``out``; returns their paths."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, workload.n_classes])
    names = class_names(workload)
    paths = {
        "catalog": out / "catalog.tsv",
        "manifest": out / "manifest.tsv",
        "bank": out / "bank.json",
        "features_cache": out / "features.emb",
        "features_index": out / "features.idx",
    }
    paths["catalog"].write_text("".join(f"{n}\tMRI\n" for n in names), encoding="utf-8")

    cent = _centroids(names, workload)
    records, labels = [], []
    for split, per_class in (("train", workload.train_per_class), ("test", workload.test_per_class)):
        for c, name in enumerate(names):
            for _ in range(per_class):
                records.append(f"img{len(records):07d}\t{name}\t{split}\n")
                labels.append(c)
    labels = np.asarray(labels)
    noise = rng.standard_normal((labels.size, EMBEDDING_DIM))
    rows = cent[labels] + workload.noise * noise / np.sqrt(EMBEDDING_DIM)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    paths["manifest"].write_text("".join(records), encoding="utf-8")
    write_embedding_cache(
        EmbeddingMatrix(values=_features(rows).astype(np.float32)), paths["features_cache"]
    )
    write_cache_index({f"img{i:07d}": i for i in range(labels.size)}, paths["features_index"])

    vocab = _words(np.random.default_rng(4242), 400, 2)
    n_outliers = max(1, round(OUTLIER_SHARE * workload.prompts_per_class))
    classes = []
    for c, name in enumerate(names):
        prompts = []
        for p in range(workload.prompts_per_class):
            words = list(rng.choice(vocab, size=workload.prompt_words))
            if p >= n_outliers:
                words.insert(int(rng.integers(0, len(words) + 1)), name)
            prompts.append(" ".join(words))
        classes.append({"name": name, "modality": "MRI", "prompts": prompts})
    bank = {"query_template": "describe {class}", "generator": {"model": "perfbench"},
            "classes": classes}
    paths["bank"].write_text(json.dumps(bank, indent=1) + "\n", encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}
