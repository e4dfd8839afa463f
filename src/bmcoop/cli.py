"""Command-line entry point: one config file per run, flat key space.

The commands are the keys of ``_HANDLERS``. Primary artifacts are
byte-deterministic for identical configs; timestamps and host info live
only in the ``.meta`` sidecar that ``run`` writes beside each of them.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 network error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import evaluation, io, trainer
from .backbone import (
    CachedVisionSource,
    SyntheticTextEncoder,
    SyntheticVisionEncoder,
    check_index_rows,
    encode_text_bank,
    encode_text_with_context,
    project_context,
)
from .ensemble import mean_ensemble, write_score_report
from .errors import BmcoopError, ConfigError, DataError, NumericError
from .objective import cosine_predictions
from .types import SPLITS, ClassCatalog, RunConfig

# ``BMCOOP_LOG`` as ``main`` read it, applied at the first message (``_logger``)
_log_level: str | None = None

RUN_KEYS = tuple(f.name for f in fields(RunConfig))

# A JSON number kept as written, so that 60 and 60.0 hash differently.
NUMBER = (int, float)

# Every config key -> (type, default). ``float`` keys accept any JSON number
# and store a float. Path keys are strings, "" meaning unset. Only run keys
# (the ``RunConfig`` fields) may be overridden on the command line.
SCHEMA: dict[str, tuple] = {
    **{f.name: (type(f.default), f.default) for f in fields(RunConfig)},
    **{key: (str, "") for key in (
        "catalog", "manifest", "bank", "bank_cache",
        "image_cache", "image_index", "features_cache", "features_index",
        "checkpoint", "out_dir",
    )},
    "dataset_name": (str, "dataset"),
    "eval_split": (str, "test"),
    "eval_classifier": (str, "context"),
    "llm_base_url": (str, ""),
    "llm_model": (str, ""),
    "llm_api_key_env": (str, "BMCOOP_API_KEY"),
    "llm_fallback_bank": (str, ""),
    "llm_timeout": (NUMBER, 60.0),
    "llm_max_retries": (NUMBER, 3),
}
_TYPE_NAMES = {int: "an integer", float: "a number", NUMBER: "a number", str: "a string"}


@dataclass
class LoadedConfig:
    run: RunConfig
    values: dict  # every SCHEMA key, defaults filled in
    explicit: set[str]
    digest: str

    def path(self, key: str, required: bool = False) -> Path | None:
        value = self.values[key]
        if not value:
            if required:
                raise ConfigError(f"config key {key!r} is required for this command")
            return None
        return Path(value)

    def out_dir(self) -> Path:
        out = self.path("out_dir") or Path(".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise DataError(f"cannot create output directory {out}: {e.strerror or e}") from e
        return out


def _coerce(key: str, value):
    """Check ``value`` against the schema type of ``key``; float keys store a float."""
    expected = SCHEMA[key][0]
    if isinstance(value, bool) or not isinstance(value, NUMBER if expected is float else expected):
        raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[expected]}, got {value!r}")
    try:
        return float(value) if expected is float else value
    except OverflowError as e:
        raise ConfigError(f"config key {key!r}: {e}") from e


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is a ``ConfigError``, not
    the silent last-one-wins of ``json.loads``."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"config key {key!r} is given more than once")
        doc[key] = value
    return doc


def parse_config(path: str | Path, overrides: list[str] | None = None) -> LoadedConfig:
    """Load the JSON config, apply defaults, reject unknown keys, apply overrides.

    Overrides are ``key=value`` pairs referencing run-config keys only.
    """
    path = Path(path)
    try:
        doc = json.loads(io.read_text(path, "config file", ConfigError),
                         object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    values = {key: default for key, (_, default) in SCHEMA.items()}
    for key, value in doc.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, value)

    explicit = set(doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        if key not in RUN_KEYS:
            raise ConfigError(f"override {key!r} is not a run-config key")
        try:
            values[key] = _coerce(key, SCHEMA[key][0](raw))
        except ValueError as e:
            raise ConfigError(f"override {key}={raw!r}: {e}") from e
        explicit.add(key)

    run = RunConfig(**{key: values[key] for key in RUN_KEYS})
    # explicit epochs changes base-to-novel behavior, so it is part of identity
    identity = dict(values, epochs_explicit="epochs" in explicit)
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode("utf-8")
    ).hexdigest()

    if values["eval_split"] not in SPLITS:
        raise ConfigError(f"eval_split must be one of {SPLITS}")
    if values["eval_classifier"] not in ("context", "ensemble"):
        raise ConfigError("eval_classifier must be 'context' or 'ensemble'")
    _check_llm_settings(values["llm_timeout"], values["llm_max_retries"])
    return LoadedConfig(run=run, values=values, explicit=explicit, digest=digest)


def _check_llm_settings(timeout, retries) -> None:
    """Reject request settings that would only fail once a request is sent."""
    # false for NaN, infinities and anything a socket timeout cannot hold
    if not 0 < timeout <= threading.TIMEOUT_MAX:
        raise ConfigError(
            f"llm_timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} s, got {timeout!r}"
        )
    if retries < 0 or (isinstance(retries, float) and not retries.is_integer()):
        raise ConfigError(f"llm_max_retries must be a whole number >= 0, got {retries!r}")


def _write_meta(cfg: LoadedConfig, command: str, artifacts: list[Path]) -> None:
    """Write ``<artifact>.meta`` beside each primary artifact of ``command``."""
    meta = {
        "command": command,
        "config_digest": cfg.digest,
        "seed": cfg.run.seed,
        "created_unix": time.time(),
        "host": platform.node(),
    }
    for artifact in artifacts:
        io.write_json(artifact.with_suffix(artifact.suffix + ".meta"), meta)


# ── shared pipeline pieces ───────────────────────────────────────────

def _text_handle(cfg: LoadedConfig) -> SyntheticTextEncoder:
    run = cfg.run
    return SyntheticTextEncoder(
        seed=run.encoder_seed,
        embedding_dim=run.embedding_dim,
        token_width=run.token_width,
        tau=run.tau,
    )


def _load_inputs(cfg: LoadedConfig):
    """Catalog, manifest and the cached image embeddings they address."""
    catalog = io.load_catalog(cfg.path("catalog", required=True))
    manifest = io.load_manifest(cfg.path("manifest", required=True), catalog)
    matrix = io.read_embedding_cache(cfg.path("image_cache", required=True))
    index = io.load_cache_index(cfg.path("image_index", required=True))
    return catalog, manifest, CachedVisionSource(matrix=matrix, index=index)


def _bank_embeddings(cfg: LoadedConfig, catalog: ClassCatalog) -> np.ndarray:
    """The class-major bank cache as one (C, N, D) array in catalog order."""
    cache = io.read_embedding_cache(cfg.path("bank_cache", required=True))
    n_classes = len(catalog)
    if cache.row_count == 0 or cache.row_count % n_classes != 0:
        raise DataError(
            f"bank cache has {cache.row_count} rows, not a multiple of "
            f"{n_classes} classes"
        )
    return cache.values.astype(np.float64).reshape(n_classes, -1, cache.dim)


def _eval_predictions(cfg: LoadedConfig, manifest, source, class_embeds: np.ndarray,
                      tau: float, ranges: list[tuple[int, int]]):
    """Predicted class positions of the eval split, in manifest order, among
    the ``class_embeds`` rows of each ``(first, stop)`` of ``ranges`` (relative
    to ``first``), and the split's catalog positions. The split's float32
    cache rows are scored where they are stored, by row position."""
    split = np.flatnonzero(manifest.in_split(cfg.values["eval_split"]))
    # gathered in one step, to name a missing id or a zero row
    item_ids = np.array(manifest.item_ids, dtype=object)[split]
    rows = source.positions(item_ids)
    predictions = cosine_predictions(source.matrix.values, class_embeds, tau, ranges,
                                     item_ids, rows)
    return predictions, manifest.labels[split]


def _accuracy(predictions: np.ndarray, labels: np.ndarray, first: int, stop: int) -> float:
    """Accuracy on the images of the catalog classes ``first .. stop - 1``, each
    classified among those classes only: ``predictions`` are every eval
    image's predictions among those classes, relative to ``first``."""
    rows = (labels >= first) & (labels < stop)
    if not rows.any():
        raise DataError("no items in the eval split for the requested classes")
    return evaluation.accuracy(predictions[rows], labels[rows] - first)


# ── commands: each returns the primary artifacts it wrote ─────────────

def _logger():
    """The ``bmcoop.cli`` logger; ``logging`` is imported and set up at the first message."""
    import logging

    if _log_level is not None:  # a no-op once the root logger has a handler
        logging.basicConfig(level=logging.DEBUG if _log_level == "debug" else logging.INFO)
    return logging.getLogger("bmcoop.cli")


def cmd_gen_prompts(cfg: LoadedConfig) -> list[Path]:
    from . import promptgen  # only this command talks to an endpoint
    _logger()  # configured before promptgen writes its first message
    catalog = io.load_catalog(cfg.path("catalog", required=True))
    endpoint = promptgen.LlmEndpointConfig(
        base_url=cfg.values["llm_base_url"],
        model=cfg.values["llm_model"],
        api_key_env_var=cfg.values["llm_api_key_env"],
        timeout=float(cfg.values["llm_timeout"]),
        max_retries=int(cfg.values["llm_max_retries"]),
    )
    fallback = cfg.values["llm_fallback_bank"] or None
    bank = promptgen.fetch_prompts(
        endpoint, catalog, cfg.run.prompts_per_class, fallback_bank=fallback
    )
    out = cfg.path("bank", required=True)
    io.write_prompt_bank(bank, out)
    print(f"wrote prompt bank: {out}")
    return [out]


def cmd_encode_bank(cfg: LoadedConfig) -> list[Path]:
    catalog = io.load_catalog(cfg.path("catalog", required=True))
    bank = io.load_prompt_bank(cfg.path("bank", required=True))
    for note in bank.validate(catalog):
        _logger().warning("bank diagnostic: %s", note)
    embeds = encode_text_bank(_text_handle(cfg), bank, catalog.names)
    out = cfg.path("bank_cache", required=True)
    io.write_embedding_cache(embeds, out)
    print(f"wrote bank cache: {out} ({len(embeds)} rows)")
    return [out]


def cmd_encode_images(cfg: LoadedConfig) -> list[Path]:
    features = io.read_embedding_cache(cfg.path("features_cache", required=True))
    index = io.load_cache_index(cfg.path("features_index", required=True))
    check_index_rows(index, features.row_count)
    run = cfg.run
    encoder = SyntheticVisionEncoder(
        seed=run.encoder_seed,
        feature_dim=features.dim,
        embedding_dim=run.embedding_dim,
    )
    # a zero row is named by the item id that points to it, else by its index
    names: list = list(range(features.row_count))
    for item_id, row in index.items():
        names[row] = item_id
    out_cache = cfg.path("image_cache", required=True)
    out_index = cfg.path("image_index", required=True)
    # each block of rows goes into the file as it is encoded
    io.write_embedding_cache(
        lambda rows: encoder.encode(features.values, names, out=rows), out_cache,
        shape=(features.row_count, run.embedding_dim),
    )
    io.write_cache_index(index, out_index)
    print(f"wrote image cache: {out_cache} ({features.row_count} rows)")
    return [out_cache, out_index]


def cmd_select(cfg: LoadedConfig) -> list[Path]:
    catalog, manifest, source = _load_inputs(cfg)
    bank_embeds = _bank_embeddings(cfg, catalog)
    item_ids, _ = trainer.sample_few_shot(manifest, catalog, cfg.run.shots, cfg.run.seed)
    images = source.encode(item_ids)
    _, _, reports = trainer.prepare_ensembles(
        catalog.names, bank_embeds, images, cfg.run
    )
    out = cfg.out_dir() / "prompt_scores.json"
    write_score_report(
        reports, out,
        header={
            "config_digest": cfg.digest,
            "seed": cfg.run.seed,
            "zeta_s": cfg.run.zeta_s,
            "beta": cfg.run.beta,
        },
    )
    print(f"wrote prompt score report: {out}")
    return [out]


def _train_common(cfg, catalog, manifest, source, handle, keep: slice, epochs: int):
    """Train the context on the catalog classes ``keep``; returns (state, epoch logs)."""
    run = replace(cfg.run, epochs=epochs)
    class_names = catalog.names[keep]

    item_ids, labels = trainer.sample_few_shot(manifest, catalog, run.shots, run.seed, keep)
    images = source.encode(item_ids)

    ensemble_mean_arr = teacher = None
    if run.lambda1 != 0.0 or run.lambda2 != 0.0:
        ensemble_mean_arr, teacher, _ = trainer.prepare_ensembles(
            class_names, _bank_embeddings(cfg, catalog)[keep], images, run
        )

    return trainer.train_run(
        images, labels, class_names, handle, run,
        ensemble_mean=ensemble_mean_arr, teacher_ensemble=teacher,
    )


def _save_training(
    cfg: LoadedConfig, state: trainer.TrainState, logs: list[trainer.EpochLog]
) -> tuple[Path, Path]:
    """Write the checkpoint and the training log into ``out_dir``; returns their paths."""
    out = cfg.out_dir()
    ckpt, log_path = out / "checkpoint.ckpt", out / "train_log.tsv"
    trainer.save_checkpoint(state, ckpt)
    trainer.write_training_log(logs, log_path)
    return ckpt, log_path


def cmd_train(cfg: LoadedConfig) -> list[Path]:
    catalog, manifest, source = _load_inputs(cfg)
    state, logs = _train_common(
        cfg, catalog, manifest, source, _text_handle(cfg), slice(None), cfg.run.epochs
    )
    ckpt, log_path = _save_training(cfg, state, logs)
    final = logs[-1].train_acc if logs else float("nan")
    print(f"wrote checkpoint: {ckpt} (final train accuracy {100 * final:.2f}%)")
    return [ckpt, log_path]


def cmd_eval(cfg: LoadedConfig) -> list[Path]:
    catalog, manifest, source = _load_inputs(cfg)
    handle = _text_handle(cfg)
    if cfg.values["eval_classifier"] == "ensemble":
        class_embeds = mean_ensemble(_bank_embeddings(cfg, catalog))
    else:
        ckpt = cfg.path("checkpoint")
        # no checkpoint: fresh template-initialized context (zero-shot)
        if ckpt:
            state = trainer.load_checkpoint(ckpt)
            trainer.check_encoder(state, handle)
        else:
            state = trainer.initial_state(handle, cfg.run)
        # the stored context, projected once
        s = project_context(handle, state.ctx)
        class_embeds, _ = encode_text_with_context(handle, s, len(state.ctx), catalog.names)
    full = (0, len(catalog))
    (predictions,), labels = _eval_predictions(cfg, manifest, source, class_embeds,
                                               handle.tau, [full])
    acc = _accuracy(predictions, labels, *full)

    out = cfg.out_dir() / "eval_report.json"
    table = evaluation.write_run_report(
        out, cfg.values["dataset_name"], cfg.run.seed, acc, None, None,
        {"config_digest": cfg.digest, "classifier": cfg.values["eval_classifier"]},
    )
    print(table, end="")
    print(f"wrote eval report: {out}")
    return [out]


def cmd_base_to_novel(cfg: LoadedConfig) -> list[Path]:
    catalog, manifest, source = _load_inputs(cfg)
    handle = _text_handle(cfg)
    base_names, novel_names = evaluation.base_novel_split(catalog)
    cut = len(base_names)
    # convention: 50 epochs here unless the config pins epochs explicitly
    epochs = cfg.run.epochs if "epochs" in cfg.explicit else 50
    state, logs = _train_common(cfg, catalog, manifest, source, handle, slice(cut), epochs)

    # each class row is encoded on its own, and a row's cosine logits do not
    # depend on the other rows or columns, so the base and novel classes are
    # column ranges of one scoring of the full catalog
    embeds, _ = encode_text_with_context(handle, state.s, len(state.ctx), catalog.names)
    ranges = [(0, cut), (cut, len(catalog)), (0, len(catalog))]
    predictions, labels = _eval_predictions(cfg, manifest, source, embeds, handle.tau, ranges)
    base_acc, novel_acc, overall = (
        _accuracy(pred, labels, first, stop) for pred, (first, stop) in zip(predictions, ranges)
    )

    ckpt, log_path = _save_training(cfg, state, logs)
    report_path = ckpt.parent / "base_to_novel_report.json"
    table = evaluation.write_run_report(
        report_path, cfg.values["dataset_name"], cfg.run.seed, overall, base_acc, novel_acc,
        {
            "config_digest": cfg.digest,
            "base_classes": base_names,
            "novel_classes": novel_names,
            "train_epochs": epochs,
        },
    )
    print(table, end="")
    print(f"wrote base-to-novel report: {report_path}")
    return [ckpt, log_path, report_path]


_HANDLERS = {
    "gen-prompts": cmd_gen_prompts,
    "encode-bank": cmd_encode_bank,
    "encode-images": cmd_encode_images,
    "select": cmd_select,
    "train": cmd_train,
    "eval": cmd_eval,
    "base-to-novel": cmd_base_to_novel,
}


def run(command: str, config_path: str, overrides: list[str] | None = None) -> int:
    """Execute one command; returns the process exit status."""
    try:
        if command not in _HANDLERS:
            raise ConfigError(f"unknown command {command!r}")
        cfg = parse_config(config_path, overrides)
        _write_meta(cfg, command, _HANDLERS[command](cfg))
        return 0
    except BmcoopError as e:
        if isinstance(e, NumericError):
            _dump_abort_state(config_path, e)
        message = " ".join(str(e).split())
        print(f"bmcoop-error category={e.category} message={message!r}", file=sys.stderr)
        return e.exit_code


def _dump_abort_state(config_path: str, e: NumericError) -> None:
    dump = Path(config_path).with_suffix(".abort.json")
    # strict JSON has no NaN or infinity: they go in as "nan", "inf", "-inf"
    state = {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in e.state.items()
    }
    try:
        io.write_json(dump, state)
        _logger().error("wrote abort state dump: %s", dump)
    except DataError:
        _logger().error("could not write abort state dump")


def main(argv: list[str] | None = None) -> int:
    global _log_level
    # import-time objects live until exit; frozen, the collector never walks them again
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="bmcoop",
        description="Prompt-context learning runs driven by one JSON config.",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("config", help="path to the JSON run config")
    parser.add_argument(
        "overrides", nargs="*",
        help="key=value overrides of run-config keys",
    )
    args = parser.parse_args(argv)
    _log_level = os.environ.get("BMCOOP_LOG", "info").lower()
    return run(args.command, args.config, args.overrides)


if __name__ == "__main__":
    sys.exit(main())
