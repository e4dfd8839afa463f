"""Span recorder for the traced run, and the child bootstrap that uses it.

Run as a script, it times ``import bmcoop.cli`` in a fresh interpreter,
wraps the functions listed in ``TARGETS`` in every ``bmcoop`` module that
binds them by name, runs one CLI command and writes the recorded spans
and counts as JSON:

    python3 perfbench/spans.py SPANS_OUT COMMAND CONFIG [key=value ...]

A span is ``[name, start, end, parent index, extra]``; ``extra`` is a
number or a small dict (bytes, rows) read from the call's arguments or
result. Spans live in memory and are written once, when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

STEP = "objective.loss_gradient"
BANK_ENCODE = "backbone.encode_text_bank"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, index, name))


def _selection(args, kwargs, reports):
    return {"scored": sum(len(r.scores) for r in reports),
            "kept": sum(r.n_selected for r in reports)}


# (module, attribute or Class.method, span name, extra) -- extra None means
# no payload; a span name of None marks a counted-only function.
TARGETS = [
    ("bmcoop.io", "read_embedding_cache", "io.read_embedding_cache", _file_bytes(0, "path")),
    ("bmcoop.io", "write_embedding_cache", "io.write_embedding_cache", _file_bytes(1, "path")),
    ("bmcoop.io", "load_catalog", "io.load_catalog", None),
    ("bmcoop.io", "load_manifest", "io.load_manifest", None),
    ("bmcoop.io", "load_cache_index", "io.load_cache_index", None),
    ("bmcoop.io", "load_prompt_bank", "io.load_prompt_bank", None),
    ("bmcoop.types", "EmbeddingMatrix.__post_init__", "types.EmbeddingMatrix",
     lambda args, kwargs, result: int(args[0].values.shape[0])),
    ("bmcoop.backbone", "encode_text_with_context", "backbone.encode_text_with_context", None),
    ("bmcoop.backbone", "TextGradTape.vjp", "backbone.TextGradTape.vjp", None),
    ("bmcoop.backbone", "encode_text_bank", BANK_ENCODE,
     lambda args, kwargs, result: sum(len(p) for p in _arg(args, kwargs, 1, "bank").prompts.values())),
    ("bmcoop.backbone", "SyntheticVisionEncoder.encode", "backbone.SyntheticVisionEncoder.encode", None),
    ("bmcoop.backbone", "CachedVisionSource.encode", "backbone.CachedVisionSource.encode",
     lambda args, kwargs, result: len(_arg(args, kwargs, 1, "item_ids"))),
    ("bmcoop.objective", "loss_gradient", STEP, None),
    ("bmcoop.objective", "total_loss", "objective.total_loss", None),
    ("bmcoop.objective", "ce_grad_wrt_text", "objective.ce_grad_wrt_text", None),
    ("bmcoop.objective", "sccm_grad_wrt_text", "objective.sccm_grad_wrt_text", None),
    ("bmcoop.objective", "kdsp_grad_wrt_text", "objective.kdsp_grad_wrt_text", None),
    ("bmcoop.objective", "class_probabilities", "objective.class_probabilities", None),
    ("bmcoop.objective", "cosine_logits", None, None),
    ("bmcoop.ensemble", "score_and_select", "ensemble.score_and_select", _selection),
    ("bmcoop.trainer", "sample_few_shot", "trainer.sample_few_shot", None),
    ("bmcoop.trainer", "prepare_ensembles", "trainer.prepare_ensembles", None),
    ("bmcoop.trainer", "train_run", "trainer.train_run", None),
    ("bmcoop.trainer", "_accuracy_with_context", "trainer.epoch_accuracy", None),
    ("bmcoop.trainer", "save_checkpoint", "trainer.save_checkpoint", _file_bytes(1, "path")),
    ("bmcoop.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("bmcoop.evaluation", "accuracy", "evaluation.accuracy",
     lambda args, kwargs, result: len(_arg(args, kwargs, 0, "predictions"))),
]


class Recorder:
    """In-memory spans and counts for one process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _enter(self, name: str) -> None:
        self._count(name)
        if self._active.get(STEP) and name != STEP:
            self._count(name + "@step")
        self._active[name] = self._active.get(name, 0) + 1

    def _exit(self, name: str) -> None:
        self._active[name] -= 1

    def wrap_span(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                self._exit(name)
            if extra is not None:
                record[4] = extra(args, kwargs, result)
            return result
        return wrapper

    def wrap_count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)
        return wrapper

    def wrap_token_vector(self, fn):
        """Token-cache hits and misses while the prompt bank is being encoded."""
        @functools.wraps(fn)
        def wrapper(encoder, token):
            if self._active.get(BANK_ENCODE):
                self._count("backbone.token_cache_hit" if token in encoder._token_cache
                            else "backbone.token_cache_miss")
            return fn(encoder, token)
        return wrapper

    def install(self) -> dict[str, int]:
        """Patch every target; returns how many module or class bindings each got."""
        modules = [m for n, m in sys.modules.items() if n == "bmcoop" or n.startswith("bmcoop.")]
        bindings: dict[str, int] = {}
        for module_name, attr, name, extra in TARGETS:
            module = sys.modules[module_name]
            key = name or f"{module_name.split('.')[-1]}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap_span(name, cls.__dict__[method], extra))
                bindings[key] = 1
                continue
            original = getattr(module, attr)
            wrapper = self.wrap_span(name, original, extra) if name else self.wrap_count(key, original)
            bindings[key] = 0
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)
                        bindings[key] += 1
        encoder = sys.modules["bmcoop.backbone"].SyntheticTextEncoder
        encoder.token_vector = self.wrap_token_vector(encoder.__dict__["token_vector"])
        return bindings


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import bmcoop.cli as cli
    import_s = time.perf_counter() - start

    recorder = Recorder()
    bindings = recorder.install()
    code = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "bindings": bindings,
                   "counts": recorder.counts, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
