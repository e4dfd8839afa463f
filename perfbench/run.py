"""bmcoop benchmark: the CLI pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout. The inputs are generated from
``--seed`` into a scratch directory inside the checkout; every stage is a
``python -m bmcoop.cli`` child process, run one after another (closed
loop, one client). The pipeline runs twice, then its stages keep running in
order while each is expected to end within ``--seconds``. A stage's time is
the median over all of its samples, rescaled to a fixed machine speed
measured by ``reference_kernel`` (see ``REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each stage
untraced and then under ``perfbench/spans.py``, and prints the per-layer
metrics from the recorded spans and the tracing overhead.

Every run checks its outputs: each stage exits 0, repeated pipelines of one
seed write byte-identical artifacts, training lowers the total loss, and
the quality numbers match ``expected.json`` (see ``check_quality``).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. ``attempted`` and ``failed`` count stage runs; a stage whose
artifact fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

# One BLAS thread for every process: the benchmark measures arithmetic,
# and a single thread is the steadiest setting on a small shared machine.
# Set before numpy is first imported, so the input generator uses it too.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The speed of the machine drifts by up to ±30% over minutes on a shared
# VM, and every stage of a run moves with it. So every reported time is
# the median wall time rescaled to a fixed machine speed: multiplied by
# REFERENCE_S over the median time of ``reference_kernel`` in the same run.
# The kernel runs before the first sample of every stage in every pass, so
# it sees the same machine. Like a stage, it is a fresh interpreter that
# imports numpy, faults in fresh pages and does mat-vecs at the text shape;
# it calls no bmcoop code.
REFERENCE_S = 0.230
REFERENCE_CODE = """
import numpy as np
pages = np.ones(6 * 2**20)
pages += 1.0
matrix = np.linspace(-1.0, 1.0, 512 * 768).reshape(512, 768)
vector = np.linspace(0.0, 1.0, 768)
for _ in range(150):
    matrix @ vector
"""

# Within one repetition a stage runs back to back until it has taken this
# long, so sub-second stages (interpreter start-up and little else) get
# several samples while the long ones run once.
MIN_STAGE_S = 1.0
# A quality number matches its recorded value for the same seed within
# these tolerances; for a seed with no record it must lie inside the range
# of the recorded seeds widened by the band margins.
ACC_TOL_PCT = 0.25      # one test image is 0.05 points on paper16
LOSS_RTOL = 1e-5        # final total loss, relative
ACC_BAND_PCT = 5.0
LOSS_BAND_RTOL = 0.25

# Stage name -> (CLI command, config, primary artifacts relative to the
# work directory), in pipeline order. ``setup`` is the set-up probe
# (``train`` with epochs=0); it is not part of ``pipeline_s``.
STAGES = {
    "encode-bank": ("encode-bank", "main", ["bank.emb"]),
    "encode-images": ("encode-images", "main", ["images.emb", "images.idx"]),
    "select": ("select", "main", ["out/main/prompt_scores.json"]),
    "train": ("train", "main", ["out/main/checkpoint.ckpt", "out/main/train_log.tsv"]),
    "eval": ("eval", "main", ["out/main/eval_report.json"]),
    "base-to-novel": ("base-to-novel", "b2n", [
        "out/b2n/checkpoint.ckpt", "out/b2n/train_log.tsv", "out/b2n/base_to_novel_report.json"]),
    "setup": ("train", "setup", ["out/setup/checkpoint.ckpt"]),
}
PIPELINE = [s for s in STAGES if s != "setup"]
PREPARE = ("encode-bank", "encode-images", "select")


@dataclass
class StageRun:
    wall_s: float
    spans: dict | None = None  # traced runs only


@dataclass
class Pipeline:
    """One repetition of the stages; each stage has one or more samples."""

    runs: dict[str, list[StageRun]] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.runs[s][0].wall_s for s in PIPELINE)


class StageFailed(Exception):
    pass


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self.walls: dict[str, list[float]] = {name: [] for name in STAGES}
        self.reference: list[float] = []
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # ── inputs ──────────────────────────────────────────────────────
    def prepare(self) -> None:
        from workloads import EMBEDDING_DIM, FEATURE_DIM, TOKEN_WIDTH, generate

        w = self.workload
        paths = generate(w, self.seed, self.work / "inputs")
        common = {
            **paths,
            "bank_cache": str(self.work / "bank.emb"),
            "image_cache": str(self.work / "images.emb"),
            "image_index": str(self.work / "images.idx"),
            "dataset_name": w.name,
            "embedding_dim": EMBEDDING_DIM,
            "token_width": TOKEN_WIDTH,
            "feature_dim": FEATURE_DIM,
            "shots": w.shots,
            "batch_size": w.batch_size,
            "prompts_per_class": w.prompts_per_class,
            "lambda1": w.lambda1,
            "lambda2": w.lambda2,
            "seed": self.seed,
        }
        configs = {
            "main": {**common, "epochs": w.epochs,
                     "checkpoint": str(self.work / "out/main/checkpoint.ckpt")},
            "b2n": {**common, "epochs": w.b2n_epochs},
            "setup": {**common, "epochs": 0},
        }
        for name, doc in configs.items():
            doc["out_dir"] = str(self.work / "out" / name)
            (self.work / f"{name}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")

    # ── stages ──────────────────────────────────────────────────────
    def run_stage(self, name: str, traced: bool) -> StageRun:
        stage, config, artifacts = STAGES[name]
        log = self.work / "logs" / f"{name}.log"
        log.parent.mkdir(exist_ok=True)
        spans_out = self.work / "logs" / f"{name}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_out)]
        else:
            cmd = [sys.executable, "-m", "bmcoop.cli"]
        cmd += [stage, str(self.work / f"{config}.json")]
        self.attempted += 1
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=fh, stderr=fh)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(name, f"exited {proc.returncode}: " + log.read_text(errors="replace")[-2000:])
            raise StageFailed(name)
        run = StageRun(wall_s=wall)
        if traced:
            run.spans = json.loads(spans_out.read_text(encoding="utf-8"))
        else:
            self.walls[name].append(wall)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        for rel in artifacts:
            digest = hashlib.sha256((self.work / rel).read_bytes()).hexdigest()
            self.digests.setdefault(rel, set()).add(digest)
        return run

    def fail(self, stage: str, message: str) -> None:
        self.problems.append(f"{stage}: {message}")
        self.failed = min(self.failed + 1, self.attempted)

    def pipeline(self, deadline: float | None = None) -> Pipeline:
        """Run every stage in order, each until it has taken ``MIN_STAGE_S``;
        stop early before a stage expected to end past ``deadline``. Only a
        complete pipeline reads quality."""
        p = Pipeline()
        for name in STAGES:
            typical = median(self.walls[name]) if self.walls[name] else 0.0
            fits = lambda: deadline is None or time.perf_counter() + typical <= deadline
            if not fits():
                return p
            self.reference.append(reference_kernel())
            runs = p.runs[name] = [self.run_stage(name, traced=False)]
            while sum(r.wall_s for r in runs) < MIN_STAGE_S and fits():
                runs.append(self.run_stage(name, traced=False))
        p.quality = read_quality(self.work)
        return p

    # ── correctness ─────────────────────────────────────────────────
    def check(self, pipelines: list[Pipeline], record: bool) -> None:
        pipelines = [p for p in pipelines if p.quality]
        first = pipelines[0]
        for name, (_, _, artifacts) in STAGES.items():
            for rel in artifacts:
                if len(self.digests.get(rel, ())) > 1:
                    self.fail(name, f"artifact {rel} differs between runs of seed {self.seed}")
        for p in pipelines[1:]:
            if p.quality != first.quality:
                self.fail("eval", "quality numbers differ between repetitions")
        for key, stage in (("train_loss_drop", "train"), ("b2n_loss_drop", "base-to-novel")):
            if not first.quality[key] > 0.0:
                self.fail(stage, "total loss did not decrease over training")
        if record:
            record_quality(self.workload.name, self.seed, first.quality)
        else:
            for stage, message in check_quality(self.workload.name, self.seed, first.quality):
                self.fail(stage, message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def reference_kernel() -> float:
    """Wall seconds of a child interpreter running ``REFERENCE_CODE``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], check=True)
    return time.perf_counter() - start


def read_quality(work: Path) -> dict[str, float]:
    """Quality numbers from the artifacts of the last pipeline."""
    def loss_drop(log: Path) -> tuple[float, float]:
        totals = [float(line.split("\t")[4]) for line in log.read_text().splitlines()]
        return totals[-1], totals[0] - totals[-1]

    eval_report = json.loads((work / "out/main/eval_report.json").read_text())
    b2n_report = json.loads((work / "out/b2n/base_to_novel_report.json").read_text())
    final_loss, drop = loss_drop(work / "out/main/train_log.tsv")
    _, b2n_drop = loss_drop(work / "out/b2n/train_log.tsv")
    return {
        "eval_acc_pct": float(eval_report["mean"]),
        "b2n_hm_pct": float(b2n_report["hm"]),
        "final_total_loss": final_loss,
        "train_loss_drop": drop,
        "b2n_loss_drop": b2n_drop,
    }


QUALITY_STAGE = {"eval_acc_pct": "eval", "b2n_hm_pct": "base-to-novel", "final_total_loss": "train"}


def check_quality(workload: str, seed: int, got: dict[str, float]) -> list[tuple[str, str]]:
    """Compare with the value recorded for this seed, else with the recorded band."""
    recorded = {}
    if EXPECTED.exists():
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})
    if not recorded:
        return [("eval", f"no recorded quality values for workload {workload}")]
    problems = []
    mine = recorded.get(str(seed))
    for key, stage in QUALITY_STAGE.items():
        value = got[key]
        if key == "final_total_loss":
            tol, margin = LOSS_RTOL * abs(value), LOSS_BAND_RTOL * abs(value)
        else:
            tol, margin = ACC_TOL_PCT, ACC_BAND_PCT
        if mine is not None:
            ok = abs(value - mine[key]) <= tol
            what = f"recorded {mine[key]!r} +- {tol:.3g}"
        else:
            seen = [r[key] for r in recorded.values()]
            lo, hi = min(seen) - margin, max(seen) + margin
            ok = lo <= value <= hi
            what = f"recorded band [{lo:.6g}, {hi:.6g}]"
        if not ok:
            problems.append((stage, f"{key} = {value!r} outside {what} (seed {seed})"))
    return problems


def record_quality(workload: str, seed: int, got: dict[str, float]) -> None:
    doc = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    doc.setdefault(workload, {})[str(seed)] = {k: got[k] for k in QUALITY_STAGE}
    doc[workload] = dict(sorted(doc[workload].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ── metrics ─────────────────────────────────────────────────────────

def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(bench: Bench, pipelines: list[Pipeline]) -> dict[str, tuple[float, str, int]]:
    """Each metric as (value, unit, sample count); a stage time is the median
    of every sample of that stage in the run, rescaled by the reference kernel."""
    w = bench.workload
    scale = REFERENCE_S / median(bench.reference)
    stage = {s: scale * median(walls) for s, walls in bench.walls.items()}
    n = {s: len(walls) for s, walls in bench.walls.items()}
    samples = w.epochs * w.n_classes * w.shots
    complete = [p for p in pipelines if p.quality]
    q = complete[0].quality
    return {
        "setup_s": (stage["setup"], "s", n["setup"]),
        "pipeline_s": (sum(stage[s] for s in PIPELINE), "s", min(n[s] for s in PIPELINE)),
        "prepare_s": (sum(stage[s] for s in PREPARE), "s", min(n[s] for s in PREPARE)),
        "train_s": (stage["train"], "s", n["train"]),
        "train_samples_per_s": (samples / (stage["train"] - stage["setup"]), "1/s", n["train"]),
        "eval_s": (stage["eval"], "s", n["eval"]),
        "base_to_novel_s": (stage["base-to-novel"], "s", n["base-to-novel"]),
        "peak_rss_mb": (bench.peak_rss_mb, "MB", sum(n.values())),
        "eval_acc_pct": (q["eval_acc_pct"], "%", len(complete)),
        "b2n_hm_pct": (q["b2n_hm_pct"], "%", len(complete)),
    }


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def layer_metrics(p: Pipeline) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Per-layer metrics of one traced pipeline, and the call count of every span."""
    busy: dict[str, float] = {}
    extra: dict[str, list] = {}
    counts: dict[str, int] = {}
    step_counts: dict[str, int] = {}
    steps_gaps: list[float] = []
    import_s = []
    for stage in PIPELINE:
        dump = p.runs[stage][0].spans
        import_s.append(dump["import_s"])
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            busy[span[0]] = busy.get(span[0], 0.0) + own
            if span[4] is not None:
                extra.setdefault(span[0], []).append(span[4])
        if stage == "train":
            # step metrics come from the full-catalog train stage only
            step_counts = dump["counts"]
            starts = [s[1] for s in spans if s[0] == "objective.loss_gradient"]
            steps_gaps = [b - a for a, b in zip(starts, starts[1:])]

    def t(*names):
        return sum(busy.get(n, 0.0) for n in names)

    steps = step_counts.get("objective.loss_gradient", 0)
    per_step = lambda key: step_counts.get(key + "@step", 0) / steps if steps else 0.0
    selection = extra.get("ensemble.score_and_select", [])
    scored = sum(s["scored"] for s in selection)
    hits = counts.get("backbone.token_cache_hit", 0)
    lookups = hits + counts.get("backbone.token_cache_miss", 0)
    tail = tail_percentile(len(steps_gaps))
    mb = float(2**20)
    metrics = {
        "cli.import_s": (median(import_s), "s"),
        "io.cache_read_s": (t("io.read_embedding_cache"), "s"),
        "io.cache_read_mb": (sum(extra.get("io.read_embedding_cache", [])) / mb, "MB"),
        "io.cache_write_s": (t("io.write_embedding_cache"), "s"),
        "io.cache_write_mb": (sum(extra.get("io.write_embedding_cache", [])) / mb, "MB"),
        "io.manifest_load_s": (t("io.load_catalog", "io.load_manifest", "io.load_cache_index"), "s"),
        "io.bank_json_load_s": (t("io.load_prompt_bank"), "s"),
        "types.embedding_matrix_s": (t("types.EmbeddingMatrix"), "s"),
        "types.embedding_matrix_rows": (sum(extra.get("types.EmbeddingMatrix", [])), "count"),
        "backbone.class_encode_calls_per_step": (per_step("backbone.encode_text_with_context"), "count"),
        "backbone.class_encode_s": (t("backbone.encode_text_with_context"), "s"),
        "backbone.vjp_calls_per_step": (per_step("backbone.TextGradTape.vjp"), "count"),
        "backbone.vjp_s": (t("backbone.TextGradTape.vjp"), "s"),
        "backbone.bank_encode_s": (t("backbone.encode_text_bank"), "s"),
        "backbone.bank_prompts": (sum(extra.get("backbone.encode_text_bank", [])), "count"),
        "backbone.token_cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "backbone.vision_encode_s": (t("backbone.SyntheticVisionEncoder.encode"), "s"),
        "backbone.cache_lookup_s": (t("backbone.CachedVisionSource.encode"), "s"),
        "backbone.cache_lookup_rows": (sum(extra.get("backbone.CachedVisionSource.encode", [])), "count"),
        "objective.loss_gradient_self_s": (t("objective.loss_gradient"), "s"),
        "objective.total_loss_s": (t("objective.total_loss"), "s"),
        "objective.ce_grad_s": (t("objective.ce_grad_wrt_text"), "s"),
        "objective.sccm_grad_s": (t("objective.sccm_grad_wrt_text"), "s"),
        "objective.kdsp_grad_s": (t("objective.kdsp_grad_wrt_text"), "s"),
        "objective.cosine_logits_per_step": (per_step("objective.cosine_logits"), "count"),
        "objective.class_probabilities_s": (t("objective.class_probabilities"), "s"),
        "ensemble.score_and_select_s": (t("ensemble.score_and_select"), "s"),
        "ensemble.prompts_scored": (scored, "count"),
        "ensemble.kept_ratio": (sum(s["kept"] for s in selection) / scored if scored else 0.0, "ratio"),
        "trainer.steps": (steps, "count"),
        "trainer.step_p50_s": (percentile(steps_gaps, 50.0) if steps_gaps else 0.0, "s"),
        "trainer.step_tail_s": (percentile(steps_gaps, tail) if steps_gaps else 0.0, "s"),
        "trainer.step_tail_pct": (tail, "%"),
        "trainer.self_s": (t("trainer.train_run"), "s"),
        "trainer.epoch_accuracy_s": (t("trainer.epoch_accuracy"), "s"),
        "trainer.sample_few_shot_s": (t("trainer.sample_few_shot"), "s"),
        "trainer.prepare_ensembles_s": (t("trainer.prepare_ensembles"), "s"),
        "trainer.checkpoint_save_s": (t("trainer.save_checkpoint"), "s"),
        "trainer.checkpoint_load_s": (t("trainer.load_checkpoint"), "s"),
        "trainer.checkpoint_bytes": (sum(extra.get("trainer.save_checkpoint", [])), "bytes"),
        "evaluation.images_scored": (sum(extra.get("evaluation.accuracy", [])), "count"),
    }
    return metrics, counts


def expected_spans(workload) -> list[str]:
    """Spans that must record calls on ``workload``; the gradient terms of
    zero-weight losses never run."""
    from spans import TARGETS

    names = [name for _, _, name, _ in TARGETS if name]
    if workload.lambda1 == 0.0:
        names.remove("objective.sccm_grad_wrt_text")
    if workload.lambda2 == 0.0:
        names.remove("objective.kdsp_grad_wrt_text")
    return names + ["objective.cosine_logits", "backbone.token_cache_miss"]


def per_layer(bench: Bench, untraced: list[Pipeline], traced: list[Pipeline]):
    per_run = []
    for p in traced:
        metrics, counts = layer_metrics(p)
        per_run.append(metrics)
        for name in expected_spans(bench.workload):
            if not counts.get(name):
                bench.fail("trace", f"span {name} recorded no calls on {bench.workload.name}")
        for stage in PIPELINE:
            for key, bound in p.runs[stage][0].spans["bindings"].items():
                if bound == 0:
                    bench.fail("trace", f"{key} is bound in no bmcoop module")
    out = {k: (median([m[k][0] for m in per_run]), unit) for k, (_, unit) in per_run[0].items()}
    untraced_s = median([p.wall_s for p in untraced])
    traced_s = median([p.wall_s for p in traced])
    out["trace.pipeline_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


# ── environment ─────────────────────────────────────────────────────

def environment() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


# ── entry point ─────────────────────────────────────────────────────

def measure(bench: Bench, seconds: float) -> list[Pipeline]:
    """Two complete pipelines, then more stages in pipeline order while each
    is expected to end within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    pipelines = [bench.pipeline() for _ in range(2)]
    while pipelines[-1].quality:
        pipelines.append(bench.pipeline(deadline))
    return pipelines


def trace_pairs(bench: Bench, seconds: float) -> tuple[list[Pipeline], list[Pipeline]]:
    """Pipelines where each stage runs untraced and then traced, back to back
    so both see the same machine state; repeated while another pass fits."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) <= seconds:
        plain, spans = Pipeline(), Pipeline()
        for name in PIPELINE:
            plain.runs[name] = [bench.run_stage(name, traced=False)]
            spans.runs[name] = [bench.run_stage(name, traced=True)]
        plain.quality = spans.quality = read_quality(bench.work)
        untraced.append(plain)
        traced.append(spans)
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's quality numbers in expected.json instead of checking them")
    args = parser.parse_args(argv)

    if args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return 2
    if not (SRC / "bmcoop" / "cli.py").is_file():
        print(f"error: no bmcoop sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # a terminated run still stops its child stage and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    bench = Bench(workload, args.seed, work)
    metrics: dict[str, tuple] = {}
    try:
        work.mkdir(parents=True)
        bench.prepare()
        if args.trace:
            untraced, traced = trace_pairs(bench, args.seconds)
            bench.check(untraced + traced, args.record)
            metrics = per_layer(bench, untraced, traced)
        else:
            pipelines = measure(bench, args.seconds)
            bench.check(pipelines, args.record)
            metrics = end_to_end(bench, pipelines)
    except StageFailed:
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print("env " + json.dumps(environment(), sort_keys=True))
    if metrics and not args.trace:
        ref = median(bench.reference)
        print(f"reference kernel: median {ref:.6f} s of {len(bench.reference)}; "
              f"times below are wall medians x {REFERENCE_S / ref:.4f}")
    for name, (value, unit, *n) in metrics.items():
        samples = f"  (n={n[0]})" if n else ""
        print(f"{workload.name:>8} {name:<38} {value:>14.6g} {unit}{samples}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": bench.correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if bench.correct else 1


if __name__ == "__main__":
    sys.exit(main())
