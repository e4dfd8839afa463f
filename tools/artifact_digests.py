"""Print the sha256 of every primary artifact of one benchmark pipeline.

    python3 tools/artifact_digests.py --workload paper16 --seed 1 --work /tmp/digests

Generates the inputs of ``--workload`` from ``--seed`` into ``--work``, runs
the seven stages of ``perfbench/run.py`` there (untraced, one after another)
and prints one ``<sha256>  <artifact>`` line per primary artifact, paths
relative to ``--work``. Every path written into the configs names ``--work``,
so two checkouts run with the same ``--work`` should print the same lines
when their artifacts are byte-identical; compare them with ``diff``. The
stages use the sources of the checkout this file sits in. ``--threads N``
runs them at N BLAS threads (1 by default, as the benchmark does), so two
runs at different counts into one ``--work`` show whether the bytes depend
on the thread count. Exits 1 if a stage fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as bench_run  # noqa: E402  (perfbench/run.py)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--threads", type=int, default=int(bench_run.BLAS_THREADS),
                        help="BLAS threads of the input generator and every stage")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")

    # before numpy is first imported, as in perfbench/run.py
    os.environ.update({var: str(args.threads) for var in bench_run.BLAS_VARS})
    sys.path.insert(0, str(bench_run.SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    bench = bench_run.Bench(WORKLOADS[args.workload], args.seed, work)
    artifacts = [rel for _, _, rels in bench_run.STAGES.values() for rel in rels]
    # a stale artifact from an earlier run must not stand in for a missing one
    for rel in artifacts:
        (work / rel).unlink(missing_ok=True)
    bench.prepare()
    try:
        for name in bench_run.STAGES:
            bench.run_stage(name, traced=False)
    except bench_run.StageFailed:
        for problem in bench.problems:
            print(f"stage failed: {problem}", file=sys.stderr)
        return 1
    for rel in artifacts:
        print(f"{hashlib.sha256((work / rel).read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
