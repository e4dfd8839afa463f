"""Print the peak resident memory of each CLI stage, started from a small launcher.

    python3 tools/stage_rss.py --workload bank40k --seed 1 --work /tmp/rss --limit eval=300

Generates the inputs of ``--workload`` from ``--seed`` into ``--work`` in a
child process, runs the seven stages of ``perfbench/run.py`` there (untraced,
one after another) and prints one ``<peak MB>  <stage>`` line per stage: the
stage's ``ru_maxrss`` from ``os.wait4`` in MB of 2**20 bytes, as
``peak_rss_mb`` in ``perfbench/run.py`` counts it. On Linux a child's
``ru_maxrss`` starts at the resident size of the process that started it, so
this launcher imports no numpy and generates nothing itself; its own peak is
printed last, as the floor under every stage. Each ``--limit STAGE=MB`` makes
the exit status 1 when that stage peaks above ``MB``. Exits 1 if a stage fails.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as bench_run  # noqa: E402  (perfbench/run.py: standard library only at import)

# Run in a child, so that the generated numpy arrays never live in the
# launcher: writes the inputs and the stage configs into the work directory.
PREPARE_CODE = """
import sys
from pathlib import Path
import run
from workloads import WORKLOADS
if sys.argv[1] not in WORKLOADS:
    sys.exit(f"unknown workload {sys.argv[1]!r}; choose from {sorted(WORKLOADS)}")
run.Bench(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3])).prepare()
"""


def _limit(text: str) -> tuple[str, float]:
    stage, sep, mb = text.partition("=")
    if not sep or stage not in bench_run.STAGES:
        raise argparse.ArgumentTypeError(
            f"expected STAGE=MB with STAGE one of {', '.join(bench_run.STAGES)}, got {text!r}"
        )
    try:
        return stage, float(mb)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{mb!r} is not a number of MB") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--limit", type=_limit, action="append", default=[],
                        metavar="STAGE=MB", help="fail when STAGE peaks above MB")
    args = parser.parse_args(argv)

    # as in perfbench/run.py, for the input generator and every stage
    os.environ.update({var: bench_run.BLAS_THREADS for var in bench_run.BLAS_VARS})
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    path = os.pathsep.join([str(bench_run.SRC), str(PERFBENCH)])
    cmd = [sys.executable, "-c", PREPARE_CODE, args.workload, str(args.seed), str(work)]
    if subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=path)).returncode != 0:
        return 1

    # not ``Bench.run_stage``: it reads each artifact into this process to
    # hash it, which would raise the floor under the later stages
    env = dict(os.environ, PYTHONPATH=str(bench_run.SRC))
    peaks: dict[str, float] = {}
    for name, (stage, config, _) in bench_run.STAGES.items():
        log = work / f"{name}.log"
        cmd = [sys.executable, "-m", "bmcoop.cli", stage, str(work / f"{config}.json")]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=fh, stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"stage {name} exited {code}: {tail}", file=sys.stderr)
            return 1
        peaks[name] = usage.ru_maxrss / 1024.0
        print(f"{peaks[name]:8.1f}  {name}", flush=True)
    print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:8.1f}  (launcher)")

    over = [(stage, mb) for stage, mb in args.limit if peaks[stage] > mb]
    for stage, mb in over:
        print(f"stage {stage} peaked at {peaks[stage]:.1f} MB, above its limit of {mb:g} MB",
              file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
