#!/usr/bin/env python3
"""Wall time and own peak RSS of each stage of a benchmark workload.

    python3 scripts/stage_peaks.py --workload mixed-jsonl --seed 1

Writes the workload's inputs with perfbench/gen.py into a temporary
directory, then runs each stage of perfbench/workloads.py's workload
once, one after another, with perfbench/run.py's stage command and
environment, and prints each stage's wall time and `ru_maxrss` as
`os.wait4` reports them, and its minor page faults and system CPU
seconds: the growth of `getrusage(RUSAGE_CHILDREN)` across the stage,
the only child reaped meanwhile. Repeat a reading by running the script
again.

Linux carries a parent's peak RSS into a child it forks, so a stage's
`ru_maxrss` is its own peak only if its parent stays smaller. This
script never imports chatmt or numpy (perfbench's run, gen and
workloads modules use only the standard library) and it generates the
inputs in a child process, so it stays near 21 MB (Python 3.11), below
every stage's peak.
perfbench's `peak_rss_mb` cannot read a stage's own peak where the
benchmark process has loaded outputs before it starts the next stage.
Nothing under perfbench/ is written: its modules are imported without
writing bytecode.
"""
from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
STAGE_TIMEOUT_S = 600

sys.dont_write_bytecode = True
sys.path.insert(0, str(PERFBENCH))
from run import child_env, run_process, stage_cmd  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="the smoke run's tiny inputs")
    args = parser.parse_args()

    env = child_env()
    with tempfile.TemporaryDirectory(prefix="stage_peaks.") as tmp:
        work = Path(tmp)
        gen = [sys.executable, str(PERFBENCH / "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work)] + (["--smoke"] if args.smoke else [])
        subprocess.run(gen, check=True, stdout=subprocess.DEVNULL,
                       env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        print(f"{args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: "
              f"{sys.version.split()[0]}, {len(os.sched_getaffinity(0))} usable CPUs")
        print(f"{'stage':<12} {'wall_s':>8} {'peak_rss_mb':>12} {'minflt':>8} {'sys_s':>7} "
              f"{'exit':>4}")
        for stage in WORKLOADS[args.workload].stages:
            stderr_path = work / f"{stage.name}.stderr"
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            wall, peak, code = run_process(stage_cmd(stage, args.seed, False), work, env,
                                           STAGE_TIMEOUT_S, stderr_path)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            print(f"{stage.name:<12} {wall:>8.3f} {peak:>12.1f} "
                  f"{after.ru_minflt - before.ru_minflt:>8} "
                  f"{after.ru_stime - before.ru_stime:>7.3f} {code:>4}", flush=True)
            if code != 0:
                sys.stderr.write(stderr_path.read_text("utf-8", "replace"))
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
