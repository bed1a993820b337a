"""Record the benchmark at one change as BENCH_<pr>.json.

    python3 tools/bench_trajectory.py --pr N --seconds 25

Runs perfbench/run.py as it is, in a process of its own from the repository
root, once per workload with --trace 0 and once with --trace 1. The
workloads are those BENCHMARK.json lists, or the ones given by --workload.
Every run uses the seed SEED, so the points of a trajectory compare.
BENCH_<pr>.json (in the repository root, or in --out-dir) holds the seed,
--seconds, the commit (`git describe --always --dirty`, so uncommitted
changes show as "-dirty"; null outside a git checkout), the CPU count and,
for every run, its workload, trace flag, pass count, output digest and
result line. A run that exits non-zero stops the script with its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SUMMARY = re.compile(r"^(\w+) seed=\S+: (\d+) passes, .* outputs sha256=([0-9a-f]{64})$")


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="names the output file")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--workload", action="append", help="repeatable; default: all")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    return p.parse_args(argv)


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run: its pass count, digest and result line."""
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    *_, summary_line, result_line = done.stdout.splitlines()
    summary = SUMMARY.match(summary_line)
    if summary is None or summary[1] != workload:
        raise RuntimeError(f"unexpected summary line from perfbench: {summary_line!r}")
    return {
        "workload": workload,
        "trace": trace,
        "passes": int(summary[2]),
        "digest": summary[3],
        "result": json.loads(result_line),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs = [
        run_once(workload, args.seconds, trace)
        for workload in workloads
        for trace in (0, 1)
    ]
    record = {
        "pr": args.pr,
        "seed": SEED,
        "seconds": args.seconds,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
