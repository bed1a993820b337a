"""burnkit benchmark: one workload of CLI commands, timed in whole passes.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Run from the repository root. It imports burnkit from ./src, builds the
workload's corpus as edge-list files under .perfbench-work-*/, and calls
burnkit.cli.main in this process, one command at a time, with stdout
captured. Every output is checked by perfbench/checks.py. Passes over the
fixed, ordered instance list repeat until at least MIN_OPS operations are
timed and another pass would not fit in --seconds.

The last stdout line is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of perfbench/tracing.py
(per pass; generator metrics per corpus build). A line before it gives the
SHA-256 of the outputs of one pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
SETUP_REPEATS = 3


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("plan", "exact", "spanning"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_burnkit():
    """burnkit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import burnkit.cli
    import burnkit.generators

    if not Path(burnkit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"burnkit imported from {burnkit.__file__}, not {src}")
    return burnkit


def _run_op(cli, op) -> tuple[float, int | str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


def main(argv=None) -> int:
    args = _parse_args(argv)
    t_start = time.perf_counter()
    try:
        burnkit = _import_burnkit()
    except ImportError as exc:
        print(f"cannot import burnkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    import workloads

    build = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        builds = []
        for i in range(SETUP_REPEATS):
            # each build starts from the same heap: the last corpus dropped
            ops = None
            gc.collect()
            t0 = time.perf_counter()
            (workdir / str(i)).mkdir()
            ops = build(burnkit.generators, workdir / str(i), args.seed)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)
        if tracer:
            setup_stats = tracer.take()
            tracer.in_setup = False
        result = _run_passes(burnkit.cli, ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times, passes, attempted, failed, correct, digest, reasons = result

    for reason in reasons[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    ops_per_s = len(times) / sum(times)
    print(
        f"{args.workload} seed={args.seed}: {passes} passes, {attempted} ops, "
        f"{failed} failed, outputs sha256={digest}"
    )
    if tracer:
        metrics = tracer.metrics(setup_stats, SETUP_REPEATS, tracer.take(), passes)
        print(f"traced ops_per_s={ops_per_s:.6g}", file=sys.stderr)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(times), "unit": "ms"},
            "op_p90_ms": {
                "value": 1000 * statistics.quantiles(times, n=10)[-1],
                "unit": "ms",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _run_passes(cli, ops, seconds: float):
    """Whole passes until MIN_OPS are timed and one more would overrun."""
    times: list[float] = []
    reasons: list[str] = []
    first: list[str] | None = None
    first_reasons: list[str | None] = []
    attempted = failed = passes = 0
    correct = True
    t_run = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outputs = []
        for i, op in enumerate(ops):
            elapsed, code, text = _run_op(cli, op)
            times.append(elapsed)
            outputs.append(text)
            attempted += 1
            if code != 0:
                reason = f"exit {code}"
            elif first is not None:
                same = text == first[i]
                reason = first_reasons[i] if same else "output differs from pass 1"
            else:
                try:
                    reason = op.check(text)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = f"unreadable output ({exc})"
            if first is None:
                first_reasons.append(reason)
            if reason:
                failed += 1
                if code == 0:
                    correct = False
                reasons.append(f"{op.label}: {reason}")
        if first is None:
            first = outputs
        passes += 1
        now = time.perf_counter()
        if attempted >= MIN_OPS and now - t_run + (now - t_pass) > seconds:
            break
    digest = hashlib.sha256()
    for op, text in zip(ops, first):
        digest.update(f"{op.label}\n{text}\0".encode())
    return times, passes, attempted, failed, correct, digest.hexdigest(), reasons


if __name__ == "__main__":
    sys.exit(main())
