import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_records_both_runs_of_a_workload(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "bench_trajectory.py"),
            "--pr", "7",
            "--workload", "spanning",
            "--seconds", "0.2",
            "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert set(record) == {"pr", "seed", "seconds", "commit", "cpu_count", "runs"}
    assert (record["pr"], record["seed"], record["seconds"]) == (7, 1, 0.2)
    assert record["cpu_count"] >= 1
    assert [(run["workload"], run["trace"]) for run in record["runs"]] == [
        ("spanning", 0),
        ("spanning", 1),
    ]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: "end_to_end", 1: "per_layer"}
    for run in record["runs"]:
        assert set(run) == {"workload", "trace", "passes", "digest", "result"}
        assert run["passes"] >= 1 and len(run["digest"]) == 64
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert run["result"]["failed"] == 0
        names = {metric["name"] for metric in benchmark[wanted[run["trace"]]]}
        assert set(run["result"]["metrics"]) == names
    assert record["runs"][0]["digest"] == record["runs"][1]["digest"]
