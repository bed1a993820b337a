"""The benchmark's traced run finds burnkit functions by name and leaves out,
without an error, the metrics of any function it cannot find. These tests
fail instead when a traced function is renamed or removed."""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    # loaded from its file, never installed: install() rebinds burnkit
    # functions for the rest of the process
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    wanted = [*tracing.SPANS.values(), tracing.GENERATOR_SPAN[1], tracing.WALK_STEP]
    for module, function in wanted:
        holder = importlib.import_module(f"burnkit.{module}")
        assert callable(getattr(holder, function, None)), f"burnkit.{module}.{function}"


def test_traced_metrics_are_the_benchmark_per_layer_metrics():
    tracing = load_tracing()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tracing.METRICS == [metric["name"] for metric in benchmark["per_layer"]]
