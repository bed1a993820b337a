"""Per-layer spans for the traced run (--trace 1); never imported otherwise.

Each traced function is rebound, in every burnkit module that holds it, to a
wrapper that records a span. A span's self time is its duration minus the
time of the spans it encloses. Spans and counts stay in memory and are
summed per metric name.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric prefix -> (module, function) recorded as a span
SPANS = {
    "cli.main": ("cli", "main"),
    "graph.parse_edge_list": ("graph", "parse_edge_list"),
    "graph.build_graph": ("graph", "build_graph"),
    "graph.build_tree": ("graph", "build_tree"),
    "graph.smooth": ("graph", "smooth"),
    "graph.bridge_component": ("graph", "bridge_component"),
    "hit.find_anchor": ("hit", "find_anchor"),
    "hit.hit_schedule": ("hit", "hit_schedule"),
    "hit.lift_schedule": ("hit", "lift_schedule"),
    "hit.augment_degree2": ("hit", "augment_degree2"),
    "hit.tree_schedule_via_augmentation": ("hit", "tree_schedule_via_augmentation"),
    "burning.simulate": ("burning", "simulate"),
    "burning.simulate_modified": ("burning", "simulate_modified"),
    "burning.burning_number_exact": ("burning", "burning_number_exact"),
    "burning.search": ("burning", "_search_depth"),
    "burning.balls": ("burning", "_balls_by_radius"),
    "spanning.matrix_tree_count": ("spanning", "matrix_tree_count"),
    "spanning.burning_number_via_spanning_trees": (
        "spanning",
        "burning_number_via_spanning_trees",
    ),
    "spanning.find_hist": ("spanning", "find_hist"),
    "generators.random_hit": ("generators", "random_hit"),
    "generators.random_tree": ("generators", "random_tree"),
}
# a generator function: each next() on it is one span
GENERATOR_SPAN = ("spanning.enumerate_spanning_trees", ("spanning", "enumerate_spanning_trees"))
# counted, not timed, so that the anchor walk stays in find_anchor's self time
WALK_STEP = ("hit", "_branch_sizes")

# reported metrics, in the order of the README's layer map
METRICS = [
    "hit.find_anchor.self_s",
    "hit.find_anchor.calls",
    "hit.find_anchor.walk_steps",
    "hit.hit_schedule.self_s",
    "hit.hit_schedule.calls",
    "hit.lift_schedule.self_s",
    "hit.augment_degree2.self_s",
    "hit.tree_schedule_via_augmentation.self_s",
    "graph.smooth.self_s",
    "graph.bridge_component.self_s",
    "graph.build_tree.self_s",
    "graph.build_tree.calls",
    "graph.build_graph.self_s",
    "burning.simulate.self_s",
    "burning.simulate.calls",
    "burning.simulate_modified.self_s",
    "burning.burning_number_exact.self_s",
    "burning.burning_number_exact.calls",
    "burning.search.self_s",
    "burning.search.calls",
    "burning.balls.self_s",
    "spanning.enumerate_spanning_trees.self_s",
    "spanning.trees_enumerated",
    "spanning.matrix_tree_count.self_s",
    "spanning.burning_number_via_spanning_trees.self_s",
    "spanning.find_hist.self_s",
    "spanning.find_hist.nodes_expanded",
    "generators.random_hit.self_s",
    "generators.random_hit.calls",
    "generators.random_tree.self_s",
    "cli.main.self_s",
    "graph.parse_edge_list.self_s",
]
# counts that are neither a span's self time nor its calls -> traced layer
COUNT_LAYER = {
    "hit.find_anchor.walk_steps": "hit.find_anchor.walk_steps",
    "spanning.trees_enumerated": "spanning.enumerate_spanning_trees",
    "spanning.find_hist.nodes_expanded": "spanning.find_hist",
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._children = [0.0]  # time of enclosed spans, one slot per open span
        self.traced: set[str] = set()
        # While the corpus is built only generator spans are recorded, so
        # their self time includes the graph work they call.
        self.in_setup = True

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Totals since the last take, and reset them."""
        taken = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return taken

    def _close(self, name: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        enclosed = self._children.pop()
        self.self_s[name] += elapsed - enclosed
        self.counts[f"{name}.calls"] += 1
        self._children[-1] += elapsed

    def span(self, name: str, fn):
        generator_layer = name.startswith("generators.")

        def traced(*args, **kwargs):
            if self.in_setup and not generator_layer:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if name == "spanning.find_hist":
                self.counts["spanning.find_hist.nodes_expanded"] += getattr(
                    result, "nodes_expanded", 0
                )
            return result

        return traced

    def generator_span(self, name: str, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self.in_setup:
                yield from inner
                return
            while True:
                self._children.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0)
                self.counts["spanning.trees_enumerated"] += 1
                yield item

        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.in_setup:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self, setup, builds: int, passes_stats, passes: int) -> dict:
        """Per-layer metrics: generator layers per corpus build, every other
        layer per pass. Layers whose function no longer exists are left out."""
        out = {}
        for metric in METRICS:
            layer, kind = metric.rsplit(".", 1)
            layer = COUNT_LAYER.get(metric, layer)
            if layer not in self.traced:
                continue
            generator = layer.startswith("generators.")
            self_s, counts = setup if generator else passes_stats
            if kind == "self_s":
                value, unit = self_s.get(layer, 0.0), "s"
            else:
                value, unit = counts.get(metric, 0), "count"
            out[metric] = {"value": value / (builds if generator else passes), "unit": unit}
        return out


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "burnkit" or name.startswith("burnkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    tracer = Tracer()
    wanted = [(name, where, tracer.span) for name, where in SPANS.items()]
    wanted.append((*GENERATOR_SPAN, tracer.generator_span))
    wanted.append(("hit.find_anchor.walk_steps", WALK_STEP, tracer.counter))
    for name, (module, function), wrap in wanted:
        original = getattr(sys.modules.get(f"burnkit.{module}"), function, None)
        if original is None:
            continue
        _rebind(original, wrap(name, original))
        tracer.traced.add(name)
    return tracer
