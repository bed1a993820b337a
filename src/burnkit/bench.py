"""Bench harness: runs the constructive planner (and, where feasible, the
exact solver) over generated instances and tabulates the ceil(sqrt(n+d))
bound against the competing ceil(sqrt(n+d+8)) - 1 formula.

Emits one CSV row per instance plus a per-size summary. A row violating its
own bound invariant aborts the run: it would falsify a theorem or expose a
bug, never something to average away.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from .burning import burning_number_exact
from .errors import BurnkitError, MalformedSpec, certify
from .generators import generate
from .graph import Graph, Tree
from .hit import sqrt_ceil, tree_schedule_via_augmentation

DEFAULT_BENCH_EXACT_LIMIT = 24

CSV_FIELDS = [
    "instance_id",
    "family",
    "n",
    "d",
    "exact_b",
    "plan_len",
    "bound_hit",
    "bound_cor8",
    "bound_das",
    "plan_seconds",
    "exact_seconds",
    "error",
]


def bound_leaf_augmentation(n: int, d: int) -> int:
    """ceil(sqrt(n + d)) for a tree with d degree-2 vertices."""
    return sqrt_ceil(n + d)


def bound_competing(n: int, d: int) -> int:
    """ceil(sqrt(n + d + 8)) - 1, the competing tree bound."""
    return sqrt_ceil(n + d + 8) - 1


@dataclass
class BenchRecord:
    instance_id: str
    family: str
    n: int
    d: int
    exact_b: int | None
    plan_len: int | None
    bound_hit: int | None
    bound_cor8: int
    bound_das: int
    plan_seconds: float
    exact_seconds: float
    error: str = ""

    def check_invariants(self) -> None:
        if self.error:
            return
        certify(
            self.plan_len is None or self.plan_len <= self.bound_cor8,
            f"{self.instance_id}: plan length {self.plan_len} exceeds "
            f"bound {self.bound_cor8}",
        )
        certify(
            self.exact_b is None
            or self.plan_len is None
            or self.exact_b <= self.plan_len,
            f"{self.instance_id}: exact {self.exact_b} exceeds plan "
            f"length {self.plan_len}",
        )

    def to_row(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "family": self.family,
            "n": self.n,
            "d": self.d,
            "exact_b": "" if self.exact_b is None else self.exact_b,
            "plan_len": "" if self.plan_len is None else self.plan_len,
            "bound_hit": "" if self.bound_hit is None else self.bound_hit,
            "bound_cor8": self.bound_cor8,
            "bound_das": self.bound_das,
            "plan_seconds": f"{self.plan_seconds:.6f}",
            "exact_seconds": f"{self.exact_seconds:.6f}",
            "error": self.error,
        }


def degree2_count(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 2)


def bench_instance(
    instance_id: str,
    family: str,
    params: dict,
    exact_limit: int = DEFAULT_BENCH_EXACT_LIMIT,
) -> BenchRecord:
    """Run one instance; solver errors are recorded, not raised."""
    g = generate(family, params)
    n = g.n
    d = degree2_count(g)
    record = BenchRecord(
        instance_id=instance_id,
        family=family,
        n=n,
        d=d,
        exact_b=None,
        plan_len=None,
        bound_hit=sqrt_ceil(n) if d == 0 else None,
        bound_cor8=bound_leaf_augmentation(n, d),
        bound_das=bound_competing(n, d),
        plan_seconds=0.0,
        exact_seconds=0.0,
    )
    try:
        tree = Tree(g)
        t0 = time.perf_counter()
        plan = tree_schedule_via_augmentation(tree)
        record.plan_seconds = time.perf_counter() - t0
        record.plan_len = len(plan.schedule)
        if n <= exact_limit:
            t0 = time.perf_counter()
            record.exact_b = burning_number_exact(g, limit=exact_limit)[0]
            record.exact_seconds = time.perf_counter() - t0
    except BurnkitError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.check_invariants()
    return record


def _int_list(value, what: str) -> list[int]:
    """A JSON list of integers; bools are not integers."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise MalformedSpec(f"{what} must be a list of integers")
    return value


def run_bench(spec: dict, exact_limit: int | None = None) -> list[BenchRecord]:
    """spec: {"families": [{"family": name, "sizes": [...], "params": {...}}],
    "seeds": [...], "exact_limit": N}. Seeds apply to random families only;
    an exact_limit argument overrides the spec's. A spec of any other shape
    raises MalformedSpec before any instance runs."""
    if not isinstance(spec, dict) or not isinstance(spec.get("families"), list):
        raise MalformedSpec('bench spec must be an object with a "families" list')
    if exact_limit is None:
        exact_limit = spec.get("exact_limit", DEFAULT_BENCH_EXACT_LIMIT)
    if type(exact_limit) is not int:
        raise MalformedSpec('"exact_limit" must be an integer')
    seeds = _int_list(spec.get("seeds", [0]), '"seeds"')
    for entry in spec["families"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("family"), str):
            raise MalformedSpec('each "families" entry needs a "family" name')
        if not isinstance(entry.get("params", {}), dict):
            raise MalformedSpec(f'{entry["family"]}: "params" must be an object')
        if "sizes" in entry:
            _int_list(entry["sizes"], f'{entry["family"]}: "sizes"')
    records = []
    for entry in spec["families"]:
        family = entry["family"]
        base = dict(entry.get("params", {}))
        sizes = entry.get("sizes", [None])
        family_seeds = seeds if family.startswith("random_") else [None]
        for size in sizes:
            for seed in family_seeds:
                params = dict(base)
                if size is not None:
                    params["n"] = size
                if seed is not None:
                    params["seed"] = seed
                iid = family
                if size is not None:
                    iid += f"-n{size}"
                if seed is not None:
                    iid += f"-s{seed}"
                records.append(bench_instance(iid, family, params, exact_limit))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.to_row())
    return buf.getvalue()


def summarize(records: list[BenchRecord]) -> str:
    """Per size bucket: how often the leaf-augmentation bound is <= / > the
    competing bound, and the worst plan-vs-exact slack observed."""
    buckets: dict[int, list[BenchRecord]] = {}
    for record in records:
        if record.error:
            continue
        buckets.setdefault(record.n, []).append(record)
    lines = ["n\tinstances\tcor8<=das\tcor8>das\tmax_slack"]
    for n in sorted(buckets):
        group = buckets[n]
        le = sum(1 for r in group if r.bound_cor8 <= r.bound_das)
        gt = len(group) - le
        slacks = [
            r.plan_len - r.exact_b
            for r in group
            if r.plan_len is not None and r.exact_b is not None
        ]
        max_slack = max(slacks) if slacks else ""
        lines.append(f"{n}\t{len(group)}\t{le}\t{gt}\t{max_slack}")
    errors = sum(1 for r in records if r.error)
    if errors:
        lines.append(f"# {errors} row(s) recorded solver errors")
    return "\n".join(lines) + "\n"
