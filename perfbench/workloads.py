"""The three workloads' instance lists and how each becomes CLI operations.

Every random family draws its graphs from a plain range of generator seeds
that does not depend on the run's --seed, so every run measures the same mix
of shapes. In `plan` and `spanning` the run's --seed relabels the vertices of
every instance with a random permutation: the inputs, and burnkit's lowest-id
tie-breaks with them, change from seed to seed while the graphs stay
isomorphic. `exact` keeps the generators' labels, so every seed runs the same
inputs: the solver's witness search at k = b depends so much on the labels
that one tree took 10 ms under one relabelling and 446 ms under another, and
the pass total moved by 23% between two seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import checks

# plan: HITs of these sizes from random_hit at generator seeds 0, 1, ...
PLAN_HITS = (1000, 2000)
PLAN_PATHS = (100, 150, 200, 250, 300)
PLAN_SPIDERS = (
    (2,) * 250,
    (5,) * 100,
    (10,) * 50,
    (20,) * 25,
    (40,) * 12,
    (100,) * 5,
    tuple(range(1, 32)),
    (3, 7, 15, 31, 63, 127, 255),
)
# (n, generator seed) of uniform random trees
PLAN_TREES = tuple((400 + 5 * j, j) for j in range(85))

EXACT_TREES = tuple((48 + j % 17, j) for j in range(300))
EXACT_PATHS = tuple(range(36, 65, 4))
EXACT_SPIDERS = ((3,) * 21, (2, 4, 6, 8, 10, 12, 14), (20, 20, 20))
EXACT_GRIDS = ((3, 3), (3, 4), (4, 4))

SPANNING_WHEELS = (5, 6, 7, 8, 9)
# (n, extra edges over a spanning tree, generator seed); spanning-min runs on
# every third graph and hist on all, so that hist is most of the operations
SPANNING_RANDOM = tuple((10 + j % 11, 2 + j % 3, j) for j in range(30))


@dataclass
class Instance:
    """A relabelled graph written as an edge-list file."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    path: str

    @cached_property
    def adj(self) -> list[list[int]]:
        return checks.adjacency(self.n, self.edges)

    @cached_property
    def ref(self) -> checks.Reference:
        return checks.Reference(self.adj, self.edges)


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str], str | None]


def _relabel(name: str, n: int, edges, seed: int | None) -> list[tuple[int, int]]:
    perm = list(range(n))
    if seed is not None:
        random.Random(f"{seed}/{name}").shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _write(workdir: Path, name: str, n: int, edges, seed: int | None) -> Instance:
    edges = _relabel(name, n, edges, seed)
    path = workdir / f"{name}.el"
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Instance(name=name, n=n, edges=edges, path=str(path))


def wheel_edges(rim: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, rim + 1)] + [
        (i, i % rim + 1) for i in range(1, rim + 1)
    ]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def random_connected_edges(gen, n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """A uniform random tree plus `extra` distinct random non-tree edges."""
    edges = set(gen.random_tree(n, seed).graph.edges())
    rng = random.Random(seed)
    target = len(edges) + extra
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return sorted(edges)


def _tree_plan(inst: Instance) -> Op:
    def check(text: str) -> str | None:
        d = sum(1 for a in inst.adj if len(a) == 2)
        return checks.check_plan(text, inst.adj, checks.ceil_sqrt(inst.n + d))

    return Op(f"tree-plan {inst.name}", ["tree-plan", inst.path], check)


def _hit_plan(inst: Instance) -> Op:
    def check(text: str) -> str | None:
        if any(len(a) == 2 for a in inst.adj):
            return "input is not a HIT"
        return checks.check_plan(text, inst.adj, checks.ceil_sqrt(inst.n))

    return Op(f"hit-plan {inst.name}", ["hit-plan", inst.path], check)


def _solve(inst: Instance, is_path: bool = False) -> Op:
    return Op(
        f"solve {inst.name}",
        ["solve", inst.path],
        lambda text: checks.check_solve(text, inst.ref, is_path),
    )


def _spanning_min(inst: Instance) -> Op:
    return Op(
        f"spanning-min {inst.name}",
        ["spanning-min", inst.path],
        lambda text: checks.check_spanning_min(text, inst.ref),
    )


def _hist(inst: Instance) -> Op:
    return Op(
        f"hist {inst.name}",
        ["hist", inst.path],
        lambda text: checks.check_hist(text, inst.ref),
    )


def build_plan(gen, workdir: Path, seed: int) -> list[Op]:
    ops = []
    for i, n in enumerate(PLAN_HITS):
        g = gen.random_hit(n, i).graph
        ops.append(_hit_plan(_write(workdir, f"hit-{n}-s{i}", n, g.edges(), seed)))
    for n in PLAN_PATHS:
        g = gen.path_graph(n)
        ops.append(_tree_plan(_write(workdir, f"path-{n}", n, g.edges(), seed)))
    for i, legs in enumerate(PLAN_SPIDERS):
        g = gen.spider_graph(list(legs))
        name = f"spider{i}-n{g.n}"
        ops.append(_tree_plan(_write(workdir, name, g.n, g.edges(), seed)))
    for n, s in PLAN_TREES:
        g = gen.random_tree(n, s).graph
        ops.append(_tree_plan(_write(workdir, f"tree-{n}-s{s}", n, g.edges(), seed)))
    return ops


def build_exact(gen, workdir: Path, seed: int) -> list[Op]:
    """Same inputs for every seed: see the module docstring."""
    ops = []
    for n, s in EXACT_TREES:
        g = gen.random_tree(n, s).graph
        ops.append(_solve(_write(workdir, f"tree-{n}-s{s}", n, g.edges(), None)))
    for n in EXACT_PATHS:
        g = gen.path_graph(n)
        ops.append(_solve(_write(workdir, f"path-{n}", n, g.edges(), None), True))
    for i, legs in enumerate(EXACT_SPIDERS):
        g = gen.spider_graph(list(legs))
        name = f"spider{i}-n{g.n}"
        ops.append(_solve(_write(workdir, name, g.n, g.edges(), None)))
    g = gen.petersen_graph()
    ops.append(_solve(_write(workdir, "petersen", g.n, g.edges(), None)))
    for r, c in EXACT_GRIDS:
        ops.append(_solve(_write(workdir, f"grid-{r}x{c}", r * c, grid_edges(r, c), None)))
    return ops


def build_spanning(gen, workdir: Path, seed: int) -> list[Op]:
    ops = []
    g = gen.petersen_graph()
    inst = _write(workdir, "petersen", g.n, g.edges(), seed)
    ops += [_spanning_min(inst), _hist(inst)]
    for rim in SPANNING_WHEELS:
        inst = _write(workdir, f"wheel-{rim}", rim + 1, wheel_edges(rim), seed)
        ops += [_spanning_min(inst), _hist(inst)]
    inst = _write(workdir, "grid-3x4", 12, grid_edges(3, 4), seed)
    ops += [_spanning_min(inst), _hist(inst)]
    # 30,305 spanning trees: too many for spanning-min within a run
    ops.append(_hist(_write(workdir, "grid-3x5", 15, grid_edges(3, 5), seed)))
    for n, extra, s in SPANNING_RANDOM:
        edges = random_connected_edges(gen, n, extra, s)
        inst = _write(workdir, f"graph-{n}+{extra}-s{s}", n, edges, seed)
        ops += [_spanning_min(inst), _hist(inst)] if s % 3 == 0 else [_hist(inst)]
    return ops


WORKLOADS = {"plan": build_plan, "exact": build_exact, "spanning": build_spanning}
