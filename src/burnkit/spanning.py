"""Bridges from trees to general graphs: spanning-tree enumeration with an
exact matrix-tree count as cross-check, the min-over-spanning-trees burning
number, and exhaustive search for a homeomorphically irreducible spanning
tree (HIST) with the resulting ceil(sqrt(n)) plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .burning import (
    BurningSchedule,
    DEFAULT_EXACT_LIMIT,
    _rooted_levels,
    _search_depth,
    burning_number_exact,
    is_complete,
    simulate,
)
from .errors import (
    CertificationFailed,
    Disconnected,
    TooLarge,
    TooMany,
    TooSmall,
    certify,
)
from .graph import Graph, Tree, build_tree
from .hit import CertifiedPlan, hit_schedule, is_hit, sqrt_ceil

DEFAULT_TREE_LIMIT = 10**6
DEFAULT_HIST_LIMIT = 20


def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees via the Kirchhoff determinant, computed with
    fraction-free integer elimination (no floating point)."""
    if g.n == 0:
        return 0
    if not g.is_connected():
        return 0
    if g.n == 1:
        return 1
    # reduced Laplacian, dropping row/column 0
    size = g.n - 1
    lap = [[0] * size for _ in range(size)]
    for v in range(1, g.n):
        lap[v - 1][v - 1] = g.degree(v)
        for w in g.adj[v]:
            if w >= 1:
                lap[v - 1][w - 1] = -1
    # Bareiss elimination
    prev = 1
    for k in range(size - 1):
        if lap[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if lap[r][k] != 0), None)
            if swap is None:
                return 0
            lap[k], lap[swap] = lap[swap], lap[k]
            for row in lap:
                row[k], row[swap] = row[swap], row[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
            lap[i][k] = 0
        prev = lap[k][k]
    return lap[size - 1][size - 1]


class _DSU:
    """Union-find without path compression, so that a union made at the
    root ru is undone exactly by resetting parent[ru] = ru."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


def _spans(n: int, edges: list[tuple[int, int]]) -> bool:
    dsu = _DSU(n)
    comps = n
    for u, v in edges:
        if dsu.union(u, v):
            comps -= 1
    return comps == 1


def _spanning_trees(
    n: int,
    edges: list[tuple[int, int]],
    i: int,
    chosen: list[tuple[int, int]],
    dsu: _DSU,
) -> Iterator[Tree]:
    """Every spanning tree made of chosen plus some of edges[i:], in
    include-first order; dsu joins the chosen edges."""
    if len(chosen) == n - 1:
        yield build_tree(n, chosen)
        return
    if i == len(edges):
        return
    if not _spans(n, chosen + edges[i:]):
        return
    u, v = edges[i]
    ru, rv = dsu.find(u), dsu.find(v)
    if ru != rv:
        dsu.parent[ru] = rv
        chosen.append(edges[i])
        yield from _spanning_trees(n, edges, i + 1, chosen, dsu)
        chosen.pop()
        dsu.parent[ru] = ru
    yield from _spanning_trees(n, edges, i + 1, chosen, dsu)


def enumerate_spanning_trees(
    g: Graph, limit: int = DEFAULT_TREE_LIMIT
) -> Iterator[Tree]:
    """Yield every spanning tree exactly once, in the deterministic order of
    include-first recursion over the canonical (sorted) edge list."""
    if not g.is_connected():
        raise Disconnected("spanning trees require a connected graph")
    count = matrix_tree_count(g)
    if count > limit:
        raise TooMany(f"{count} spanning trees exceed limit {limit}")
    yield from _spanning_trees(g.n, g.edges(), 0, [], _DSU(g.n))


def burning_number_via_spanning_trees(
    g: Graph,
    tree_limit: int = DEFAULT_TREE_LIMIT,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> tuple[int, Tree, BurningSchedule]:
    """min over spanning trees T of b(T); equals b(g).

    Solves g once for b(g), then tests the enumerated trees in order, each
    only at depth b(g), and stops at the first that burns in b(g) rounds.
    Since b(T) >= b(g) for every spanning tree T and some T attains b(g),
    that is the first enumerated tree attaining the minimum; the witness is
    its lexicographically smallest optimal schedule.
    """
    trees = enumerate_spanning_trees(g, limit=tree_limit)
    # Disconnected and TooMany come from the enumeration, before any solve
    first = next(trees, None)
    target, _ = burning_number_exact(g, limit=exact_limit)
    for tree in itertools.chain((first,), trees):
        witness = _search_depth(
            tree.graph, target, (), [], [], *_rooted_levels(tree.graph)
        )
        if witness is not None:
            sched = BurningSchedule(sources=witness)
            bm = simulate(tree.graph, sched)
            certify(
                is_complete(bm) and bm.completion <= target,
                "spanning-tree witness must burn the tree in b(g) rounds",
            )
            return target, tree, sched
    raise CertificationFailed(f"no spanning tree burns in b(g) = {target} rounds")


@dataclass(frozen=True)
class HistResult:
    found: bool
    tree: Tree | None
    nodes_expanded: int


def _frozen_bad(v: int, deg: list[int], undecided: list[int]) -> bool:
    return undecided[v] == 0 and (deg[v] == 2 or deg[v] == 0)


def _hist_search(i: int, chosen: list[tuple[int, int]], state: tuple) -> Tree | None:
    """First HIST made of chosen plus some of edges[i:], in include/exclude
    order. state is (edges, dsu, deg, undecided, nodes): deg and undecided
    count each vertex's chosen and undecided edges, nodes[0] the calls."""
    edges, dsu, deg, undecided, nodes = state
    n = len(deg)
    nodes[0] += 1
    if len(chosen) == n - 1:
        tree = build_tree(n, chosen)
        return tree if is_hit(tree) else None
    if i == len(edges):
        return None
    if not _spans(n, chosen + edges[i:]):
        return None
    u, v = edges[i]
    # include branch
    ru, rv = dsu.find(u), dsu.find(v)
    if ru != rv:
        dsu.parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
        undecided[u] -= 1
        undecided[v] -= 1
        if not (_frozen_bad(u, deg, undecided) or _frozen_bad(v, deg, undecided)):
            result = _hist_search(i + 1, chosen + [edges[i]], state)
            if result is not None:
                return result
        deg[u] -= 1
        deg[v] -= 1
        undecided[u] += 1
        undecided[v] += 1
        dsu.parent[ru] = ru
    # exclude branch
    undecided[u] -= 1
    undecided[v] -= 1
    result = None
    if not (_frozen_bad(u, deg, undecided) or _frozen_bad(v, deg, undecided)):
        result = _hist_search(i + 1, chosen, state)
    undecided[u] += 1
    undecided[v] += 1
    return result


def find_hist(g: Graph, limit: int = DEFAULT_HIST_LIMIT) -> HistResult:
    """Exhaustive include/exclude search over the canonical edge order for a
    spanning tree without degree-2 vertices.

    Prunes cycles, unbridgeable splits, and any vertex whose degree freezes
    at exactly 2 (or below 1) once all its incident edges are decided.
    """
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds HIST search limit {limit}")
    if g.n == 0:
        raise TooSmall("HIST search needs a graph with at least one vertex")
    if not g.is_connected():
        raise Disconnected("HIST search requires a connected graph")
    if g.n == 1:
        return HistResult(found=True, tree=build_tree(1, []), nodes_expanded=1)
    nodes = [0]
    undecided = [g.degree(v) for v in range(g.n)]
    tree = _hist_search(0, [], (g.edges(), _DSU(g.n), [0] * g.n, undecided, nodes))
    if tree is None:
        return HistResult(found=False, tree=None, nodes_expanded=nodes[0])
    certify(is_hit(tree), "HIST search must return a HIT")
    return HistResult(found=True, tree=tree, nodes_expanded=nodes[0])


def hist_bound(g: Graph, limit: int = DEFAULT_HIST_LIMIT) -> CertifiedPlan | None:
    """ceil(sqrt(n)) plan for any graph possessing a HIST, verified on the
    graph itself; None when no HIST exists."""
    result = find_hist(g, limit=limit)
    if not result.found:
        return None
    certify(result.tree is not None, "a found HIST must carry its tree")
    plan = hit_schedule(result.tree)
    bm = simulate(g, plan.schedule)
    certify(is_complete(bm), "burning a graph is at least as fast as its HIST")
    return CertifiedPlan(schedule=plan.schedule, bound=sqrt_ceil(g.n), burn_map=bm)
