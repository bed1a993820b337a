"""Bridges from trees to general graphs.

One include/exclude search over the sorted edge list serves both routes.
Run with nothing forbidden, it enumerates the spanning trees, counting the
trees it builds against a limit, for the min-over-spanning-trees burning
number. Run with final degrees 0 and 2 forbidden, its first HIT is a
homeomorphically irreducible spanning tree (HIST), which gives a
ceil(sqrt(n)) plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .burning import (
    BurningSchedule,
    DEFAULT_EXACT_LIMIT,
    _deepest_first,
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
from .hit import CertifiedPlan, _plan, is_hit, sqrt_ceil

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


_VISIT, _EXCLUDE, _FINISH = range(3)


def _search(g: Graph, forbidden: tuple[int, ...], nodes: list[int]) -> Iterator[Tree]:
    """Every spanning tree of g made of some of its sorted edges, in
    include-first order, skipping each branch that decides a vertex's last
    edge and leaves it at a degree in forbidden. A DSU joins the chosen
    edges, deg and undecided count each vertex's chosen and undecided
    edges, and nodes[0] counts the nodes visited.

    The include/exclude recursion runs on an explicit stack of (action, i,
    arg) steps, so a deep search does not reach Python's recursion limit.
    Visiting edge i (arg: edges[i - 1] was left out) decides it and pushes
    the rest of its node: undo the inclusion, if any (arg: the root the
    union moved), and try the exclusion, then restore its undecided counts.
    """
    n, edges, dsu = g.n, g.edges(), _DSU(g.n)
    deg = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    chosen: list[tuple[int, int]] = []
    stack = [(_VISIT, 0, False)]
    while stack:
        action, i, arg = stack.pop()
        if action == _VISIT:
            nodes[0] += 1
            if len(chosen) == n - 1:
                yield build_tree(n, chosen)
                continue
            # including an edge leaves chosen + edges[i:] as it was, so only
            # an exclusion can disconnect it (the search starts connected)
            if i == len(edges) or (arg and not _spans(n, chosen + edges[i:])):
                continue
            u, v = edges[i]
            undecided[u] -= 1
            undecided[v] -= 1
            ru, rv = dsu.find(u), dsu.find(v)
            include = ru != rv and not (
                (undecided[u] == 0 and deg[u] + 1 in forbidden)
                or (undecided[v] == 0 and deg[v] + 1 in forbidden)
            )
            stack.append((_FINISH, i, None))
            stack.append((_EXCLUDE, i, ru if include else None))
            if include:
                dsu.parent[ru] = rv
                deg[u] += 1
                deg[v] += 1
                chosen.append(edges[i])
                stack.append((_VISIT, i + 1, False))
            continue
        u, v = edges[i]
        if action == _EXCLUDE:
            if arg is not None:
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
                dsu.parent[arg] = arg
            if not (
                (undecided[u] == 0 and deg[u] in forbidden)
                or (undecided[v] == 0 and deg[v] in forbidden)
            ):
                stack.append((_VISIT, i + 1, True))
        else:  # _FINISH
            undecided[u] += 1
            undecided[v] += 1


def enumerate_spanning_trees(
    g: Graph, limit: int = DEFAULT_TREE_LIMIT
) -> Iterator[Tree]:
    """Yield every spanning tree exactly once, in the deterministic order of
    include-first recursion over the canonical (sorted) edge list. The
    search is its own bound: it yields at most limit trees and raises
    TooMany when it reaches tree limit + 1, so a limit <= 0 raises before
    the first tree."""
    if not g.is_connected():
        raise Disconnected("spanning trees require a connected graph")
    for count, tree in enumerate(_search(g, (), [0])):
        if count >= limit:
            raise TooMany(f"more than {limit} spanning trees, the enumeration limit")
        yield tree


def burning_number_via_spanning_trees(
    g: Graph, *, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> tuple[int, Tree, BurningSchedule]:
    """min over spanning trees T of b(T); equals b(g).

    Solves g once for b(g), then tests the enumerated trees in order, each
    only at depth b(g), and stops at the first that burns in b(g) rounds.
    Since b(T) >= b(g) for every spanning tree T and some T attains b(g),
    that is the first enumerated tree attaining the minimum; the witness is
    its lexicographically smallest optimal schedule. At most
    DEFAULT_TREE_LIMIT trees are tested, and TooMany is raised past them, so
    a graph with more spanning trees is answered when an early tree attains
    b(g).
    """
    # the exact solver's guards (TooLarge, TooSmall, Disconnected) come
    # before any tree is built
    target, _ = burning_number_exact(g, limit=exact_limit)
    for tree in enumerate_spanning_trees(g):
        witness = _search_depth(target, (), [], [], *_deepest_first(tree.graph))
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
    tree: Tree | None
    nodes_expanded: int

    @property
    def found(self) -> bool:
        return self.tree is not None


def find_hist(g: Graph, limit: int = DEFAULT_HIST_LIMIT) -> HistResult:
    """The first spanning tree without degree-2 vertices in the
    include/exclude order over the canonical edge list.

    The search prunes cycles, unbridgeable splits, and any vertex whose
    degree freezes at 2 or 0 once all its incident edges are decided.
    """
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds HIST search limit {limit}")
    if g.n == 0:
        raise TooSmall("HIST search needs a graph with at least one vertex")
    if not g.is_connected():
        raise Disconnected("HIST search requires a connected graph")
    nodes = [0]
    tree = next((t for t in _search(g, (0, 2), nodes) if is_hit(t)), None)
    return HistResult(tree=tree, nodes_expanded=nodes[0])


def hist_bound(g: Graph, limit: int = DEFAULT_HIST_LIMIT) -> CertifiedPlan | None:
    """ceil(sqrt(n)) plan for any graph possessing a HIST, verified on the
    graph itself; None when no HIST exists."""
    tree = find_hist(g, limit=limit).tree
    if tree is None:
        return None
    # g has the HIST's edges, and more
    schedule = BurningSchedule(sources=_plan(tree.graph.adj))
    return CertifiedPlan(schedule, sqrt_ceil(g.n), simulate(g, schedule))
