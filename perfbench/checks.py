"""Independent checks of burnkit's CLI outputs.

Nothing here calls burnkit: distances, burn rounds, bounds and the reference
solvers are computed from the benchmark's own adjacency lists, so a fault in
burnkit's simulation or bound helpers cannot hide a wrong answer.

Every check returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from functools import cached_property

# A brute-force optimum is computed only when n**k stays below this, so the
# reference solver costs at most a few hundred thousand ball unions.
BRUTE_FORCE_LIMIT = 300_000


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], source: int, limit: int | None = None) -> list[int]:
    """Distances from source, -1 where unreached (or beyond limit)."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if limit is not None and dist[u] >= limit:
            continue
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(adj: list[list[int]]) -> bool:
    return not adj or -1 not in bfs(adj, 0)


def eccentricities(adj: list[list[int]]) -> list[int]:
    return [max(bfs(adj, v)) for v in range(len(adj))]


def ceil_sqrt(m: int) -> int:
    return math.isqrt(m - 1) + 1 if m > 0 else 0


def burn_rounds(adj: list[list[int]], sources) -> list[int | None]:
    """min_i(i + d(v, x_i)) per vertex, None where it exceeds len(sources)."""
    k = len(sources)
    best = [k + 1] * len(adj)
    for i, x in enumerate(sources, start=1):
        for v, d in enumerate(bfs(adj, x, limit=k - i)):
            if 0 <= d and i + d < best[v]:
                best[v] = i + d
    return [b if b <= k else None for b in best]


def _ids(value, n: int) -> str | None:
    if not isinstance(value, list) or not value:
        return "sources is not a non-empty list"
    if any(type(x) is not int or not 0 <= x < n for x in value):
        return "a source is not a vertex id"
    return None


def _burns_within(adj: list[list[int]], sources: list[int]) -> str | None:
    rounds = burn_rounds(adj, sources)
    if None in rounds:
        return f"vertex {rounds.index(None)} unburned after {len(sources)} rounds"
    return None


class Reference:
    """Instance-level facts, computed once and reused across passes."""

    def __init__(self, adj: list[list[int]], edges: list[tuple[int, int]]) -> None:
        self.adj, self.edges = adj, edges
        self.n = len(adj)
        ecc = eccentricities(adj)
        self.diam, self.rad = max(ecc), min(ecc)
        self._first: dict[int, tuple[int, ...] | None] = {}

    @cached_property
    def has_hist(self) -> bool:
        """Whether some spanning tree has no degree-2 vertex, by trying every
        set of m - (n - 1) edges to delete."""
        if self.n == 1:
            return True
        m = len(self.edges)
        for dropped in itertools.combinations(range(m), m - self.n + 1):
            gone = set(dropped)
            kept = [e for i, e in enumerate(self.edges) if i not in gone]
            tree = adjacency(self.n, kept)
            if all(len(a) != 2 for a in tree) and is_connected(tree):
                return True
        return False

    def brute_force_ok(self, k: int) -> bool:
        return self.n**k <= BRUTE_FORCE_LIMIT

    @cached_property
    def balls(self) -> list[list[int]]:
        """balls[r][v]: bitmask of the vertices within distance r of v."""
        balls = [[0] * self.n for _ in range(self.n)]
        for v in range(self.n):
            rings = [0] * self.n
            for w, d in enumerate(bfs(self.adj, v)):
                rings[d] |= 1 << w
            for r, mask in enumerate(itertools.accumulate(rings, int.__or__)):
                balls[r][v] = mask
        return balls

    def first_cover(self, k: int) -> tuple[int, ...] | None:
        """Lexicographically first k-tuple of sources that burns the graph
        in k rounds, trying every tuple in order; None if there is none."""
        if k < 1:
            return None
        if k not in self._first:
            full = (1 << self.n) - 1
            self._first[k] = next(
                (
                    combo
                    for combo in itertools.product(range(self.n), repeat=k)
                    if _union(self.balls, combo) == full
                ),
                None,
            )
        return self._first[k]


def _union(balls: list[list[int]], combo: tuple[int, ...]) -> int:
    k, cov = len(combo), 0
    for i, v in enumerate(combo):
        cov |= balls[k - 1 - i][v]
    return cov


def check_plan(text: str, adj: list[list[int]], bound: int) -> str | None:
    """tree-plan / hit-plan: a schedule within the stated bound whose printed
    burn rounds are the true ones."""
    plan = json.loads(text)
    if plan.get("bound") != bound:
        return f"bound {plan.get('bound')} != {bound}"
    sources = plan.get("sources")
    bad = _ids(sources, len(adj))
    if bad:
        return bad
    if len(sources) > bound:
        return f"{len(sources)} sources exceed bound {bound}"
    rounds = burn_rounds(adj, sources)
    if None in rounds:
        return f"vertex {rounds.index(None)} unburned after {len(sources)} rounds"
    if plan.get("rounds") != rounds:
        return "printed rounds differ from min_i(i + d(v, x_i))"
    if plan.get("completion") != max(rounds):
        return "printed completion is not the last burn round"
    return None


def check_optimum(k, ref: Reference, is_path: bool) -> str | None:
    """Bounds every optimum obeys, and the brute-force optimum when cheap."""
    if type(k) is not int:
        return "k is not an integer"
    if not ceil_sqrt(ref.diam + 1) <= k <= ref.rad + 1:
        return f"k={k} outside [ceil(sqrt(diam+1)), rad+1]"
    if is_path and k != ceil_sqrt(ref.n):
        return f"path on {ref.n} vertices has b = {ceil_sqrt(ref.n)}, got {k}"
    if ref.brute_force_ok(k):
        if ref.first_cover(k) is None:
            return f"brute force finds no schedule of length {k}"
        if ref.first_cover(k - 1) is not None:
            return f"brute force burns the graph in {k - 1} rounds"
    return None


def check_solve(text: str, ref: Reference, is_path: bool) -> str | None:
    out = json.loads(text)
    k, sources = out.get("k"), out.get("sources")
    bad = _ids(sources, ref.n) or check_optimum(k, ref, is_path)
    if bad:
        return bad
    if len(sources) != k:
        return f"{len(sources)} sources for k={k}"
    bad = _burns_within(ref.adj, sources)
    if bad:
        return bad
    if ref.brute_force_ok(k) and tuple(sources) != ref.first_cover(k):
        return "witness is not the lexicographically first optimal schedule"
    return None


def _spanning_tree(n: int, graph_adj, edges) -> list[list[int]] | str:
    """The tree's adjacency if edges form a spanning tree of the graph."""
    if len(edges) != n - 1:
        return f"{len(edges)} edges for {n} vertices"
    if len(set(edges)) != len(edges):
        return "repeated tree edge"
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or v not in graph_adj[u]:
            return f"({u},{v}) is not an edge of the graph"
    tree = adjacency(n, edges)
    if not is_connected(tree):
        return "tree edges do not connect the graph"
    return tree


def check_spanning_min(text: str, ref: Reference) -> str | None:
    out = json.loads(text)
    k, sources = out.get("k"), out.get("sources")
    edges = [tuple(e) for e in out.get("tree_edges", [])]
    tree = _spanning_tree(ref.n, ref.adj, edges)
    if isinstance(tree, str):
        return tree
    bad = _ids(sources, ref.n) or check_optimum(k, ref, False)
    if bad:
        return bad
    if len(sources) != k:
        return f"{len(sources)} sources for k={k}"
    return _burns_within(tree, sources)


def check_hist(text: str, ref: Reference) -> str | None:
    if text == "no HIST\n":
        return "a HIST exists" if ref.has_hist else None
    tokens = [int(tok) for tok in text.split()]
    n, m = tokens[0], tokens[1]
    tree_edges = list(zip(tokens[2::2], tokens[3::2]))
    if n != ref.n or m != len(tree_edges):
        return "malformed edge list header"
    tree = _spanning_tree(n, ref.adj, tree_edges)
    if isinstance(tree, str):
        return tree
    if any(len(a) == 2 for a in tree):
        return "returned tree has a degree-2 vertex"
    return None
