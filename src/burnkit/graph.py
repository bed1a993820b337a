"""Simple undirected graphs and trees with the structural queries the
burning algorithms rely on: BFS distances, bridge components, degree-2
smoothing, and HIT recognition.

Vertex ids are dense integers 0..n-1 and every set-valued output is sorted
ascending so that downstream schedules are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import MalformedEdge, NotAnEdge, NotATree, NotDegreeTwo, Unreachable

# Largest vertex count an edge-list header may declare. build_graph allocates
# one adjacency list per vertex, so the header is checked before that; the cap
# is ten times the 10^5-vertex planning target.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range((self.n)) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return None not in self.distances_from(0)

    def distances_from(self, source: int) -> list[int | None]:
        """BFS distance from source to every vertex; None if unreachable."""
        dist: list[int | None] = [None] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def build_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects out-of-range ids, self-loops, and duplicate edges.
    """
    if n < 0:
        raise MalformedEdge(f"negative vertex count {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()  # edge {u, v} with u < v as u * n + v
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedEdge(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise MalformedEdge(f"self-loop at {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise MalformedEdge(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    # from a list: tuple(generator) resizes, piling tuples on CPython's free lists
    return Graph(n=n, adj=tuple([tuple(nbrs) for nbrs in adj]), m=len(seen))


def distance(g: Graph, u: int, v: int) -> int:
    """Shortest-path length in edges; raises Unreachable across components."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise MalformedEdge(f"vertex out of range: {u}, {v}")
    d = g.distances_from(u)[v]
    if d is None:
        raise Unreachable(f"no path between {u} and {v}")
    return d


@dataclass(frozen=True)
class Tree:
    """A Graph validated connected and acyclic, with its leaf/internal split.

    For n = 1 the single vertex counts as neither leaf nor internal.
    """

    graph: Graph

    def __post_init__(self) -> None:
        g = self.graph
        if g.n == 0:
            raise NotATree("empty graph")
        if g.m != g.n - 1:
            raise NotATree(f"tree needs m = n-1, got n={g.n} m={g.m}")
        if not g.is_connected():
            raise NotATree("graph is not connected")

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple([v for v in range(self.n) if self.degree(v) == 1])

    @property
    def internal(self) -> tuple[int, ...]:
        return tuple([v for v in range(self.n) if self.degree(v) >= 2])

    @property
    def n(self) -> int:
        return self.graph.n

    def degree(self, v: int) -> int:
        return self.graph.degree(v)


def build_tree(n: int, edges: list[tuple[int, int]]) -> Tree:
    return Tree(build_graph(n, edges))


@dataclass(frozen=True)
class BridgeSide:
    """Component containing x after deleting tree edge xy."""

    x: int
    y: int
    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def bridge_component(t: Tree, x: int, y: int) -> BridgeSide:
    """BridgeSide for the component of x after deleting edge xy."""
    g = t.graph
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise NotAnEdge(f"({x},{y}) is not an edge of the tree")
    seen = {x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if u == x and w == y:
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return BridgeSide(x=x, y=y, vertices=tuple(sorted(seen)))


def smooth(t: Tree, v: int) -> tuple[Tree, dict[int, int]]:
    """Remove degree-2 vertex v and join its neighbors.

    Returns the new tree plus the old-id -> new-id map for the survivors
    (order-preserving re-indexing onto 0..n-2).
    """
    g = t.graph
    if not (0 <= v < g.n) or g.degree(v) != 2:
        raise NotDegreeTwo(f"vertex {v} does not have degree 2")
    a, b = g.adj[v]
    idmap = {old: new for new, old in enumerate(u for u in range(g.n) if u != v)}
    edges = [
        (idmap[u], idmap[w]) for u, w in g.edges() if u != v and w != v
    ]
    edges.append((idmap[a], idmap[b]))
    return build_tree(g.n - 1, edges), idmap


def is_hit(t: Tree) -> bool:
    """True iff no vertex has degree exactly 2."""
    return all(t.degree(v) != 2 for v in range(t.n))


def internal_vertex_count(t: Tree) -> int:
    """Number of vertices with degree >= 2."""
    return len(t.internal)


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` edge-list interchange format."""
    tokens = text.split()
    if len(tokens) < 2:
        raise MalformedEdge("edge list needs a header line 'n m'")
    try:
        nums = list(map(int, tokens))
    except ValueError as exc:
        raise MalformedEdge(f"non-integer token in edge list: {exc}") from exc
    n, m = nums[0], nums[1]
    if n > MAX_VERTICES:
        raise MalformedEdge(f"vertex count {n} exceeds the cap {MAX_VERTICES}")
    if len(nums) != 2 + 2 * m:
        raise MalformedEdge(f"expected {m} edges, found {(len(nums) - 2) // 2}")
    return build_graph(n, list(zip(nums[2::2], nums[3::2])))


def format_edge_list(g: Graph) -> str:
    """Serialize to the interchange format; edges canonical u < v, sorted."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
