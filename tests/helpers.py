"""Shared test utilities: exhaustive HIT enumeration, small-graph catalogs,
naive brute-force burning oracles, and random instance builders.

The naive oracles here are deliberately independent of the library's search:
they enumerate source sequences outright and decide completeness purely by
simulation.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

import networkx as nx

from burnkit import (
    BurningSchedule,
    Graph,
    Tree,
    augment_degree2,
    build_graph,
    build_tree,
    burning_number_exact,
    enumerate_spanning_trees,
    is_complete,
    simulate,
    simulate_modified,
)
from burnkit.errors import MalformedEdge
from burnkit.hit import Anchor


def enumerate_hits(max_n: int) -> Iterator[Tree]:
    """Every HIT on at most max_n vertices, covering all isomorphism classes
    (isomorphic duplicates possible, harmless for property checks).

    A HIT with internal vertices is its internal skeleton tree plus >= 1
    pendant leaves per skeleton vertex, enough to push every skeleton degree
    to 3. HITs need #leaves >= #internal + 2, so skeletons have at most
    (max_n - 2) // 2 vertices.
    """
    yield build_tree(1, [])
    if max_n >= 2:
        yield build_tree(2, [(0, 1)])
    for i in range(1, (max_n - 2) // 2 + 1):
        if i == 1:
            skeletons = [[]]
        else:
            skeletons = [list(t.edges()) for t in nx.nonisomorphic_trees(i)]
        for edges in skeletons:
            deg = [0] * i
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            mins = [max(0, 3 - d) for d in deg]
            budget = max_n - i - sum(mins)
            if budget < 0:
                continue
            for extra in _compositions_upto(i, budget):
                counts = [m + e for m, e in zip(mins, extra)]
                hit_edges = list(edges)
                nxt = i
                for v, c in enumerate(counts):
                    for _ in range(c):
                        hit_edges.append((v, nxt))
                        nxt += 1
                yield build_tree(nxt, hit_edges)


def _compositions_upto(slots: int, budget: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `slots` nonnegative ints with sum <= budget."""
    if slots == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _compositions_upto(slots - 1, budget - head):
            yield (head,) + tail


def atlas_connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs on 1..max_n vertices (max_n <= 7), from the
    graph atlas; one representative per isomorphism class."""
    out = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= max_n and nx.is_connected(g):
            relabel = {v: idx for idx, v in enumerate(sorted(g.nodes()))}
            edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
            out.append(build_graph(g.number_of_nodes(), edges))
    return out


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random tree plus a few random extra edges."""
    tree = random_tree_rng(n, rng)
    edges = set(tree.graph.edges())
    extras = rng.randrange(0, max(1, n))
    for _ in range(extras):
        u, v = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertices numbered row by row."""
    edges = []
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            edges.append((v, v + 1))
        if v + cols < rows * cols:
            edges.append((v, v + cols))
    return build_graph(rows * cols, edges)


def random_tree_rng(n: int, rng: random.Random) -> Tree:
    from burnkit.generators import prufer_decode

    word = [rng.randrange(n) for _ in range(max(0, n - 2))]
    return prufer_decode(word, n)


def random_hit_rng(n: int, rng: random.Random) -> Tree:
    from burnkit.generators import random_hit

    return random_hit(n, seed=rng.randrange(2**32))


def reference_random_hit(n: int, seed: int) -> Tree:
    """random_hit as first written: decode and augment every draw (n >= 4),
    keeping the first whose augmented order is n."""
    from burnkit.generators import MAX_HIT_DRAWS, _random_tree

    rng = random.Random(seed)
    lo = max(2, (n + 3) // 2)
    for _ in range(MAX_HIT_DRAWS):
        m = rng.randint(lo, n)
        augmented, _ = augment_degree2(_random_tree(m, rng))
        if augmented.n == n:
            return augmented
    raise AssertionError(f"no HIT on {n} vertices within the draw limit")


def reference_spanning_min(g: Graph) -> tuple[int, Tree, BurningSchedule]:
    """min over spanning trees by full enumeration, solving every tree
    exactly: the first enumerated tree attaining the minimum, with its
    lexicographically smallest optimal schedule."""
    best = None
    for tree in enumerate_spanning_trees(g):
        k, sched = burning_number_exact(tree.graph)
        if best is None or k < best[0]:
            best = (k, tree, sched)
    return best


def _reference_spans(n: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def reference_spanning_trees(g: Graph) -> Iterator[Tree]:
    """Spanning-tree enumeration as first written, as its own search:
    include-first recursion over the sorted edge list, each tree built from
    the chosen edges."""
    n, edges = g.n, g.edges()
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def rec(i: int, chosen: list[tuple[int, int]]) -> Iterator[Tree]:
        if len(chosen) == n - 1:
            yield build_tree(n, chosen)
            return
        if i == len(edges) or not _reference_spans(n, chosen + edges[i:]):
            return
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            yield from rec(i + 1, chosen + [edges[i]])
            parent[ru] = ru
        yield from rec(i + 1, chosen)

    return rec(0, [])


def reference_find_hist(g: Graph) -> tuple[Tree | None, int]:
    """HIST search as first written, as its own search on a connected g:
    include/exclude recursion that prunes a vertex whose degree freezes at 0
    or 2 once all its edges are decided. Returns the first HIST (None if
    there is none) and the number of calls."""
    n, edges = g.n, g.edges()
    if n == 1:
        return build_tree(1, []), 1
    parent = list(range(n))
    deg = [0] * n
    undecided = [g.degree(v) for v in range(n)]
    calls = 0

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def frozen_bad(v: int) -> bool:
        return undecided[v] == 0 and deg[v] in (0, 2)

    def rec(i: int, chosen: list[tuple[int, int]]) -> Tree | None:
        nonlocal calls
        calls += 1
        if len(chosen) == n - 1:
            tree = build_tree(n, chosen)
            return tree if all(tree.degree(v) != 2 for v in range(n)) else None
        if i == len(edges) or not _reference_spans(n, chosen + edges[i:]):
            return None
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            deg[u] += 1
            deg[v] += 1
            undecided[u] -= 1
            undecided[v] -= 1
            if not (frozen_bad(u) or frozen_bad(v)):
                result = rec(i + 1, chosen + [edges[i]])
                if result is not None:
                    return result
            deg[u] -= 1
            deg[v] -= 1
            undecided[u] += 1
            undecided[v] += 1
            parent[ru] = ru
        undecided[u] -= 1
        undecided[v] -= 1
        result = None
        if not (frozen_bad(u) or frozen_bad(v)):
            result = rec(i + 1, chosen)
        undecided[u] += 1
        undecided[v] += 1
        return result

    return rec(0, []), calls


def networkx_spanning_trees(g: Graph) -> Iterator[frozenset[tuple[int, int]]]:
    """Every spanning tree of g as a set of (u, v) edges with u < v, from
    networkx's own spanning-tree iterator."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    for t in nx.algorithms.tree.mst.SpanningTreeIterator(h):
        yield frozenset((min(u, v), max(u, v)) for u, v in t.edges())


def reference_search_depth(
    g: Graph, k: int, preburn: tuple[int, ...] = ()
) -> tuple[int, ...] | None:
    """The exact solver's search on any graph as first written: depth-first
    over source lists in ascending id order, with the best-case coverage
    prune. The first length-k list whose balls B(x_i, k-i), with the
    preburn set's radius-(k-1) balls, cover g is the lexicographically
    smallest; None if there is none."""
    balls = [[1 << v for v in range(g.n)]]
    for _ in range(k - 1):
        prev = balls[-1]
        layer = []
        for v in range(g.n):
            mask = prev[v]
            for w in g.adj[v]:
                mask |= prev[w]
            layer.append(mask)
        balls.append(layer)
    maxcov = [max(mask.bit_count() for mask in layer) for layer in balls]
    full = (1 << g.n) - 1
    initial = 0
    for v in preburn:
        initial |= balls[k - 1][v]
    remaining_cap = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        remaining_cap[i] = remaining_cap[i + 1] + maxcov[k - 1 - i]
    prefix: list[int] = []

    def dfs(pos: int, covered: int) -> bool:
        if covered == full:
            prefix.extend([0] * (k - pos))
            return True
        if pos == k:
            return False
        if (full ^ covered).bit_count() > remaining_cap[pos]:
            return False
        layer = balls[k - 1 - pos]
        for v in range(g.n):
            prefix.append(v)
            if dfs(pos + 1, covered | layer[v]):
                return True
            prefix.pop()
        return False

    return tuple(prefix) if dfs(0, initial) else None


def min_ball_cover(layer: list[int], target: int) -> int:
    """Fewest balls of layer (bitmasks) whose union holds the bitmask
    target, by breadth-first search over the covered parts of target."""
    parts = {ball & target for ball in layer} - {0}
    frontier, seen, count = {0}, {0}, 0
    while target not in frontier:
        frontier = {c | p for c in frontier for p in parts} - seen
        seen |= frontier
        count += 1
    return count


def reference_find_anchor(t: Tree) -> Anchor:
    """find_anchor as first written: from the lowest leaf, walk to the
    lowest heavy neighbour, with one depth-first search from x per step for
    the sizes of x's neighbour sides."""
    n, adj = t.n, t.graph.adj
    tau = 2 * (math.isqrt(n - 1) + 1) - 1
    x, came_from = adj[t.leaves[0]][0], t.leaves[0]
    for _ in range(n):
        sizes = {v: 0 for v in adj[x]}
        branch = {x: None}
        stack = [x]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in branch:
                    branch[w] = w if u == x else branch[u]
                    sizes[branch[w]] += 1
                    stack.append(w)
        heavy = [v for v in adj[x] if v != came_from and sizes[v] >= tau]
        if not heavy:
            others = tuple(v for v in adj[x] if v != came_from)
            return Anchor(
                x=x,
                y=came_from,
                neighbors=others + (came_from,),
                side_sizes=tuple(sizes[v] for v in others) + (n - sizes[came_from],),
                threshold=tau,
            )
        x, came_from = min(heavy), x
    raise AssertionError("anchor walk did not end")


def _reindexed(t: Tree, keep: list[int], extra=()) -> Tree:
    """The tree on the sorted vertex list keep, with t's edges inside it and
    the extra edges (old ids), re-indexed in id order."""
    new = {old: i for i, old in enumerate(keep)}
    edges = [(u, w) for u, w in t.graph.edges() if u in new and w in new]
    return build_tree(len(keep), [(new[u], new[w]) for u, w in [*edges, *extra]])


def reference_hit_schedule(t: Tree) -> tuple[int, ...]:
    """hit_schedule's sources as first written, by recursion: burn the
    anchor x first, plan y's side as its own re-indexed tree (smoothed at y
    when y has degree 2 there) and map that plan back, then append x while
    the schedule is shorter than ceil(sqrt(n)) and does not burn t."""
    n = t.n
    if n <= 2:
        return tuple(range(n))
    if n in (4, 5):
        return (t.internal[0], t.leaves[0])
    anchor = reference_find_anchor(t)
    x, y = anchor.x, anchor.y
    side = {y}
    stack = [y]
    while stack:
        u = stack.pop()
        for w in t.graph.adj[u]:
            if w != x and w not in side:
                side.add(w)
                stack.append(w)
    keep = sorted(side)
    sub = _reindexed(t, keep)
    yy = keep.index(y)
    if sub.degree(yy) == 2:
        rest = [v for v in range(sub.n) if v != yy]
        smoothed = _reindexed(sub, rest, [sub.graph.adj[yy]])
        inner = tuple(rest[v] for v in reference_hit_schedule(smoothed))
    else:
        inner = reference_hit_schedule(sub)
    sources = (x,) + tuple(keep[v] for v in inner)
    bound = math.isqrt(n - 1) + 1
    while len(sources) < bound and not is_complete(
        simulate(t.graph, BurningSchedule(sources=sources))
    ):
        sources += (x,)
    return sources


def reference_lift_burn(adj, sources: tuple[int, ...], y: int) -> int:
    """The planner's lift check as first written: burn all of y's side in
    the forest adj, y preburned and sources[0] on fire in round 1 and
    sources[i] in round i + 1, with no round limit; returns the last round
    in which a vertex caught fire."""
    new = [sources[0]] if y == sources[0] else [y, sources[0]]
    burnt = set(new)
    rnd = 1
    while new:  # the vertices that caught fire in round rnd
        frontier, new = new, []
        rnd += 1
        for u in frontier:
            for w in adj[u]:
                if w not in burnt:
                    burnt.add(w)
                    new.append(w)
        if rnd <= len(sources) and sources[rnd - 1] not in burnt:
            burnt.add(sources[rnd - 1])
            new.append(sources[rnd - 1])
    return rnd - 1


def reference_build_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    """build_graph as first written: one set per vertex and tuple edge keys."""
    if n < 0:
        raise MalformedEdge(f"negative vertex count {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedEdge(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise MalformedEdge(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise MalformedEdge(f"duplicate edge ({u},{v})")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n=n, adj=tuple(tuple(sorted(s)) for s in adj), m=len(seen))


def wheel_graph(rim: int) -> Graph:
    """Hub 0 joined to every vertex of the cycle 1..rim."""
    spokes = [(0, i) for i in range(1, rim + 1)]
    return build_graph(rim + 1, spokes + [(i, i % rim + 1) for i in range(1, rim + 1)])


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertex ids permuted at random."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def subdivide_edge(t: Tree, edge: tuple[int, int]) -> tuple[Tree, int]:
    """Split one edge with a fresh vertex; returns the new tree and the new
    (degree-2) vertex id."""
    a, b = edge
    v = t.n
    edges = [e for e in t.graph.edges() if e != (min(a, b), max(a, b))]
    edges.extend([(a, v), (b, v)])
    return build_tree(t.n + 1, edges), v


def naive_burning_number(g: Graph, max_k: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum schedule length by full sequence enumeration."""
    limit = max_k if max_k is not None else g.n
    for k in range(1, limit + 1):
        for seq in itertools.product(range(g.n), repeat=k):
            if is_complete(simulate(g, BurningSchedule(sources=seq))):
                return k, seq
    raise AssertionError(f"no burning sequence of length <= {limit}")


def naive_modified_burning_number(
    g: Graph, preburn: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    for k in range(1, g.n + 1):
        for seq in itertools.product(range(g.n), repeat=k):
            bm = simulate_modified(
                g, BurningSchedule(preburn=preburn, sources=seq)
            )
            if is_complete(bm):
                return k, seq
    raise AssertionError("no modified burning sequence found")


EIGHT_VERTEX_HIT_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (5, 7)]


def eight_vertex_hit() -> Tree:
    """An 8-vertex HIT used as a shared worked example across the tests."""
    return build_tree(8, EIGHT_VERTEX_HIT_EDGES)
