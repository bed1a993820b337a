"""Shared test utilities: exhaustive HIT enumeration, small-graph catalogs,
naive brute-force burning oracles, and random instance builders.

The naive oracles here are deliberately independent of the library's search:
they enumerate source sequences outright and decide completeness purely by
simulation.
"""

from __future__ import annotations

import itertools
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
