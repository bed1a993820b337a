"""Deterministic graph families and seeded random trees/HITs.

Random labeled trees are drawn uniformly by decoding a random Prufer word.
Random HITs decode one random word too, after a rewrite: a symbol that
occurs exactly once in the word is a degree-2 vertex, so those symbols are
shuffled and paired, and the one occurrence of each pair's first symbol is
rewritten to its second (see random_hit). Every labeled HIT can be drawn,
but the distribution is not uniform over them.
"""

from __future__ import annotations

import heapq
import random

from .errors import BadParams
from .graph import MAX_VERTICES, Graph, Tree, build_graph, build_tree


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadParams("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    if n < 1:
        raise BadParams("star needs n >= 1")
    return build_graph(n, [(0, i) for i in range(1, n)])


def spider_graph(legs: list[int]) -> Graph:
    """Paths of the given lengths glued at a common hub (vertex 0)."""
    if not legs or any(length < 1 for length in legs):
        raise BadParams("spider needs at least one leg of length >= 1")
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(nxt, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def prufer_decode(word: list[int], n: int) -> Tree:
    """Standard Prufer decoding; word length must be n - 2."""
    if n == 1:
        return build_tree(1, [])
    if n == 2:
        return build_tree(2, [(0, 1)])
    if len(word) != n - 2 or any(not 0 <= x < n for x in word):
        raise BadParams(f"Prufer word for n={n} needs {n - 2} ids in range")
    degree = [1] * n
    for x in word:
        degree[x] += 1
    edges = []
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    for x in word:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v))
    return build_tree(n, edges)


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree on n vertices."""
    if n < 1:
        raise BadParams("random_tree needs n >= 1")
    rng = random.Random(seed)
    return _random_tree(n, rng)


def _random_tree(n: int, rng: random.Random) -> Tree:
    return prufer_decode(_random_word(n, rng), n)


def _random_word(n: int, rng: random.Random) -> list[int]:
    """n - 2 draws of rng.randrange(n), inlined: CPython draws bit_length(n)
    random bits and rejects values of n or more, so the word is the same."""
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    word = []
    for _ in range(n - 2):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        word.append(r)
    return word


def random_hit(n: int, seed: int) -> Tree:
    """Random HIT on exactly n vertices, from one Prufer word. No HIT on 3
    vertices exists.

    A vertex's degree is one more than its count in the word, so the tree is
    a HIT exactly when no symbol occurs once. The symbols that occur once,
    in ascending order, are shuffled and paired; in each pair the first
    one's only occurrence is rewritten to the second, which then occurs
    twice (degree 3) while the first becomes a leaf. A singleton left over
    is rewritten to the last pair's second symbol or, when it is the only
    one, to the word's first repeated symbol, which exists for n >= 4. A
    word with no singleton is kept as drawn, so every labeled HIT can be
    drawn, but not uniformly.
    """
    if n < 1 or n == 3:
        raise BadParams(f"no HIT on {n} vertices")
    if n == 1:
        return build_tree(1, [])
    if n == 2:
        return build_tree(2, [(0, 1)])
    rng = random.Random(seed)
    word = _random_word(n, rng)
    count = [0] * n
    at = [0] * n  # a singleton's only position
    for i, v in enumerate(word):
        count[v] += 1
        at[v] = i
    singles = [v for v in range(n) if count[v] == 1]
    rng.shuffle(singles)
    if len(singles) % 2:
        # the one left over pairs with a symbol that will occur twice or more
        singles.append(singles[-2] if len(singles) > 1 else next(v for v in word if count[v] > 1))
    for a, b in zip(singles[::2], singles[1::2]):
        word[at[a]] = b
    return prufer_decode(word, n)


def _int_param(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise BadParams(f"parameter value {value!r} is not an integer") from exc


def _order(n: int) -> int:
    """n, if a graph on n vertices is within the vertex cap."""
    if n > MAX_VERTICES:
        raise BadParams(f"{n} vertices exceed the cap {MAX_VERTICES}")
    return n


def generate(family: str, params: dict) -> Graph:
    """Dispatch on family name; deterministic under (family, params, seed).
    A missing or non-integer parameter, or a graph above MAX_VERTICES
    vertices, raises BadParams before any edge is built."""
    try:
        if family == "path":
            return path_graph(_order(_int_param(params["n"])))
        if family == "star":
            return star_graph(_order(_int_param(params["n"])))
        if family == "spider":
            legs = params["legs"]
            if not isinstance(legs, (list, tuple)):
                raise BadParams("spider legs must be a list of lengths")
            legs = [_int_param(x) for x in legs]
            _order(1 + sum(legs))
            return spider_graph(legs)
        if family == "petersen":
            return petersen_graph()
        if family == "random_tree":
            n, seed = _int_param(params["n"]), _int_param(params["seed"])
            return random_tree(_order(n), seed).graph
        if family == "random_hit":
            n, seed = _int_param(params["n"]), _int_param(params["seed"])
            return random_hit(_order(n), seed).graph
    except KeyError as exc:
        raise BadParams(f"family {family!r} missing parameter {exc}") from exc
    raise BadParams(f"unknown family {family!r}")
