import itertools
import random

import pytest

import burnkit.graph
from burnkit import (
    Tree,
    bridge_component,
    build_graph,
    build_tree,
    distance,
    format_edge_list,
    internal_vertex_count,
    is_hit,
    parse_edge_list,
    smooth,
)
from burnkit.errors import (
    MalformedEdge,
    NotAnEdge,
    NotATree,
    NotDegreeTwo,
    Unreachable,
)
from burnkit.generators import petersen_graph, star_graph
from burnkit.graph import MAX_VERTICES

from helpers import (
    eight_vertex_hit,
    enumerate_hits,
    random_tree_rng,
    reference_build_graph,
)


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert (g.degree(0), g.degree(1)) == (1, 1)
    assert g.m == 1


def test_build_p4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))


def test_build_petersen():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))


@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [(0, 2)]),
        (3, [(1, 1)]),
        (3, [(0, 1), (1, 0)]),
        (3, [(0, 1), (0, 1)]),
    ],
)
def test_build_rejects_malformed(n, edges):
    with pytest.raises(MalformedEdge):
        build_graph(n, edges)


def test_distance_path_endpoints():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert distance(g, 0, 3) == 3
    assert distance(g, 2, 2) == 0


def test_petersen_diameter_two():
    # brute-force all-pairs: every non-adjacent pair at distance exactly 2
    g = petersen_graph()
    for u, v in itertools.combinations(range(10), 2):
        expected = 1 if g.has_edge(u, v) else 2
        assert distance(g, u, v) == expected


def test_distance_unreachable():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(Unreachable):
        distance(g, 0, 3)


def test_tree_rejects_cycle_and_disconnect():
    with pytest.raises(NotATree):
        build_tree(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATree):
        build_tree(4, [(0, 1), (2, 3)])


def test_singleton_tree_has_no_leaf_or_internal():
    t = build_tree(1, [])
    assert t.leaves == () and t.internal == ()


def test_bridge_component_p4():
    t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
    side = bridge_component(t, 1, 2)
    assert side.vertices == (0, 1) and side.size == 2


def test_bridge_component_star():
    t = Tree(star_graph(6))
    assert bridge_component(t, 0, 1).size == 5
    assert bridge_component(t, 1, 0).vertices == (1,)


def test_bridge_component_eight_vertex_hit():
    t = eight_vertex_hit()
    side = bridge_component(t, 3, 1)
    assert side.vertices == (3, 4, 5, 6, 7)


def test_bridge_component_rejects_non_edge():
    t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotAnEdge):
        bridge_component(t, 0, 3)


def test_bridge_sides_partition():
    rng = random.Random(7)
    for _ in range(30):
        t = random_tree_rng(rng.randint(2, 40), rng)
        for u, v in t.graph.edges():
            a = bridge_component(t, u, v)
            b = bridge_component(t, v, u)
            assert a.size + b.size == t.n
            assert not set(a.vertices) & set(b.vertices)


def test_smooth_p3():
    t = build_tree(3, [(0, 1), (1, 2)])
    t2, idmap = smooth(t, 1)
    assert t2.n == 2 and idmap == {0: 0, 2: 1}
    assert t2.graph.has_edge(0, 1)


def test_smooth_p4():
    t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
    t2, _ = smooth(t, 1)
    assert t2.n == 3 and sorted(t2.graph.degree(v) for v in range(3)) == [1, 1, 2]


def test_smooth_rejects_wrong_degree():
    t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotDegreeTwo):
        smooth(t, 0)


def test_smooth_preserves_distances():
    # surviving-pair distances shrink by exactly 1 iff the path used v
    rng = random.Random(11)
    for _ in range(30):
        t = random_tree_rng(rng.randint(3, 20), rng)
        deg2 = [v for v in range(t.n) if t.degree(v) == 2]
        if not deg2:
            continue
        v = rng.choice(deg2)
        t2, idmap = smooth(t, v)
        for a, b in itertools.combinations([u for u in range(t.n) if u != v], 2):
            d_old = distance(t.graph, a, b)
            through = distance(t.graph, a, v) + distance(t.graph, v, b) == d_old
            d_new = distance(t2.graph, idmap[a], idmap[b])
            assert d_new == d_old - 1 if through else d_new == d_old


def test_is_hit_examples():
    assert is_hit(build_tree(2, [(0, 1)]))
    assert not is_hit(build_tree(3, [(0, 1), (1, 2)]))
    assert is_hit(eight_vertex_hit())


def test_internal_vertex_count_examples():
    assert internal_vertex_count(Tree(star_graph(6))) == 1
    assert internal_vertex_count(eight_vertex_hit()) == 3
    assert internal_vertex_count(build_tree(2, [(0, 1)])) == 0


def test_hit_leaf_excess():
    # every HIT on >= 2 vertices has at least two more leaves than internal
    for t in enumerate_hits(12):
        if t.n >= 2:
            assert len(t.leaves) >= len(t.internal) + 2


def test_internal_bound_tightest_admissible():
    # HIT on >= 2 vertices with |T| <= 2n-1 has at most n-2 internal
    # vertices (the single-vertex HIT would need a negative bound)
    for t in enumerate_hits(12):
        if t.n < 2:
            continue
        n = (t.n + 1 + 1) // 2  # smallest n with |T| <= 2n-1
        assert internal_vertex_count(t) <= n - 2


def outcome(build, n, edges):
    """The Graph build makes, or the message of the MalformedEdge it raises."""
    try:
        return build(n, edges)
    except MalformedEdge as exc:
        return str(exc)


def test_build_graph_matches_reference_builder():
    # shuffled edge lists, some with out-of-range, self-loop or duplicate
    # edges at random positions: the same Graph or the same first error
    rng = random.Random(83)
    errors = 0
    for _ in range(600):
        n = rng.randint(0, 40)
        pairs = list(itertools.combinations(range(n), 2))
        picked = rng.sample(pairs, rng.randint(0, len(pairs)))
        edges = [e if rng.random() < 0.5 else e[::-1] for e in picked]
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            kind = rng.randrange(3)
            if kind == 0:
                bad = (rng.randint(-2, n + 2), rng.choice([-1, n, n + 1]))
                bad = bad if rng.random() < 0.5 else bad[::-1]
            elif kind == 1 and n:
                v = rng.randrange(n)
                bad = (v, v)
            elif edges:
                u, v = rng.choice(edges)
                bad = (u, v) if rng.random() < 0.5 else (v, u)
            else:
                continue
            edges.insert(rng.randint(0, len(edges)), bad)
        want = outcome(reference_build_graph, n, edges)
        assert outcome(build_graph, n, edges) == want, (n, edges)
        errors += isinstance(want, str)
    assert 100 < errors < 500


def test_edge_list_round_trip():
    for g in (petersen_graph(), build_graph(1, []), star_graph(5)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(MalformedEdge):
        parse_edge_list("3 1\n0\n")
    with pytest.raises(MalformedEdge):
        parse_edge_list("x y\n")


def test_parse_rejects_vertex_count_above_cap_before_building(monkeypatch):
    def build_graph_not_reached(n, edges):
        raise AssertionError("header above the cap reached build_graph")

    monkeypatch.setattr(burnkit.graph, "build_graph", build_graph_not_reached)
    for header in (f"{MAX_VERTICES + 1} 0\n", "1000000000 0\n"):
        with pytest.raises(MalformedEdge, match="exceeds the cap"):
            parse_edge_list(header)
