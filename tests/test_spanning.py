import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest

import burnkit
from burnkit import (
    Tree,
    build_graph,
    burning_number_exact,
    burning_number_via_spanning_trees,
    enumerate_spanning_trees,
    find_hist,
    hist_bound,
    is_complete,
    is_hit,
    matrix_tree_count,
    simulate,
    sqrt_ceil,
)
from burnkit.burning import _rooted_levels, _search_depth
from burnkit.errors import CertificationFailed, Disconnected, TooLarge, TooMany, TooSmall
from burnkit.generators import path_graph, petersen_graph, spider_graph, star_graph
from burnkit.spanning import HistResult

from helpers import (
    atlas_connected_graphs,
    grid_graph,
    networkx_spanning_trees,
    random_connected_graph,
    random_tree_rng,
    reference_find_hist,
    reference_spanning_min,
    reference_spanning_trees,
    relabel,
    wheel_graph,
)


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_tree_enumerates_itself():
    trees = list(enumerate_spanning_trees(path_graph(5)))
    assert len(trees) == 1 and trees[0].graph == path_graph(5)


def test_c4_has_four_spanning_trees():
    trees = list(enumerate_spanning_trees(cycle_graph(4)))
    assert len(trees) == 4
    assert len({tuple(t.graph.edges()) for t in trees}) == 4


def test_petersen_spanning_tree_count():
    assert matrix_tree_count(petersen_graph()) == 2000
    assert sum(1 for _ in enumerate_spanning_trees(petersen_graph())) == 2000


def test_enumeration_count_matches_determinant():
    rng = random.Random(61)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 8), rng)
        assert sum(1 for _ in enumerate_spanning_trees(g)) == matrix_tree_count(g)


def test_enumeration_guards():
    with pytest.raises(TooMany):
        list(enumerate_spanning_trees(petersen_graph(), limit=1999))
    with pytest.raises(Disconnected):
        list(enumerate_spanning_trees(build_graph(3, [(0, 1)])))


def test_spanning_min_examples():
    assert burning_number_via_spanning_trees(path_graph(4))[0] == 2
    assert burning_number_via_spanning_trees(cycle_graph(4))[0] == 2
    k, tree, sched = burning_number_via_spanning_trees(petersen_graph())
    assert k == 3 == burning_number_exact(petersen_graph())[0]
    assert is_complete(simulate(tree.graph, sched))


def sparse_connected_graph(n, rng):
    """Random tree plus at most three extra edges."""
    edges = set(random_tree_rng(n, rng).graph.edges())
    for _ in range(rng.randrange(0, 4)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def test_spanning_min_matches_full_enumeration():
    # solving g once and stopping at the first tree that burns in b(g)
    # rounds gives the same (k, tree, schedule) as solving every tree
    rng = random.Random(83)
    graphs = [petersen_graph()]
    graphs += [relabel(wheel_graph(rim), rng) for rim in range(3, 10)]
    grids = [(2, 3), (3, 3), (3, 4), (2, 6)]
    graphs += [relabel(grid_graph(rows, cols), rng) for rows, cols in grids]
    for i in range(400):
        if i % 2:
            graphs.append(sparse_connected_graph(rng.randint(2, 16), rng))
        else:
            graphs.append(random_connected_graph(rng.randint(1, 9), rng))
    for g in graphs:
        assert burning_number_via_spanning_trees(g) == reference_spanning_min(g)


def test_spanning_min_guard_order(monkeypatch):
    # the exact solver's guards (TooLarge, TooSmall, Disconnected) come
    # first, then the enumeration's TooMany, before any tree is tested
    def no_tree_tested(*args):
        raise AssertionError("a spanning tree was tested")

    monkeypatch.setattr("burnkit.spanning._search_depth", no_tree_tested)
    with pytest.raises(TooLarge, match="n=10 exceeds exact-solver limit 9"):
        burning_number_via_spanning_trees(
            petersen_graph(), tree_limit=1999, exact_limit=9
        )
    with pytest.raises(TooLarge, match="n=3 exceeds exact-solver limit 2"):
        burning_number_via_spanning_trees(build_graph(3, [(0, 1)]), exact_limit=2)
    with pytest.raises(TooSmall):
        burning_number_via_spanning_trees(build_graph(0, []), tree_limit=-1)
    with pytest.raises(Disconnected):
        burning_number_via_spanning_trees(build_graph(3, [(0, 1)]), tree_limit=0)
    with pytest.raises(TooMany):
        burning_number_via_spanning_trees(petersen_graph(), tree_limit=1999)


def test_search_depth_at_and_below_burning_number():
    rng = random.Random(89)
    graphs = atlas_connected_graphs(6)
    graphs += [random_tree_rng(rng.randint(1, 20), rng).graph for _ in range(40)]
    graphs += [spider_graph([3, 3, 2]), petersen_graph(), grid_graph(3, 4)]
    for g in graphs:
        k, sched = burning_number_exact(g)
        rooted = _rooted_levels(g)
        assert _search_depth(g, k, (), [], [], *rooted) == sched.sources
        assert _search_depth(g, k - 1, (), [], [], *rooted) is None


def test_subtree_lemma_equality_random():
    rng = random.Random(67)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 8), rng)
        assert burning_number_via_spanning_trees(g)[0] == burning_number_exact(g)[0]


def test_spanning_subgraph_monotonicity():
    # a schedule complete on a spanning tree is complete on the host graph
    # in no more rounds
    rng = random.Random(71)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 8), rng)
        for tree in enumerate_spanning_trees(g):
            _, sched = burning_number_exact(tree.graph)
            on_tree = simulate(tree.graph, sched)
            on_graph = simulate(g, sched)
            assert is_complete(on_graph)
            for a, b in zip(on_graph.rounds, on_tree.rounds):
                assert a <= b
            break


def test_find_hist_star_is_itself():
    g = star_graph(5)
    result = find_hist(g)
    assert result.found and result.tree.graph == g


def test_find_hist_c4_none():
    result = find_hist(cycle_graph(4))
    assert not result.found and result.tree is None


def test_find_hist_petersen():
    result = find_hist(petersen_graph())
    assert result.found
    tree = result.tree
    assert tree.n == 10 and is_hit(tree)
    assert all(petersen_graph().has_edge(u, v) for u, v in tree.graph.edges())


def test_find_hist_guards():
    with pytest.raises(TooLarge):
        find_hist(petersen_graph(), limit=9)
    with pytest.raises(Disconnected):
        find_hist(build_graph(2, []))


def test_find_hist_agrees_with_enumeration_filter():
    rng = random.Random(73)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        by_filter = any(is_hit(t) for t in enumerate_spanning_trees(g))
        assert find_hist(g).found == by_filter


def _no_degree_two(n, tree_edges):
    deg = [0] * n
    for u, v in tree_edges:
        deg[u] += 1
        deg[v] += 1
    return 2 not in deg


def test_search_matches_networkx():
    # networkx's spanning-tree iterator shares no code with the search
    rng = random.Random(101)
    graphs = [g for g in atlas_connected_graphs(7) if matrix_tree_count(g) <= 30]
    for _ in range(60):
        g = random_connected_graph(rng.randint(1, 9), rng)
        if matrix_tree_count(g) <= 300:
            graphs.append(g)
    graphs += [relabel(wheel_graph(rim), rng) for rim in range(3, 7)]
    grids = [(2, 3), (2, 4), (3, 3)]
    graphs += [relabel(grid_graph(rows, cols), rng) for rows, cols in grids]
    assert len(graphs) >= 200, len(graphs)
    hist_found = 0
    for g in graphs:
        ours = [frozenset(t.graph.edges()) for t in enumerate_spanning_trees(g)]
        theirs = list(networkx_spanning_trees(g))
        assert len(set(ours)) == len(ours) == len(theirs) == len(set(theirs))
        assert set(ours) == set(theirs)
        found = any(_no_degree_two(g.n, t) for t in theirs)
        assert find_hist(g).found == found
        hist_found += found
    assert 0 < hist_found < len(graphs)


def test_find_hist_matches_networkx_on_atlas():
    # every connected graph on at most 6 vertices
    for g in atlas_connected_graphs(6):
        found = any(_no_degree_two(g.n, t) for t in networkx_spanning_trees(g))
        assert find_hist(g).found == found


def test_search_matches_frozen_reference():
    # the two searches as first written, each its own recursion: the same
    # tree order, the same first HIST and the same node count
    rng = random.Random(97)
    graphs = atlas_connected_graphs(7)
    graphs += [random_connected_graph(rng.randint(1, 9), rng) for _ in range(300)]
    graphs += [sparse_connected_graph(rng.randint(2, 20), rng) for _ in range(300)]
    graphs += [relabel(wheel_graph(rim), rng) for rim in range(3, 10)]
    grids = [(2, 3), (3, 3), (2, 5), (3, 4)]
    graphs += [relabel(grid_graph(rows, cols), rng) for rows, cols in grids]
    ordered = 0
    for g in graphs:
        result = find_hist(g)
        tree, nodes = reference_find_hist(g)
        assert result.nodes_expanded == nodes
        assert (result.tree is None) == (tree is None)
        if tree is not None:
            assert result.tree.graph == tree.graph
        if matrix_tree_count(g) <= 100:
            ordered += 1
            ours = [t.graph for t in enumerate_spanning_trees(g)]
            assert ours == [t.graph for t in reference_spanning_trees(g)]
    assert ordered >= 1000


def test_search_makes_no_recursive_call():
    # a search that recurses once per decided edge needs over 1,000 frames here
    code = (
        "import sys\n"
        "from burnkit import enumerate_spanning_trees, find_hist\n"
        "from burnkit.generators import path_graph, random_hit\n"
        "t = random_hit(1200, 0)\n"
        "sys.setrecursionlimit(100)\n"
        "print(find_hist(t.graph, limit=1200).tree == t)\n"
        "print(len(list(enumerate_spanning_trees(path_graph(150)))))\n"
    )
    src = str(Path(burnkit.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n1\n"


def test_hist_bound_star():
    plan = hist_bound(star_graph(5))
    assert plan is not None and len(plan.schedule) == 2 <= plan.bound


def test_hist_bound_c4_empty():
    assert hist_bound(cycle_graph(4)) is None


def test_hist_bound_petersen():
    plan = hist_bound(petersen_graph())
    assert plan is not None
    assert plan.bound == sqrt_ceil(10) == 4
    assert len(plan.schedule) <= 4
    assert is_complete(simulate(petersen_graph(), plan.schedule))


def test_hist_bound_sound_on_random_graphs():
    rng = random.Random(79)
    for _ in range(15):
        g = random_connected_graph(rng.randint(2, 9), rng)
        plan = hist_bound(g)
        if plan is None:
            assert not find_hist(g).found
        else:
            assert burning_number_exact(g)[0] <= len(plan.schedule) <= plan.bound


def test_hist_bound_simulates_once_on_the_graph(monkeypatch):
    simulated = []
    real = burnkit.burning.simulate_modified

    def recording(g, m):
        simulated.append(g)
        return real(g, m)

    monkeypatch.setattr(burnkit.burning, "simulate_modified", recording)
    g = petersen_graph()
    assert hist_bound(g) is not None
    assert simulated == [g]


def test_hist_bound_checks_the_hist_is_a_hit(monkeypatch):
    # the HIST's plan is not simulated on the HIST: the planner's level-0
    # HIT check must refuse a spanning tree with a degree-2 vertex
    g = cycle_graph(5)
    fake = HistResult(tree=Tree(path_graph(5)), nodes_expanded=0)
    monkeypatch.setattr(burnkit.spanning, "find_hist", lambda g, limit: fake)
    with pytest.raises(CertificationFailed, match="every level must be a HIT"):
        hist_bound(g)


def test_solvers_leave_no_reference_cycles():
    # a self-calling nested function makes a reference cycle on every call,
    # and only the cyclic collector frees it
    gc.collect()
    gc.disable()
    try:
        burning_number_exact(spider_graph([3, 3, 2]))
        burning_number_exact(petersen_graph())
        find_hist(wheel_graph(8))
        burning_number_via_spanning_trees(grid_graph(3, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()
