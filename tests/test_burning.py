import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import burnkit
import burnkit.burning
from burnkit import (
    BurningSchedule,
    build_graph,
    build_tree,
    burning_number_exact,
    closed_form_rounds,
    is_complete,
    schedule_from_json_dict,
    simulate,
    simulate_modified,
    smooth,
    sqrt_ceil,
)
from burnkit.cli import main
from burnkit.errors import (
    CertificationFailed,
    Disconnected,
    InvalidSource,
    MalformedPlan,
    TooLarge,
    TooSmall,
)
from burnkit.burning import (
    _balls_by_radius,
    _deepest_first,
    _maximal_parts,
    _packing,
    _search_depth,
)
from burnkit.generators import path_graph, petersen_graph, random_tree, spider_graph
from burnkit.graph import Graph, format_edge_list

from helpers import (
    atlas_connected_graphs,
    grid_graph,
    min_ball_cover,
    naive_burning_number,
    naive_modified_burning_number,
    random_connected_graph,
    random_tree_rng,
    reference_search_depth,
    relabel,
    subdivide_edge,
)


def test_simulate_p4_two_sources():
    bm = simulate(path_graph(4), BurningSchedule(sources=(1, 3)))
    assert bm.rounds == (2, 1, 2, 2)
    assert bm.completion == 2


def test_simulate_k1():
    bm = simulate(build_graph(1, []), BurningSchedule(sources=(0,)))
    assert bm.rounds == (1,) and bm.completion == 1


def test_simulate_petersen_single_source():
    # one source plus two repeat rounds burns everything by round 3
    bm = simulate(petersen_graph(), BurningSchedule(sources=(0, 0, 0)))
    assert is_complete(bm) and bm.completion == 3


def test_simulate_rejects_bad_source():
    with pytest.raises(InvalidSource):
        simulate(path_graph(3), BurningSchedule(sources=(3,)))


def test_simulate_modified_p3():
    bm = simulate_modified(
        path_graph(3), BurningSchedule(preburn=(1,), sources=(0,))
    )
    assert bm.rounds == (1, 1, None)
    bm = simulate_modified(
        path_graph(3), BurningSchedule(preburn=(1,), sources=(0, 0))
    )
    assert bm.rounds == (1, 1, 2) and bm.completion == 2


def test_simulate_modified_empty_preburn_degenerates():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng.randint(1, 12), rng)
        sources = tuple(rng.randrange(g.n) for _ in range(rng.randint(1, 4)))
        plain = simulate(g, BurningSchedule(sources=sources))
        modified = simulate_modified(
            g, BurningSchedule(preburn=(), sources=sources)
        )
        assert plain == modified


def test_simulate_modified_preburned_center():
    # 3-vertex path with its center preburned
    t = build_tree(3, [(0, 1), (1, 2)])
    bm = simulate_modified(t.graph, BurningSchedule(preburn=(1,), sources=(0, 0)))
    assert is_complete(bm) and bm.completion == 2


def test_is_complete():
    p4 = path_graph(4)
    assert is_complete(simulate(p4, BurningSchedule(sources=(1, 3))))
    assert not is_complete(simulate(p4, BurningSchedule(sources=(0,))))


@st.composite
def graph_and_schedule(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    g = random_connected_graph(n, rng)
    k = draw(st.integers(min_value=1, max_value=6))
    sources = tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(k))
    preburn = tuple(
        v for v in range(n) if draw(st.booleans()) and draw(st.booleans())
    )
    return g, BurningSchedule(preburn=preburn, sources=sources)


@settings(max_examples=300, deadline=None)
@given(graph_and_schedule())
def test_simulation_matches_closed_form(case):
    g, sched = case
    assert simulate_modified(g, sched) == closed_form_rounds(g, sched)


@settings(max_examples=200, deadline=None)
@given(graph_and_schedule(), st.integers(min_value=0, max_value=13))
def test_appending_source_never_delays(case, extra):
    g, sched = case
    before = simulate_modified(g, sched).rounds
    longer = BurningSchedule(
        preburn=sched.preburn, sources=sched.sources + (extra % g.n,)
    )
    after = simulate_modified(g, longer).rounds
    for b, a in zip(before, after):
        assert b is None or (a is not None and a <= b)


def test_exact_known_values():
    assert burning_number_exact(path_graph(4))[0] == 2
    assert burning_number_exact(petersen_graph())[0] == 3
    assert burning_number_exact(path_graph(9))[0] == 3
    assert burning_number_exact(build_graph(1, []))[0] == 1


def test_exact_path_law_small():
    for n in range(1, 17):
        assert burning_number_exact(path_graph(n))[0] == sqrt_ceil(n)


def test_exact_witness_is_lexicographically_first():
    k, witness = burning_number_exact(petersen_graph())
    assert witness.sources == (0, 0, 0)


def test_exact_rejects_limits():
    with pytest.raises(TooLarge):
        burning_number_exact(path_graph(10), limit=9)
    with pytest.raises(Disconnected):
        burning_number_exact(build_graph(2, []))


def test_exact_runs_no_separate_connectivity_search(monkeypatch):
    # connectivity comes from the numbering BFS: no distance search runs,
    # and the limits are still checked before it
    searches = []
    real = Graph.distances_from

    def counted(g, source):
        searches.append(source)
        return real(g, source)

    monkeypatch.setattr(Graph, "distances_from", counted)
    assert burning_number_exact(petersen_graph())[0] == 3
    with pytest.raises(Disconnected):
        burning_number_exact(build_graph(3, [(1, 2)]))
    with pytest.raises(TooLarge):
        burning_number_exact(build_graph(3, [(1, 2)]), limit=2)
    with pytest.raises(InvalidSource):
        burning_number_exact(build_graph(3, [(1, 2)]), preburn=(3,))
    assert searches == []


def test_exact_rejects_empty_graph():
    with pytest.raises(TooSmall):
        burning_number_exact(build_graph(0, []))


# The solver's own checks, each made to fire by a double of a burnkit.burning
# function: a prover that accepts only the empty covered set, so the decision
# at k = 1 passes and no source does, and a simulation that burns nothing.
SOLVER_CHECK_DOUBLES = {
    "a feasible state must admit a next source": (
        "_feasible",
        "def double(covered, free, cap, state):\n    return covered == 0\n",
    ),
    "exact witness must burn the graph within k rounds": (
        "simulate_modified",
        "from burnkit import BurnMap\n"
        "def double(g, m):\n"
        "    return BurnMap((None,) * g.n)\n",
    ),
}


@pytest.mark.parametrize("message", sorted(SOLVER_CHECK_DOUBLES))
def test_solver_check_fires(message, monkeypatch, capsys, tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(format_edge_list(path_graph(4)))
    name, code = SOLVER_CHECK_DOUBLES[message]
    namespace = {}
    exec(code, namespace)
    monkeypatch.setattr(burnkit.burning, name, namespace["double"])
    with pytest.raises(CertificationFailed, match=message):
        burning_number_exact(path_graph(4))
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("message", sorted(SOLVER_CHECK_DOUBLES))
def test_solver_check_fires_under_python_o(message, tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(format_edge_list(path_graph(4)))
    name, double = SOLVER_CHECK_DOUBLES[message]
    code = (
        "import sys\n"
        "import burnkit.burning\n"
        "from burnkit.cli import main\n"
        "from burnkit.errors import CertificationFailed\n"
        "from burnkit.generators import path_graph\n"
        "assert False, 'asserts are on'\n"
        + double
        + f"burnkit.burning.{name} = double\n"
        "try:\n"
        "    burnkit.burning.burning_number_exact(path_graph(4))\n"
        "except CertificationFailed as exc:\n"
        "    print(exc)\n"
        f"sys.exit(main(['solve', {str(path)!r}]))\n"
    )
    src = str(Path(burnkit.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert result.stdout == f"{message}\n"
    assert result.stderr == f"error: {message}\n"


def test_exact_preburn_p3_center():
    k, witness = burning_number_exact(path_graph(3), preburn=(1,))
    assert k == 2


def test_exact_empty_preburn_equals_standard():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng.randint(1, 9), rng)
        k1, w1 = burning_number_exact(g)
        k2, w2 = burning_number_exact(g, preburn=())
        assert k1 == k2 and w1.sources == w2.sources


def test_exact_preburned_k2_endpoint():
    # sources range over all vertices, so (1) finishes K2 in one round
    k, witness = burning_number_exact(build_graph(2, [(0, 1)]), preburn=(0,))
    assert k == 1 and witness.sources == (1,)


def test_smoothing_lift_inequality_random():
    # b^{v}(T) <= b(T') for trees with exactly one degree-2 vertex
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        t = random_tree_rng(rng.randint(4, 13), rng)
        deg2 = [v for v in range(t.n) if t.degree(v) == 2]
        if len(deg2) != 1:
            continue
        v = deg2[0]
        smoothed, _ = smooth(t, v)
        k_mod = burning_number_exact(t.graph, preburn=(v,))[0]
        k_smooth = burning_number_exact(smoothed.graph)[0]
        assert k_mod <= k_smooth
        checked += 1


def test_exact_matches_naive_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng.randint(1, 7), rng)
        assert burning_number_exact(g)[0] == naive_burning_number(g)[0]


def test_exact_matches_naive_on_atlas_n5():
    for g in atlas_connected_graphs(5):
        assert burning_number_exact(g)[0] == naive_burning_number(g)[0]


def test_schedule_json_round_trip():
    plain = BurningSchedule(sources=(1, 3))
    assert schedule_from_json_dict(plain.to_json_dict()) == plain
    mod = BurningSchedule(preburn=(2,), sources=(0, 1))
    assert schedule_from_json_dict(mod.to_json_dict()) == mod
    assert schedule_from_json_dict({"sources": [0]}) == BurningSchedule(sources=(0,))


def test_schedule_json_has_preburn_only_when_set():
    assert BurningSchedule(sources=(1, 3)).to_json_dict() == {"sources": [1, 3]}
    mod = BurningSchedule(sources=(0,), preburn=(2, 1, 2))
    assert mod.to_json_dict() == {"sources": [0], "preburn": [1, 2]}


@pytest.mark.parametrize(
    "payload",
    [
        {"srcs": [1]},
        {"sources": ["a"]},
        {"sources": [True, 3]},
        {"sources": 1},
        {"sources": [1], "preburn": [0.5]},
        [1, 3],
    ],
)
def test_schedule_json_rejects_malformed(payload):
    with pytest.raises(MalformedPlan):
        schedule_from_json_dict(payload)


def test_burn_map_json_uses_zero_for_unburned():
    bm = simulate(path_graph(4), BurningSchedule(sources=(0,)))
    d = bm.to_json_dict()
    assert d["rounds"] == [1, 0, 0, 0] and d["completion"] == 0


def test_search_matches_reference_dfs():
    # relabelled random trees (n <= 40) and graphs with cycles (n <= 22),
    # every third with a preburn set, at k-1, k and k+1: the prover and
    # position-by-position witness give the depth-first search's result,
    # lex-smallest witness or None
    rng = random.Random(41)
    for i in range(1500):
        if i % 5 < 4:
            n = rng.randint(1, 40)
            g = relabel(random_tree_rng(n, rng).graph, rng)
        else:
            n = rng.randint(1, 22)
            g = relabel(random_connected_graph(n, rng), rng)
        preburn = ()
        if i % 3 == 0:
            preburn = tuple(sorted(rng.sample(range(n), rng.randint(1, 1 + n // 4))))
        k, witness = burning_number_exact(g, preburn=preburn)
        assert witness.sources == reference_search_depth(g, k, preburn)
        for depth in (k - 1, k + 1):
            if depth >= 1:
                found = _search_depth(depth, preburn, [], [], *_deepest_first(g))
                assert found == reference_search_depth(g, depth, preburn)


def test_maximal_parts_keep_only_uncontained_sets():
    # a triangle 0-1-2 with pendant 3 on 0: B(0, 1) contains the other balls
    # of radius 1 around vertex 1; on the 5-cycle no ball contains another
    triangle = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    cycle = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    balls, maxcov = [], []
    _balls_by_radius(triangle.adj, 1, balls, maxcov)
    assert _maximal_parts(balls[1], 1, 0b1111) == [0b1111]
    assert _maximal_parts(balls[1], 1, 0b0110) == [0b0110]
    balls, maxcov = [], []
    _balls_by_radius(cycle.adj, 1, balls, maxcov)
    # equal sizes in ascending bitmask order, whatever the set's iteration
    # order
    assert _maximal_parts(balls[1], 0, 0b11111) == [0b00111, 0b10011, 0b11001]


def test_maximal_parts_order_is_fixed():
    # random graphs with cycles, relabelled, and random uncovered sets: the
    # parts are those no other part contains, largest first, ties in
    # ascending bitmask order
    rng = random.Random(27)
    for _ in range(200):
        g = relabel(random_connected_graph(rng.randint(3, 12), rng), rng)
        balls = []
        _balls_by_radius(g.adj, 2, balls, [])
        for radius in (1, 2):
            layer = balls[radius]
            u = rng.randrange(g.n)
            unc = rng.getrandbits(g.n) | 1 << u
            parts = {layer[c] & unc for c in range(g.n) if layer[u] >> c & 1}
            kept = [p for p in parts if not any(p & q == p != q for q in parts)]
            expected = sorted(kept, key=lambda p: (-p.bit_count(), p))
            assert _maximal_parts(layer, u, unc) == expected


def test_top_bit_is_the_deepest_lowest_id_vertex():
    # relabelled trees and graphs with cycles: in _deepest_first's numbering
    # the top bit of any subset is its deepest vertex (BFS from 0), lowest
    # input id among equals; adjacency, parents and balls are the input's,
    # relabelled
    rng = random.Random(28)
    for i in range(300):
        if i % 2:
            g = relabel(random_tree_rng(rng.randint(1, 40), rng).graph, rng)
        else:
            g = relabel(random_connected_graph(rng.randint(1, 16), rng), rng)
        pos, adj, ancestors = _deepest_first(g)
        dist = g.distances_from(0)
        order = sorted(range(g.n), key=pos.__getitem__)
        assert sorted(pos) == list(range(g.n))
        assert tuple(tuple(order[q] for q in adj[pos[v]]) for v in range(g.n)) == g.adj
        balls = []
        _balls_by_radius(adj, 2, balls, [])
        for v in range(g.n):
            far = g.distances_from(v)
            for r, layer in enumerate(balls):
                ball = sum(1 << pos[w] for w in range(g.n) if far[w] <= r)
                assert layer[pos[v]] == ball
        assert (ancestors is not None) == (g.m == g.n - 1)
        if ancestors is not None:
            assert ancestors[0] == list(range(g.n))
            for v in range(1, g.n):
                parent = order[ancestors[1][pos[v]]]
                assert g.has_edge(v, parent) and dist[parent] == dist[v] - 1
            assert ancestors[1][pos[0]] == pos[0] == 0
        for _ in range(10):
            subset = rng.sample(range(g.n), rng.randint(1, g.n))
            mask = sum(1 << pos[v] for v in subset)
            deepest = min(subset, key=lambda v: (-dist[v], v))
            assert order[mask.bit_length() - 1] == deepest


def _packing_tables(g, radius):
    """_deepest_first(g)'s positions and ancestors, grown to radius on a
    tree, and ball layers to radius 2*radius, both by position and by
    input id."""
    pos, adj, ancestors = _deepest_first(g)
    while ancestors is not None and len(ancestors) <= radius:
        ancestors.append([ancestors[1][a] for a in ancestors[-1]])
    balls, input_balls = [], []
    _balls_by_radius(adj, 2 * radius, balls, [])
    _balls_by_radius(g.adj, 2 * radius, input_balls, [])
    return pos, ancestors, balls, input_balls


def _random_packing(g, radius, rng):
    """_packing's picks on a random target set of input ids, both mapped
    back to input ids, and the input-id ball layers."""
    pos, ancestors, balls, input_balls = _packing_tables(g, radius)
    target = rng.getrandbits(g.n)
    by_pos = sum(1 << pos[v] for v in range(g.n) if target >> v & 1)
    picked = _packing(by_pos, radius, g.n, ancestors, balls)
    picks = sum(1 << v for v in range(g.n) if picked >> pos[v] & 1)
    return picks, target, input_balls


def _check_picks(picks, target, far):
    # picks lie in target, and no two are within distance 2R: far is the
    # radius-2R ball layer
    assert picks & target == picks
    rest = picks
    while rest:
        low = rest & -rest
        assert far[low.bit_length() - 1] & picks == low
        rest ^= low


def test_packing_is_the_minimum_cover_on_trees():
    # every tree up to 9 vertices, also relabelled, every radius: the
    # greedy's picks number exactly the fewest radius-R balls covering a
    # random target set (Slater; Meir and Moon), counted on the input ids
    rng = random.Random(25)
    trees = [build_graph(1, [])]
    for n in range(2, 10):
        trees += [build_graph(n, list(t.edges())) for t in nx.nonisomorphic_trees(n)]
    for g in trees:
        for h in (g, relabel(g, rng)):
            for radius in range(h.n):
                for _ in range(3):
                    picks, target, balls = _random_packing(h, radius, rng)
                    assert picks.bit_count() == min_ball_cover(balls[radius], target)
                    _check_picks(picks, target, balls[2 * radius])


def test_packing_bounds_the_minimum_cover_with_cycles():
    # random graphs with cycles (n <= 12): the picks are a 2R-packing of the
    # target, so they never outnumber the fewest radius-R balls covering it
    rng = random.Random(26)
    for _ in range(120):
        g = relabel(random_connected_graph(rng.randint(3, 12), rng), rng)
        if g.m == g.n - 1:
            continue
        for radius in range(g.n):
            for _ in range(2):
                picks, target, balls = _random_packing(g, radius, rng)
                assert picks.bit_count() <= min_ball_cover(balls[radius], target)
                _check_picks(picks, target, balls[2 * radius])


def test_exact_pinned_larger_instances():
    # the witnesses the solver gave before the packing bound, which took
    # about 3 s together then, and random_tree(300, 0)'s from the solver that
    # scanned BFS levels for the deepest uncovered vertex
    pinned = [
        (random_tree(200, 0).graph, (9, (0, 85, 56, 47, 1, 70, 35, 68, 97))),
        (random_tree(200, 1).graph, (10, (0, 7, 4, 131, 109, 105, 22, 35, 142, 79))),
        (random_tree(200, 2).graph, (10, (0, 159, 190, 6, 34, 194, 46, 147, 55, 75))),
        (grid_graph(8, 8), (6, (0, 4, 50, 39, 62, 45))),
        (grid_graph(10, 10), (6, (13, 68, 70, 94, 9, 29))),
        (
            random_tree(300, 0).graph,
            (11, (0, 31, 198, 23, 161, 81, 138, 189, 267, 252, 146)),
        ),
    ]
    for g, (b, sources) in pinned:
        k, witness = burning_number_exact(g, limit=300)
        assert (k, witness.sources) == (b, sources)


def test_tree_witness_matches_naive_on_all_small_trees():
    rng = random.Random(8)
    trees = [build_graph(1, [])]
    for n in range(2, 9):
        trees += [build_graph(n, list(t.edges())) for t in nx.nonisomorphic_trees(n)]
    for g in trees:
        for h in (g, relabel(g, rng)):
            k, witness = burning_number_exact(h)
            assert (k, witness.sources) == naive_burning_number(h)
            preburn = tuple(sorted(rng.sample(range(h.n), rng.randint(1, h.n))))
            k, witness = burning_number_exact(h, preburn=preburn)
            assert (k, witness.sources) == naive_modified_burning_number(h, preburn)


@pytest.mark.parametrize("legs", [[5] * 10, [7] * 9])
def test_exact_relabelled_spiders(legs):
    # the depth-first search took seconds (10 legs of 5) and over 20 s
    # (9 legs of 7) on some relabellings; only the hub's ball of radius
    # k-1 covers the spider, so the witness is the hub, then zeros
    for seed in range(3):
        g = relabel(spider_graph(legs), random.Random(seed))
        hub = max(range(g.n), key=g.degree)
        k, witness = burning_number_exact(g)
        assert k == legs[0] + 1
        assert witness.sources == (hub,) + (0,) * legs[0]


@pytest.mark.parametrize("seed, hub", [(0, 29), (1, 2), (2, 15)])
def test_exact_relabelled_one_cycle_spiders(seed, hub):
    # a spider plus one edge: the depth-first search took 0.9 s to 24 s on
    # these relabellings, and the witnesses are its results
    rng = random.Random(seed)
    spider = spider_graph([5] * 10)
    extra = tuple(sorted(rng.sample(range(spider.n), 2)))
    g = relabel(build_graph(spider.n, spider.edges() + [extra]), rng)
    start = time.perf_counter()
    k, witness = burning_number_exact(g)
    assert time.perf_counter() - start < 1.0
    assert (k, witness.sources) == (6, (hub, 0, 0, 0, 0, 0))


def test_exact_random_tree_80():
    # witness of the depth-first search, which takes about 20 s on it
    k, witness = burning_number_exact(random_tree(80, 1).graph, limit=80)
    assert (k, witness.sources) == (7, (37, 70, 1, 36, 2, 7, 41))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**20),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_exact_burning_number_is_label_free(n, seed, cycles, perm_rng):
    # a random tree (n <= 30), or a random graph with cycles (n <= 20)
    if cycles:
        g = random_connected_graph(min(n, 20), random.Random(seed))
    else:
        g = random_tree(n, seed).graph
    assert burning_number_exact(relabel(g, perm_rng))[0] == burning_number_exact(g)[0]
