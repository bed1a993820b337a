import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

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
from burnkit.errors import (
    Disconnected,
    InvalidSource,
    MalformedPlan,
    TooLarge,
    TooSmall,
)
from burnkit.burning import _rooted_levels, _tree_search_depth
from burnkit.generators import path_graph, petersen_graph, random_tree, spider_graph

from helpers import (
    atlas_connected_graphs,
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


def test_exact_rejects_empty_graph():
    with pytest.raises(TooSmall):
        burning_number_exact(build_graph(0, []))


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


def test_tree_search_matches_reference_dfs():
    # relabelled random trees, every third with a preburn set, at k-1, k
    # and k+1: the tree prover and position-by-position witness give the
    # depth-first search's result, lex-smallest witness or None
    rng = random.Random(41)
    for i in range(1200):
        n = rng.randint(1, 40)
        g = relabel(random_tree_rng(n, rng).graph, rng)
        preburn = ()
        if i % 3 == 0:
            preburn = tuple(sorted(rng.sample(range(n), rng.randint(1, 1 + n // 4))))
        k, witness = burning_number_exact(g, preburn=preburn)
        assert witness.sources == reference_search_depth(g, k, preburn)
        for depth in (k - 1, k + 1):
            if depth >= 1:
                found = _tree_search_depth(g, depth, preburn, [], [], *_rooted_levels(g))
                assert found == reference_search_depth(g, depth, preburn)


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


def test_exact_random_tree_80():
    # witness of the depth-first search, which takes about 20 s on it
    k, witness = burning_number_exact(random_tree(80, 1).graph, limit=80)
    assert (k, witness.sources) == (7, (37, 70, 1, 36, 2, 7, 41))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**20),
    st.randoms(use_true_random=False),
)
def test_exact_tree_burning_number_is_label_free(n, seed, perm_rng):
    g = random_tree(n, seed).graph
    assert burning_number_exact(relabel(g, perm_rng))[0] == burning_number_exact(g)[0]
