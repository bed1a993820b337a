import random

import pytest
from hypothesis import given, settings, strategies as st

from burnkit import (
    BurningSchedule,
    ModifiedSchedule,
    build_graph,
    build_tree,
    burning_number_exact,
    closed_form_rounds,
    is_complete,
    modified_burning_number_exact,
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
from burnkit.generators import path_graph, petersen_graph

from helpers import (
    atlas_connected_graphs,
    naive_burning_number,
    random_connected_graph,
    random_tree_rng,
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
        path_graph(3), ModifiedSchedule(preburn=(1,), sources=(0,))
    )
    assert bm.rounds == (1, 1, None)
    bm = simulate_modified(
        path_graph(3), ModifiedSchedule(preburn=(1,), sources=(0, 0))
    )
    assert bm.rounds == (1, 1, 2) and bm.completion == 2


def test_simulate_modified_empty_preburn_degenerates():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng.randint(1, 12), rng)
        sources = tuple(rng.randrange(g.n) for _ in range(rng.randint(1, 4)))
        plain = simulate(g, BurningSchedule(sources=sources))
        modified = simulate_modified(
            g, ModifiedSchedule(preburn=(), sources=sources)
        )
        assert plain == modified


def test_simulate_modified_preburned_center():
    # 3-vertex path with its center preburned
    t = build_tree(3, [(0, 1), (1, 2)])
    bm = simulate_modified(t.graph, ModifiedSchedule(preburn=(1,), sources=(0, 0)))
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
    return g, ModifiedSchedule(preburn=preburn, sources=sources)


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
    longer = ModifiedSchedule(
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


def test_modified_exact_p3_center():
    k, witness = modified_burning_number_exact(path_graph(3), (1,))
    assert k == 2


def test_modified_exact_empty_preburn_equals_standard():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng.randint(1, 9), rng)
        k1, w1 = burning_number_exact(g)
        k2, w2 = modified_burning_number_exact(g, ())
        assert k1 == k2 and w1.sources == w2.sources


def test_modified_exact_k2_preburned_endpoint():
    # sources range over all vertices, so (1) finishes K2 in one round
    k, witness = modified_burning_number_exact(build_graph(2, [(0, 1)]), (0,))
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
        k_mod = modified_burning_number_exact(t.graph, (v,))[0]
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
    mod = ModifiedSchedule(preburn=(2,), sources=(0, 1))
    assert schedule_from_json_dict(mod.to_json_dict()) == mod
    assert schedule_from_json_dict({"sources": [0]}) == BurningSchedule(sources=(0,))


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
