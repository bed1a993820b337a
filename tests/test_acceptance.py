"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. All checks are exact; there are no tolerances.
"""

import random

import pytest

from burnkit import (
    BurningSchedule,
    Tree,
    bridge_component,
    build_tree,
    burning_number_exact,
    closed_form_rounds,
    enumerate_spanning_trees,
    find_anchor,
    hit_schedule,
    internal_vertex_count,
    is_complete,
    lift_schedule,
    simulate,
    simulate_modified,
    smooth,
    sqrt_ceil,
    tree_schedule_via_augmentation,
)
from burnkit.bench import bound_competing, bound_leaf_augmentation
from burnkit.generators import path_graph, petersen_graph, random_hit
from helpers import (
    atlas_connected_graphs,
    enumerate_hits,
    eight_vertex_hit,
    naive_burning_number,
    random_connected_graph,
    random_tree_rng,
    subdivide_edge,
)


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_worked_examples():
    ok = burning_number_exact(path_graph(4))[0] == 2
    ok &= burning_number_exact(petersen_graph())[0] == 3
    ok &= burning_number_exact(eight_vertex_hit().graph)[0] == 3
    bm = simulate(path_graph(4), BurningSchedule(sources=(1, 3)))
    ok &= bm.rounds == (2, 1, 2, 2)
    report("1. worked examples: b(P4)=2, b(Petersen)=3, b(HIT)=3", ok)


def test_criterion_2_path_law():
    ok = all(
        burning_number_exact(path_graph(n))[0] == sqrt_ceil(n)
        for n in range(1, 37)
    )
    report("2. path law b(P_n) = ceil(sqrt(n)) for n in [1, 36]", ok)


def test_criterion_3_hit_plans():
    ok = True
    for t in enumerate_hits(16):
        plan = hit_schedule(t)
        ok &= len(plan.schedule) <= sqrt_ceil(t.n)
        ok &= is_complete(plan.burn_map)
        ok &= plan.burn_map.completion <= len(plan.schedule)
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(4, 500)
        if n == 3:
            continue
        t = random_hit(n, seed=rng.randrange(2**31))
        plan = hit_schedule(t)
        ok &= len(plan.schedule) <= sqrt_ceil(t.n)
        ok &= is_complete(plan.burn_map)
    report("3. HIT plans <= ceil(sqrt(n)): exhaustive n<=16 + 500 random", ok)


def test_criterion_4_anchor_soundness():
    rng = random.Random(4)
    ok = True
    for _ in range(1000):
        t = random_tree_rng(rng.randint(6, 300), rng)
        anchor = find_anchor(t)
        tau = 2 * sqrt_ceil(t.n) - 1
        ok &= bridge_component(t, anchor.x, anchor.y).size >= tau
        ok &= all(
            bridge_component(t, v, anchor.x).size < tau
            for v in anchor.neighbors[:-1]
        )
    report("4. anchor side conditions hold on 1000 random trees", ok)


def test_criterion_5_internal_vertex_bound():
    # the |T| = 1 HIT is excluded: its admissible n is 1 and an internal
    # count bound of n - 2 = -1 is unsatisfiable even with 0 internals
    ok = True
    count = 0
    for t in enumerate_hits(23):
        if t.n < 2:
            continue
        n = (t.n + 2) // 2  # tightest n with |T| <= 2n - 1
        ok &= internal_vertex_count(t) <= n - 2
        count += 1
    ok &= count > 40000
    report("5. internal-vertex bound over all HITs with |T| <= 23", ok)


def test_criterion_6_smoothing_lift():
    rng = random.Random(6)
    ok = True
    for _ in range(300):
        base = random_hit(rng.choice([2, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
                          seed=rng.randrange(2**31))
        edge = rng.choice(base.graph.edges())
        t, v = subdivide_edge(base, edge)
        smoothed, idmap = smooth(t, v)
        # lift both an optimal and a constructed complete schedule
        k_opt, witness = burning_number_exact(smoothed.graph)
        for sched in (witness, hit_schedule(smoothed).schedule):
            lifted = lift_schedule(t, v, sched)
            bm = simulate_modified(t.graph, lifted)
            ok &= is_complete(bm) and bm.completion <= len(sched)
        ok &= burning_number_exact(t.graph, preburn=(v,))[0] <= k_opt
    report("6. smoothing lift preserves completeness on 300 instances", ok)


def test_criterion_7_spanning_tree_minimum():
    rng = random.Random(7)
    ok = True
    for _ in range(200):
        g = random_connected_graph(rng.randint(2, 7), rng)
        spanning_min = min(
            burning_number_exact(t.graph)[0]
            for t in enumerate_spanning_trees(g)
        )
        ok &= spanning_min == burning_number_exact(g)[0]
    report("7. b(G) = min spanning-tree b(T) on 200 random graphs", ok)


def test_criterion_8_leaf_augmentation():
    rng = random.Random(8)
    ok = True
    for _ in range(300):
        t = random_tree_rng(rng.randint(1, 100), rng)
        d = sum(1 for v in range(t.n) if t.degree(v) == 2)
        plan = tree_schedule_via_augmentation(t)
        ok &= plan.bound == sqrt_ceil(t.n + d)
        ok &= len(plan.schedule) <= plan.bound
        ok &= is_complete(plan.burn_map)
        ok &= plan.burn_map.completion <= len(plan.schedule)
    # the crossover: for P100 the competing bound wins by exactly one
    ok &= bound_leaf_augmentation(100, 98) == 15
    ok &= bound_competing(100, 98) == 14
    ok &= bound_leaf_augmentation(1, 0) == 1 < bound_competing(1, 0) == 2
    ok &= bound_leaf_augmentation(100, 0) == bound_competing(100, 0) == 10
    report("8. leaf augmentation verifies; bound crossover reproduced", ok)


def test_criterion_9_closed_form_oracle():
    rng = random.Random(9)
    ok = True
    for _ in range(10000):
        g = random_connected_graph(rng.randint(1, 12), rng)
        sources = tuple(
            rng.randrange(g.n) for _ in range(rng.randint(1, 5))
        )
        preburn = tuple(v for v in range(g.n) if rng.random() < 0.15)
        sched = BurningSchedule(preburn=preburn, sources=sources)
        ok &= simulate_modified(g, sched) == closed_form_rounds(g, sched)
    report("9. simulation equals closed form on 10000 random pairs", ok)


def test_criterion_10_solver_equivalence():
    graphs = atlas_connected_graphs(6)
    ok = len(graphs) == 1 + 1 + 2 + 6 + 21 + 112
    for g in graphs:
        ok &= burning_number_exact(g)[0] == naive_burning_number(g)[0]
    report("10. exact solver matches naive enumeration, all n <= 6", ok)
