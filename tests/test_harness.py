import random

import pytest

from burnkit import build_tree, format_edge_list, is_hit, parse_edge_list
from burnkit.bench import (
    BenchRecord,
    bench_instance,
    bound_competing,
    bound_leaf_augmentation,
    records_to_csv,
    run_bench,
    summarize,
)
from burnkit.errors import BadParams, CertificationFailed
from burnkit.generators import (
    _random_word,
    generate,
    path_graph,
    petersen_graph,
    prufer_decode,
    random_hit,
    random_tree,
    spider_graph,
)

from helpers import reference_random_hit


def test_generate_dispatch():
    assert generate("path", {"n": 4}) == path_graph(4)
    assert generate("petersen", {}) == petersen_graph()
    g = generate("random_hit", {"n": 8, "seed": 5})
    assert is_hit(build_tree(g.n, g.edges()))


def test_generate_unknown_family():
    with pytest.raises(BadParams):
        generate("hypercube", {"n": 8})
    with pytest.raises(BadParams):
        generate("path", {})


def test_prufer_decode_known_word():
    # word (3, 3, 3, 4) encodes the caterpillar where 3 holds leaves 0,1,2
    t = prufer_decode([3, 3, 3, 4], 6)
    assert sorted(t.graph.edges()) == [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)]


def test_random_tree_deterministic():
    a = random_tree(30, seed=9)
    b = random_tree(30, seed=9)
    assert a.graph == b.graph
    assert random_tree(30, seed=10).graph != a.graph


def test_random_word_is_randrange():
    # the inlined draw gives randrange's words and leaves the generator in
    # the same state, so random_tree's trees and random_hit's words are
    # randrange's
    for n in range(1, 301):
        for seed in range(4):
            fast, ref = random.Random(seed), random.Random(seed)
            assert _random_word(n, fast) == [ref.randrange(n) for _ in range(n - 2)]
            assert fast.random() == ref.random()


def test_generator_output_byte_deterministic():
    for family, params in [
        ("random_tree", {"n": 25, "seed": 3}),
        ("random_hit", {"n": 25, "seed": 3}),
        ("spider", {"legs": [2, 3, 4]}),
    ]:
        assert format_edge_list(generate(family, params)) == format_edge_list(
            generate(family, params)
        )


def test_random_hit_matches_reference():
    for n in (4, 5, 6, 7, 10, 16, 33, 60, 150):
        for seed in range(4):
            assert random_hit(n, seed) == reference_random_hit(n, seed)


def test_random_hit_keeps_a_word_with_no_singleton():
    kept = 0
    for n in range(4, 9):
        for seed in range(200):
            word = _random_word(n, random.Random(seed))
            if all(word.count(v) != 1 for v in word):
                assert random_hit(n, seed) == prufer_decode(word, n)
                kept += 1
    assert kept >= 20


def test_random_hit_sizes_and_rejects_three():
    for n in range(1, 301):
        if n == 3:
            continue
        for seed in range(3):
            t = random_hit(n, seed)
            assert t.n == n and is_hit(t)
            assert random_hit(n, seed) == t
    t = random_hit(10**5, 1)
    assert t.n == 10**5 and is_hit(t)
    for n in (0, 3, -1):
        with pytest.raises(BadParams):
            random_hit(n, seed=0)


def test_spider_shape():
    g = spider_graph([1, 1, 3])
    assert g.n == 6 and g.degree(0) == 3


def test_round_trip_generated_graphs():
    for family, params in [
        ("path", {"n": 7}),
        ("star", {"n": 9}),
        ("petersen", {}),
        ("random_tree", {"n": 40, "seed": 1}),
    ]:
        g = generate(family, params)
        assert parse_edge_list(format_edge_list(g)) == g


def test_bound_arithmetic_examples():
    assert (bound_leaf_augmentation(1, 0), bound_competing(1, 0)) == (1, 2)
    assert (bound_leaf_augmentation(100, 0), bound_competing(100, 0)) == (10, 10)
    # P100: d = 98 — the competing bound wins by one
    assert (bound_leaf_augmentation(100, 98), bound_competing(100, 98)) == (15, 14)


def test_bench_instance_record():
    record = bench_instance("p9", "path", {"n": 9}, exact_limit=16)
    assert record.n == 9 and record.d == 7
    assert record.bound_cor8 == 4 and record.exact_b == 3
    assert record.plan_len <= record.bound_cor8
    assert record.error == ""


def test_bench_instance_records_solver_error():
    record = bench_instance("pet", "petersen", {}, exact_limit=16)
    # not a tree: an input error, recorded in the row
    assert record.error == "NotATree: tree needs m = n-1, got n=10 m=15"


def test_run_bench_and_csv():
    spec = {
        "families": [
            {"family": "path", "sizes": [4, 9, 16]},
            {"family": "random_tree", "sizes": [10]},
            {"family": "random_hit", "sizes": [10]},
        ],
        "seeds": [0, 1],
        "exact_limit": 16,
    }
    records = run_bench(spec)
    assert len(records) == 3 + 2 + 2
    csv_text = records_to_csv(records)
    assert csv_text.splitlines()[0].startswith("instance_id,family,n,d")
    assert len(csv_text.splitlines()) == len(records) + 1
    summary = summarize(records)
    assert summary.startswith("n\t")


def test_bench_hit_rows_get_hit_bound():
    record = bench_instance("h10", "random_hit", {"n": 10, "seed": 2})
    assert record.d == 0 and record.bound_hit == record.bound_cor8


def test_bench_invariant_violation_is_a_certification_failure():
    record = bench_instance("p9", "path", {"n": 9}, exact_limit=16)
    over = BenchRecord(**{**vars(record), "plan_len": record.bound_cor8 + 1})
    with pytest.raises(CertificationFailed, match="exceeds bound"):
        over.check_invariants()
    under = BenchRecord(**{**vars(record), "exact_b": record.plan_len + 1})
    with pytest.raises(CertificationFailed, match="exceeds plan length"):
        under.check_invariants()
