import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import burnkit
import burnkit.bench
import burnkit.cli
from burnkit import (
    BurningSchedule,
    build_graph,
    build_tree,
    is_complete,
    is_hit,
    matrix_tree_count,
    parse_edge_list,
    simulate,
)
from burnkit.cli import _build_parser, main
from burnkit.errors import CertificationFailed
from burnkit.graph import MAX_VERTICES, format_edge_list
from burnkit.generators import path_graph, petersen_graph, random_hit

from helpers import EIGHT_VERTEX_HIT_EDGES, wheel_graph


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(format_edge_list(path_graph(4)))
    return str(path)


@pytest.fixture
def hit8_file(tmp_path):
    lines = ["8 7"] + [f"{u} {v}" for u, v in EIGHT_VERTEX_HIT_EDGES]
    path = tmp_path / "hit8.el"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_burn(capsys, p4_file):
    code, out = run(capsys, "burn", p4_file, "--sources", "1,3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"rounds": [2, 1, 2, 2], "completion": 2}


def test_burn_with_preburn(capsys, p4_file):
    code, out = run(capsys, "burn", p4_file, "--sources", "0,0", "--preburn", "3")
    assert code == 0
    assert json.loads(out)["rounds"] == [1, 2, 2, 1]


def test_solve(capsys, p4_file):
    code, out = run(capsys, "solve", p4_file)
    assert code == 0
    assert json.loads(out) == {"k": 2, "sources": [1, 3]}


def test_solve_limit_gate(capsys, p4_file):
    code, _ = run(capsys, "solve", p4_file, "--limit-exact", "3")
    assert code == 2


def test_hit_plan(capsys, hit8_file):
    code, out = run(capsys, "hit-plan", hit8_file)
    assert code == 0
    plan = json.loads(out)
    assert plan["bound"] == 3 and plan["completion"] <= 3


def test_hit_plan_rejects_path(capsys, p4_file):
    code, _ = run(capsys, "hit-plan", p4_file)
    assert code == 2


def test_tree_plan(capsys, p4_file):
    code, out = run(capsys, "tree-plan", p4_file)
    assert code == 0
    plan = json.loads(out)
    assert plan["bound"] == 3 and plan["completion"] <= plan["bound"]


def test_hist_found_and_not(capsys, tmp_path):
    pet = tmp_path / "pet.el"
    pet.write_text(format_edge_list(petersen_graph()))
    code, out = run(capsys, "hist", str(pet))
    assert code == 0 and out.startswith("10 9\n")
    c4 = tmp_path / "c4.el"
    c4.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out = run(capsys, "hist", str(c4))
    assert code == 0 and out.strip() == "no HIST"


def test_hist_on_a_large_hit_prints_it(capsys, tmp_path):
    # the search decides one edge per level, 1,199 levels deep here
    text = format_edge_list(random_hit(1200, 0).graph)
    path = tmp_path / "hit.el"
    path.write_text(text)
    code, out = run(capsys, "hist", str(path), "--limit", "3000")
    assert code == 0 and out == text


def test_spanning_min(capsys, p4_file):
    code, out = run(capsys, "spanning-min", p4_file)
    assert code == 0
    assert json.loads(out)["k"] == 2


def test_spanning_min_wheel_12(capsys, tmp_path):
    # 103,680 spanning trees; the search stops at the first tree that burns
    # in b(wheel) = 2 rounds
    rim = 12
    wheel = wheel_graph(rim)
    path = tmp_path / "w12.el"
    path.write_text(format_edge_list(wheel))
    code, out = run(capsys, "spanning-min", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2 and len(payload["sources"]) == 2
    tree_edges = [tuple(e) for e in payload["tree_edges"]]
    assert len(tree_edges) == rim and all(wheel.has_edge(u, v) for u, v in tree_edges)
    tree = build_graph(rim + 1, tree_edges)
    assert is_complete(simulate(tree, BurningSchedule(tuple(payload["sources"]))))


def test_spanning_min_on_a_large_path_is_an_input_error(capsys, tmp_path):
    # n=1100 is above the exact solver's limit; the size gate must come
    # before any spanning tree is enumerated
    path = tmp_path / "p1100.el"
    path.write_text(format_edge_list(path_graph(1100)))
    code = main(["spanning-min", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: n=1100 exceeds exact-solver limit 64\n"


def test_spanning_min_answers_past_a_million_trees(capsys, tmp_path):
    # the bound counts the trees tested, and the first tree of this wheel
    # burns in b = 2 rounds
    wheel = wheel_graph(15)
    assert matrix_tree_count(wheel) > 10**6
    path = tmp_path / "w15.el"
    path.write_text(format_edge_list(wheel))
    code, out = run(capsys, "spanning-min", str(path))
    assert code == 0 and json.loads(out)["k"] == 2


def test_spanning_min_has_no_tree_limit_option(capsys, p4_file):
    with pytest.raises(SystemExit) as exc:
        main(["spanning-min", p4_file, "--limit-trees", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --limit-trees 5" in capsys.readouterr().err


def test_gen_rejects_graphs_above_the_vertex_cap(capsys, tmp_path):
    over = str(MAX_VERTICES + 1)
    for argv in (
        ["path", "-n", over],
        ["star", "-n", over],
        ["random_tree", "-n", over, "--seed", "1"],
        ["random_hit", "-n", over, "--seed", "1"],
        ["spider", "--legs", f"{MAX_VERTICES - 2},1,1"],
    ):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: {over} vertices exceed the cap {MAX_VERTICES}\n"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"family": "path", "sizes": [int(over)]}]}))
    code = main(["bench", str(spec)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_empty_graph_is_an_input_error(capsys, tmp_path):
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    for command in ("solve", "spanning-min", "hist"):
        code = main([command, str(empty)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_parser_is_built_lazily():
    src = str(Path(burnkit.__file__).resolve().parent.parent)
    code = "import burnkit.cli as c; print(c._build_parser.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.stdout == "0\n", result.stderr


def test_reused_parser_matches_a_fresh_one(capsys, p4_file):
    assert _build_parser() is _build_parser()
    code, out = run(capsys, "solve", p4_file)
    assert code == 0 and json.loads(out) == {"k": 2, "sources": [1, 3]}
    code, out = run(capsys, "gen", "path", "-n", "3")
    assert code == 0 and out == "3 2\n0 1\n1 2\n"
    with pytest.raises(SystemExit) as reused:
        main(["solve"])
    reused_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        _build_parser.__wrapped__().parse_args(["solve"])
    fresh_err = capsys.readouterr().err
    assert reused.value.code == fresh.value.code == 2
    assert reused_err == fresh_err
    assert "the following arguments are required: graph" in reused_err


def test_gen_and_env_seed(capsys, monkeypatch):
    # --seed is the one way to seed a random family; the environment is not read
    monkeypatch.setenv("BURNKIT_SEED", "4")
    code = main(["gen", "random_tree", "-n", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: family 'random_tree' missing parameter 'seed'\n"
    code, out = run(capsys, "gen", "random_tree", "-n", "5", "--seed", "4")
    assert code == 0 and parse_edge_list(out).n == 5


def test_gen_path(capsys):
    code, out = run(capsys, "gen", "path", "-n", "4")
    assert code == 0
    assert out == "4 3\n0 1\n1 2\n2 3\n"


def test_gen_random_hit_at_scale(tmp_path):
    out = tmp_path / "hit.el"
    code = main(["gen", "random_hit", "-n", "100000", "--seed", "1", "-o", str(out)])
    g = parse_edge_list(out.read_text())
    assert code == 0 and g.n == 100000 and is_hit(build_tree(g.n, g.edges()))


def test_verify_pass_and_fail(capsys, tmp_path, p4_file):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"sources": [1, 3]}))
    code, out = run(capsys, "verify", p4_file, str(good))
    assert code == 0 and json.loads(out)["valid"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sources": [0]}))
    code, out = run(capsys, "verify", p4_file, str(bad))
    assert code == 1 and not json.loads(out)["valid"]

    over_bound = tmp_path / "over.json"
    over_bound.write_text(json.dumps({"sources": [1, 3], "bound": 1}))
    code, _ = run(capsys, "verify", p4_file, str(over_bound))
    assert code == 1


@pytest.mark.parametrize(
    "plan",
    [
        {"srcs": [1]},
        {"sources": ["a"]},
        {"sources": [1, 3], "bound": "x"},
        {"sources": [True, 3]},
    ],
)
def test_verify_rejects_malformed_plan(capsys, tmp_path, p4_file, plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main(["verify", p4_file, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_input_errors_exit_two(capsys, tmp_path):
    code, _ = run(capsys, "solve", str(tmp_path / "missing.el"))
    assert code == 2
    junk = tmp_path / "junk.el"
    junk.write_text("not a graph\n")
    code, _ = run(capsys, "solve", str(junk))
    assert code == 2


def test_bench_command(capsys, tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(
        json.dumps(
            {
                "families": [{"family": "path", "sizes": [4, 9]}],
                "exact_limit": 16,
            }
        )
    )
    out_csv = tmp_path / "bench.csv"
    code, out = run(capsys, "bench", str(spec), "-o", str(out_csv))
    assert code == 0
    assert out_csv.read_text().startswith("instance_id,")
    assert out.startswith("n\t")


@pytest.mark.parametrize(
    "spec",
    [
        {"instances": "x"},
        [],
        {"families": [{"family": "path", "sizes": "x"}]},
        {"families": "path"},
        {"families": [{"family": "path", "sizes": [True]}]},
        {"families": [{"family": "path", "params": [4]}]},
        {"families": [{"sizes": [4]}]},
        {"families": [], "seeds": "0"},
        {"families": [], "exact_limit": "16"},
        {"families": [{"family": "spider", "params": {"legs": 5}}]},
        {"families": [{"family": "path", "params": {"n": [4]}}]},
    ],
)
def test_bench_rejects_malformed_spec(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["bench", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, p4_file, command):
    # nested deeper than json.load can recurse
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["verify", p4_file, str(path)] if command == "verify" else ["bench", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_bench_limit_flag_overrides_spec(capsys, tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({"families": [{"family": "path", "sizes": [9]}]}))
    code, out = run(capsys, "bench", str(spec), "--limit-exact", "8")
    assert code == 0 and out.splitlines()[1].split(",")[4] == ""
    code, out = run(capsys, "bench", str(spec), "--limit-exact", "9")
    assert code == 0 and out.splitlines()[1].split(",")[4] == "3"


def test_internal_failure_exits_three(capsys, monkeypatch, hit8_file):
    def broken(tree):
        raise CertificationFailed("construction must burn the whole tree")

    monkeypatch.setattr(burnkit.cli, "hit_schedule", broken)
    code = main(["hit-plan", hit8_file])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: construction must burn the whole tree\n"


def test_crash_exits_three_with_traceback(capsys, monkeypatch, hit8_file):
    # a ValueError inside a command is a crash too, not an input error
    for error in (TypeError, ValueError):

        def crashing(tree):
            raise error("unsupported operand")

        monkeypatch.setattr(burnkit.cli, "hit_schedule", crashing)
        code = main(["hit-plan", hit8_file])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.endswith(
            f"internal error: {error.__name__}: unsupported operand\n"
        )


def test_internal_failure_in_bench_exits_three(capsys, monkeypatch, tmp_path):
    def broken(tree):
        raise CertificationFailed("construction must burn the whole tree")

    monkeypatch.setattr(burnkit.bench, "tree_schedule_via_augmentation", broken)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"family": "path", "sizes": [9]}]}))
    code = main(["bench", str(spec)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: construction must burn the whole tree\n"


def test_non_utf8_input_is_an_input_error(capsys, tmp_path, p4_file):
    latin1 = tmp_path / "latin1"
    latin1.write_bytes(b"4 3\n0 1\n1 2\n2 3\n# caf\xe9\n")
    for argv, what in (
        (["solve", str(latin1)], "edge list is not UTF-8 text"),
        (["verify", p4_file, str(latin1)], "plan is not JSON"),
        (["bench", str(latin1)], "spec is not JSON"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith(f"error: {what}: 'utf-8' codec can't decode")


@st.composite
def edge_list_texts(draw):
    """Edge lists on at most 10 vertices: trees, and trees with one fault
    (extra edges, a missing edge, a wrong count, an out-of-range id), or
    junk text."""
    fault = draw(st.sampled_from(["", "", "", "extra", "drop", "count", "range", "junk"]))
    if fault == "junk":
        return draw(st.text(alphabet="0123456789 -\nx.", max_size=30))
    n = draw(st.integers(0, 10))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if fault == "extra" and n:
        edges += draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), min_size=1, max_size=2))
    elif fault == "drop" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif fault == "range":
        edges.append((draw(st.sampled_from([-1, n])), 0))
    edges = draw(st.permutations(edges))
    return f"{n} {len(edges) + (fault == 'count')}\n" + "".join(
        f"{u} {v}\n" for u, v in edges
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["sources", "preburn", "bound", "x"]), inner, max_size=4),
    max_leaves=10,
)
plan_texts = st.one_of(
    st.fixed_dictionaries(
        {"sources": st.lists(st.integers(-1, 10), min_size=1, max_size=5)},
        optional={
            "bound": st.integers(-1, 5) | json_values,
            "preburn": st.lists(st.integers(-1, 10), max_size=2) | json_values,
        },
    ).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=12),
)
id_texts = st.one_of(
    st.lists(st.integers(-1, 10), min_size=1, max_size=4).map(
        lambda ids: ",".join(map(str, ids))
    ),
    st.text(alphabet="0123456789,- ", max_size=8),
)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(
        ["burn", "verify", "hit-plan", "tree-plan", "solve", "hist", "spanning-min"]
    ),
    graph_text=edge_list_texts(),
    plan_text=plan_texts,
    sources=id_texts,
    preburn=id_texts,
)
def test_exit_code_contract(contract_dir, command, graph_text, plan_text, sources, preburn):
    graph = contract_dir / "g.el"
    graph.write_text(graph_text)
    plan = contract_dir / "plan.json"
    plan.write_text(plan_text)
    argv = [command, str(graph)]
    if command == "burn":
        argv += [f"--sources={sources}", f"--preburn={preburn}"]
    elif command == "verify":
        argv.append(str(plan))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    # nothing in these inputs can make burnkit's own results fail
    assert code != 3, err.getvalue()
    if code == 1:
        assert command == "verify" and not json.loads(out.getvalue())["valid"]
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


gen_families = st.sampled_from(
    ["path", "star", "spider", "petersen", "random_tree", "random_hit", "cycle", ""]
)
gen_sizes = st.integers(-2, 24) | st.just(MAX_VERTICES + 1)


@settings(max_examples=300, deadline=None)
@given(
    family=gen_families,
    n=st.none() | gen_sizes,
    legs=st.none() | st.lists(gen_sizes, max_size=4).map(lambda xs: ",".join(map(str, xs))),
    seed=st.none() | st.integers(-1, 5),
)
def test_gen_exit_code_contract(family, n, legs, seed):
    # sizes stay small or cross the vertex cap, which must be refused
    # before any edge is built
    argv = ["gen", family]
    if n is not None:
        argv.append(f"-n={n}")
    if legs is not None:
        argv.append(f"--legs={legs}")
    if seed is not None:
        argv.append(f"--seed={seed}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        header = out.getvalue().split("\n", 1)[0].split()
        assert 1 <= int(header[0]) <= MAX_VERTICES


def any_json(keys):
    """Any JSON value; objects take their keys from keys."""
    return st.recursive(
        st.none() | st.booleans() | st.integers(-2, 24) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=8,
    )


bench_entries = st.fixed_dictionaries(
    {"family": gen_families},
    optional={
        "sizes": st.lists(gen_sizes, max_size=3),
        "params": any_json(["n", "legs", "seed", "x"]),
    },
)
bench_specs = st.fixed_dictionaries(
    {"families": st.lists(bench_entries, max_size=3)},
    optional={
        "seeds": st.lists(st.integers(-1, 5), max_size=3) | any_json(["x"]),
        "exact_limit": any_json(["x"]),
    },
) | any_json(["families", "seeds", "exact_limit"])


@settings(max_examples=200, deadline=None)
@given(spec=bench_specs)
@example(spec={"families": [{"family": "path", "params": {"n": math.inf}}]})
@example(spec={"families": [{"family": "spider", "params": {"legs": [-math.inf]}}]})
def test_bench_exit_code_contract(contract_dir, spec):
    # sizes stay small or cross the vertex cap; no exact solve runs above
    # 24 vertices, the largest exact_limit drawn
    path = contract_dir / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["bench", str(path)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
