import json
import subprocess
import sys
from pathlib import Path

import pytest

import burnkit
import burnkit.cli
from burnkit import BurningSchedule, build_graph, is_complete, simulate
from burnkit.cli import _build_parser, main
from burnkit.errors import CertificationFailed
from burnkit.graph import format_edge_list
from burnkit.generators import path_graph, petersen_graph

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
        [sys.executable, "-c", code],
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
    code, out1 = run(capsys, "gen", "random_tree", "-n", "12", "--seed", "4")
    assert code == 0
    monkeypatch.setenv("BURNKIT_SEED", "4")
    code, out2 = run(capsys, "gen", "random_tree", "-n", "12")
    assert code == 0 and out1 == out2


def test_gen_path(capsys):
    code, out = run(capsys, "gen", "path", "-n", "4")
    assert code == 0
    assert out == "4 3\n0 1\n1 2\n2 3\n"


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
