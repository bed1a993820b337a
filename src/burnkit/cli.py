"""Command-line surface. Graphs travel as edge-list files, schedules and
plans as JSON. Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal error (a result failed burnkit's own verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bench import records_to_csv, run_bench, summarize
from .burning import (
    BurningSchedule,
    DEFAULT_EXACT_LIMIT,
    burning_number_exact,
    is_complete,
    schedule_from_json_dict,
    simulate,
)
from .errors import BurnkitError, InternalError, MalformedPlan, MalformedSpec
from .generators import generate
from .graph import Graph, Tree, format_edge_list, parse_edge_list
from .hit import hit_schedule, tree_schedule_via_augmentation
from .spanning import (
    DEFAULT_HIST_LIMIT,
    DEFAULT_TREE_LIMIT,
    burning_number_via_spanning_trees,
    find_hist,
)

ENV_SEED = "BURNKIT_SEED"


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise BurnkitError(f"bad id list {text!r}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and reused for the rest of
    the process."""
    parser = argparse.ArgumentParser(
        prog="burnkit",
        description="Graph-burning schedules, exact solver, and HIT bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("burn", help="simulate a schedule and print the burn map")
    p.add_argument("graph")
    p.add_argument("--sources", required=True, help="comma-separated ids")
    p.add_argument("--preburn", default="", help="ids burned in round 1")

    p = sub.add_parser("solve", help="exact burning number with witness")
    p.add_argument("graph")
    p.add_argument("--limit-exact", type=int, default=DEFAULT_EXACT_LIMIT)

    p = sub.add_parser("hit-plan", help="ceil(sqrt(n)) plan for a HIT")
    p.add_argument("tree")

    p = sub.add_parser("tree-plan", help="ceil(sqrt(n+d)) plan for any tree")
    p.add_argument("tree")

    p = sub.add_parser("hist", help="search for a HIST and print it")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=DEFAULT_HIST_LIMIT)

    p = sub.add_parser(
        "spanning-min", help="burning number as min over spanning trees"
    )
    p.add_argument("graph")
    p.add_argument("--limit-exact", type=int, default=DEFAULT_EXACT_LIMIT)
    p.add_argument("--limit-trees", type=int, default=DEFAULT_TREE_LIMIT)

    p = sub.add_parser("gen", help="generate a graph family as an edge list")
    p.add_argument("family")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--legs", default=None, help="spider leg lengths, comma-separated")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify", help="check a plan JSON against a graph")
    p.add_argument("graph")
    p.add_argument("plan")

    p = sub.add_parser("bench", help="run a bench spec, emit CSV + summary")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default=None, help="CSV destination")
    p.add_argument("--limit-exact", type=int, default=None)

    return parser


def _cmd_burn(args) -> int:
    g = _load_graph(args.graph)
    sched = BurningSchedule(
        sources=_parse_ids(args.sources), preburn=_parse_ids(args.preburn)
    )
    bm = simulate(g, sched)
    print(json.dumps(bm.to_json_dict()))
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    k, witness = burning_number_exact(g, limit=args.limit_exact)
    print(json.dumps({"k": k, "sources": list(witness.sources)}))
    return 0


def _cmd_hit_plan(args) -> int:
    tree = Tree(_load_graph(args.tree))
    print(json.dumps(hit_schedule(tree).to_json_dict()))
    return 0


def _cmd_tree_plan(args) -> int:
    tree = Tree(_load_graph(args.tree))
    print(json.dumps(tree_schedule_via_augmentation(tree).to_json_dict()))
    return 0


def _cmd_hist(args) -> int:
    g = _load_graph(args.graph)
    result = find_hist(g, limit=args.limit)
    if not result.found:
        print("no HIST")
        return 0
    sys.stdout.write(format_edge_list(result.tree.graph))
    return 0


def _cmd_spanning_min(args) -> int:
    g = _load_graph(args.graph)
    k, tree, sched = burning_number_via_spanning_trees(
        g, tree_limit=args.limit_trees, exact_limit=args.limit_exact
    )
    print(
        json.dumps(
            {
                "k": k,
                "sources": list(sched.sources),
                "tree_edges": tree.graph.edges(),
            }
        )
    )
    return 0


def _cmd_gen(args) -> int:
    params: dict = {}
    if args.n is not None:
        params["n"] = args.n
    if args.legs is not None:
        params["legs"] = list(_parse_ids(args.legs))
    seed = args.seed
    if seed is None and ENV_SEED in os.environ:
        seed = int(os.environ[ENV_SEED])
    if seed is not None:
        params["seed"] = seed
    g = generate(args.family, params)
    text = format_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    with open(args.plan, "r", encoding="utf-8") as fh:
        try:
            plan = json.load(fh)
        except RecursionError as exc:
            raise MalformedPlan("plan JSON is nested too deeply") from exc
    sched = schedule_from_json_dict(plan)
    bm = simulate(g, sched)
    ok = is_complete(bm)
    bound = plan.get("bound")
    if bound is not None and type(bound) is not int:
        raise MalformedPlan('"bound" must be an integer')
    if bound is not None and len(sched.sources) > bound:
        ok = False
    print(json.dumps({"valid": ok, "burn_map": bm.to_json_dict()}))
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except RecursionError as exc:
            raise MalformedSpec("spec JSON is nested too deeply") from exc
    records = run_bench(spec, exact_limit=args.limit_exact)
    csv_text = records_to_csv(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(summarize(records))
    return 0


_COMMANDS = {
    "burn": _cmd_burn,
    "solve": _cmd_solve,
    "hit-plan": _cmd_hit_plan,
    "tree-plan": _cmd_tree_plan,
    "hist": _cmd_hist,
    "spanning-min": _cmd_spanning_min,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BurnkitError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 2


if __name__ == "__main__":
    sys.exit(main())
