import hashlib
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import burnkit

from burnkit import (
    BurningSchedule,
    Tree,
    augment_degree2,
    bridge_component,
    build_tree,
    burning_number_exact,
    find_anchor,
    hit_schedule,
    is_complete,
    is_hit,
    lift_schedule,
    simulate,
    simulate_modified,
    smooth,
    sqrt_ceil,
    tree_schedule_via_augmentation,
)
from burnkit.cli import main
from burnkit.errors import (
    BaseScheduleIncomplete,
    CertificationFailed,
    LiftVerificationFailed,
    NotAHIT,
    NotDegreeTwo,
    TooSmall,
)
from burnkit.generators import (
    path_graph,
    random_hit,
    random_tree,
    spider_graph,
    star_graph,
)
from burnkit.graph import Graph, build_graph, format_edge_list
from burnkit.hit import _plan

from helpers import (
    eight_vertex_hit,
    enumerate_hits,
    random_tree_rng,
    reference_find_anchor,
    reference_hit_schedule,
    reference_lift_burn,
    relabel,
)


def check_anchor_independently(t: Tree, anchor) -> None:
    """Recompute both side-size conditions with bridge_component."""
    tau = 2 * sqrt_ceil(t.n) - 1
    assert anchor.threshold == tau
    assert anchor.neighbors[-1] == anchor.y
    assert sorted(anchor.neighbors) == sorted(t.graph.adj[anchor.x])
    assert bridge_component(t, anchor.x, anchor.y).size >= tau
    for v in anchor.neighbors[:-1]:
        assert bridge_component(t, v, anchor.x).size < tau


def test_find_anchor_star():
    t = Tree(star_graph(6))
    anchor = find_anchor(t)
    assert (anchor.x, anchor.y) == (0, 1)
    assert anchor.heavy_size == 5 and anchor.light_sizes == (1, 1, 1, 1)
    check_anchor_independently(t, anchor)


def test_find_anchor_eight_vertex_hit():
    t = eight_vertex_hit()
    anchor = find_anchor(t)
    assert (anchor.x, anchor.y) == (3, 1)
    assert anchor.threshold == 5 and anchor.heavy_size == 5
    check_anchor_independently(t, anchor)


def test_find_anchor_spider_and_p6():
    for t in (Tree(spider_graph([1, 1, 3])), Tree(path_graph(6))):
        check_anchor_independently(t, find_anchor(t))


def test_find_anchor_too_small():
    with pytest.raises(TooSmall):
        find_anchor(Tree(star_graph(5)))


def test_find_anchor_matches_reference_walk():
    rng = random.Random(61)
    for _ in range(1000):
        t = random_tree_rng(rng.randint(6, 200), rng)
        assert find_anchor(t) == reference_find_anchor(t)


def test_anchor_soundness_random_trees():
    rng = random.Random(41)
    for _ in range(100):
        t = random_tree_rng(rng.randint(6, 120), rng)
        check_anchor_independently(t, find_anchor(t))


def test_lift_p3():
    t = build_tree(3, [(0, 1), (1, 2)])
    # smoothing drops vertex 1; survivors 0,2 become 0,1 in the K2
    lifted = lift_schedule(t, 1, BurningSchedule(sources=(0, 0)))
    assert lifted.preburn == (1,) and lifted.sources == (0, 0)
    bm = simulate_modified(t.graph, lifted)
    assert bm.rounds == (1, 1, 2)


def test_lift_three_vertex_branch():
    t = build_tree(3, [(0, 1), (1, 2)])
    lifted = lift_schedule(t, 1, BurningSchedule(sources=(0, 1)))
    assert lifted.preburn == (1,) and lifted.sources == (0, 2)
    assert is_complete(simulate_modified(t.graph, lifted))


def test_lift_rejects_bad_inputs():
    t = build_tree(3, [(0, 1), (1, 2)])
    with pytest.raises(NotDegreeTwo):
        lift_schedule(t, 0, BurningSchedule(sources=(0,)))
    p5 = Tree(path_graph(5))
    with pytest.raises(BaseScheduleIncomplete):
        lift_schedule(p5, 1, BurningSchedule(sources=(0,)))


def test_lift_random_schedules():
    # any complete schedule on the smoothed tree lifts to a complete
    # modified schedule of the same length
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        t = random_tree_rng(rng.randint(4, 16), rng)
        deg2 = [v for v in range(t.n) if t.degree(v) == 2]
        if not deg2:
            continue
        v = rng.choice(deg2)
        smoothed, _ = smooth(t, v)
        k = rng.randint(1, smoothed.n)
        sources = tuple(rng.randrange(smoothed.n) for _ in range(k))
        schedule = BurningSchedule(sources=sources)
        if not is_complete(simulate(smoothed.graph, schedule)):
            continue
        lifted = lift_schedule(t, v, schedule)
        bm = simulate_modified(t.graph, lifted)
        assert is_complete(bm) and bm.completion <= k
        checked += 1


def test_hit_schedule_bases():
    plan = hit_schedule(build_tree(1, []))
    assert plan.schedule.sources == (0,) and plan.bound == 1
    plan = hit_schedule(build_tree(2, [(0, 1)]))
    assert plan.schedule.sources == (0, 1) and plan.bound == 2
    plan = hit_schedule(Tree(star_graph(5)))
    assert plan.schedule.sources == (0, 1) and len(plan.schedule) == 2


def test_hit_schedule_eight_vertex():
    plan = hit_schedule(eight_vertex_hit())
    assert plan.bound == 3
    assert len(plan.schedule) <= 3
    assert plan.schedule.sources[0] == 3
    assert plan.burn_map.completion <= 3


def test_hit_schedule_rejects_non_hit():
    with pytest.raises(NotAHIT):
        hit_schedule(Tree(path_graph(3)))


def test_hit_schedule_random_bound_and_optimality_gap():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.choice([1, 2, 4, 5] + list(range(6, 60)))
        if n == 3:
            continue
        t = random_hit(n, seed=rng.randrange(2**31))
        plan = hit_schedule(t)
        assert len(plan.schedule) <= sqrt_ceil(t.n)
        assert is_complete(plan.burn_map)
        if t.n <= 14:
            assert burning_number_exact(t.graph)[0] <= len(plan.schedule)


def padded(sources: tuple[int, ...]) -> bool:
    # the anchors and the base's sources are distinct vertices, so a repeat
    # in a plan is a pad: some level appended its anchor again
    return len(set(sources)) < len(sources)


def test_hit_schedule_matches_reference_on_every_small_hit():
    pads = 0
    for t in enumerate_hits(14):
        sources = hit_schedule(t).schedule.sources
        assert sources == reference_hit_schedule(t), t.graph.edges()
        pads += padded(sources)
    assert pads > 0


def test_hit_schedule_matches_reference_on_relabelled_random_hits():
    rng = random.Random(67)
    pads = 0
    for _ in range(300):
        hit = random_hit(rng.randint(4, 400), seed=rng.randrange(2**31))
        t = Tree(relabel(hit.graph, rng))
        sources = hit_schedule(t).schedule.sources
        assert sources == reference_hit_schedule(t), t.graph.edges()
        pads += padded(sources)
    assert pads > 0


def relabelled_trees():
    """300 relabelled random trees, paths and spiders."""
    rng = random.Random(71)
    for i in range(300):
        if i % 3 == 0:
            g = random_tree_rng(rng.randint(1, 150), rng).graph
        elif i % 3 == 1:
            g = path_graph(rng.randint(1, 120))
        else:
            g = spider_graph([rng.randint(1, 8) for _ in range(rng.randint(1, 8))])
        yield Tree(relabel(g, rng))


def test_tree_plan_matches_reference_on_relabelled_trees():
    pads = 0
    for t in relabelled_trees():
        augmented, attach = augment_degree2(t)
        expected = tuple(attach.get(v, v) for v in reference_hit_schedule(augmented))
        sources = tree_schedule_via_augmentation(t).schedule.sources
        assert sources == expected, t.graph.edges()
        pads += padded(hit_schedule(augmented).schedule.sources)
    assert pads > 0


real_anchor = burnkit.hit._anchor


def check_rooting(adj, s, parent, sub, leaf):
    """Check the rooting _anchor is given against a fresh BFS of the level
    from leaf."""
    level, seen = [leaf], {leaf}
    for u in level:  # level grows while it is scanned
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                level.append(w)
    assert s == len(level)
    assert leaf == min(v for v in level if len(adj[v]) == 1)
    roots = [v for v in level if parent[v] == -1]
    assert len(roots) == 1
    order = roots[:]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                assert parent[w] == u
                order.append(w)
    assert len(order) == s
    size = dict.fromkeys(order, 1)
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    assert all(sub[v] == size[v] for v in order)


class CheckedAnchor:
    """_anchor, checked on every level: the rooting it is given against a
    fresh BFS of the level, and the walk it resumes against a fresh walk.

    sizes lists the levels checked. updates counts the rooting updates of
    the levels above them, as rooting_update names them, and popped the
    steps each rule dropped from a walk before it resumed; resumed counts
    the levels that kept a non-empty prefix of the last walk.
    """

    def __init__(self) -> None:
        self.sizes: list[int] = []
        self.updates: Counter = Counter()
        self.popped: Counter = Counter()
        self.resumed = 0
        self._update = None  # the last level's update, checked by this one

    def __call__(self, adj, s, parent, sub, leaf, walk):
        check_rooting(adj, s, parent, sub, leaf)
        self.sizes.append(s)
        if s < len(adj):
            self.updates[self._update] += 1
        tau = 2 * sqrt_ceil(s) - 1

        def side(v, w):
            return sub[w] if parent[w] == v else s - sub[v]

        kept = len(walk)
        while kept:
            v, w, low = walk[kept - 1]
            if side(v, w) >= tau and low < tau:
                break
            self.popped["forward side" if side(v, w) < tau else "lower id"] += 1
            kept -= 1
        self.resumed += kept > 0
        held = walk[:kept]
        fresh: list = []
        x, y = real_anchor(adj, s, parent, sub, leaf, walk)
        assert real_anchor(adj, s, parent, sub, leaf, fresh) == (x, y)
        assert walk == fresh
        assert all(a is b for a, b in zip(walk, held))  # kept steps are not redone
        self._update = rooting_update(adj, s, parent, x, y)
        return x, y


def rooting_update(adj, s, parent, x, y) -> tuple[str, str]:
    """How the planner updates its rooting after it cuts the level's anchor
    edge xy: the cut, then the smoothing of y if y drops to degree 2. The
    top level first re-roots the input at x, so its y is below x."""
    cut = "x below y" if s < len(adj) and parent[x] == y else "y below x"
    if len(adj[y]) != 3:
        return cut, "no smoothing"
    y_is_root = cut == "y below x" or parent[y] == -1
    return cut, "root y smoothed" if y_is_root else "non-root y smoothed"


ROOTING_UPDATES = [
    ("x below y", "non-root y smoothed"),
    ("x below y", "root y smoothed"),
    ("y below x", "root y smoothed"),
    ("x below y", "no smoothing"),
    ("y below x", "no smoothing"),
]


@pytest.fixture
def rooting_checked(monkeypatch):
    check = CheckedAnchor()
    monkeypatch.setattr(burnkit.hit, "_anchor", check)
    return check


def relabelled_hits(seed: int) -> list[Tree]:
    """60 relabelled random HITs of 4 to 400 vertices."""
    rng = random.Random(seed)
    return [
        Tree(relabel(random_hit(rng.randint(4, 400), rng.randrange(2**31)).graph, rng))
        for _ in range(60)
    ]


def test_rooting_is_kept_on_every_level(rooting_checked):
    for t in [*relabelled_trees(), *relabelled_hits(79)]:
        augmented, _ = augment_degree2(t)
        sources = hit_schedule(augmented).schedule.sources
        assert sources == reference_hit_schedule(augmented)
    assert len(rooting_checked.sizes) > 2000
    assert all(rooting_checked.updates[u] >= 1 for u in ROOTING_UPDATES)


def test_resumed_walk_matches_a_fresh_walk(rooting_checked):
    # both pop rules must drop steps, and levels must resume mid-walk
    for t in relabelled_trees():
        tree_schedule_via_augmentation(t)
    assert rooting_checked.popped["forward side"] > 1000
    assert rooting_checked.popped["lower id"] > 10
    assert rooting_checked.resumed > 100
    rooting_checked.popped.clear()
    for t in [*relabelled_hits(79), *criterion_3_hits()]:
        hit_schedule(t)
    assert rooting_checked.popped["forward side"] > 1000
    assert rooting_checked.popped["lower id"] > 100


@pytest.mark.parametrize(
    "edges,update",
    [
        (
            [(0, 11), (1, 4), (1, 16), (1, 20), (2, 3), (2, 19), (2, 20), (3, 8)]
            + [(3, 9), (3, 14), (5, 21), (6, 15), (6, 18), (6, 20), (7, 12), (8, 11)]
            + [(8, 21), (10, 22), (11, 17), (12, 21), (12, 22), (13, 22)],
            ROOTING_UPDATES[0],
        ),
        (
            [(0, 5), (1, 19), (2, 7), (2, 20), (2, 21), (3, 4), (3, 13), (3, 19)]
            + [(5, 7), (5, 13), (5, 22), (6, 10), (7, 8), (9, 13), (10, 12)]
            + [(10, 17), (11, 17), (14, 22), (15, 19), (16, 22), (17, 18), (17, 22)],
            ROOTING_UPDATES[1],
        ),
        (
            [(0, 1), (0, 2), (0, 3)]
            + [(1, v) for v in range(4, 8)]
            + [(2, v) for v in range(8, 14)],
            ROOTING_UPDATES[2],
        ),
        (
            [(0, 19), (1, 13), (2, 12), (2, 15), (2, 19), (3, 10), (4, 5), (5, 7)]
            + [(5, 19), (6, 13), (8, 19), (9, 20), (10, 13), (10, 15), (11, 16)]
            + [(11, 18), (11, 20), (14, 17), (14, 19), (14, 20), (15, 21)],
            ROOTING_UPDATES[3],
        ),
        (
            [(0, v) for v in range(1, 7)] + [(1, v) for v in range(7, 13)],
            ROOTING_UPDATES[4],
        ),
    ],
)
def test_each_rooting_update(rooting_checked, edges, update):
    # each update is taken at some level whose rooting the next level checks
    t = build_tree(len(edges) + 1, edges)
    assert is_hit(t)
    assert hit_schedule(t).schedule.sources == reference_hit_schedule(t)
    assert rooting_checked.updates[update] >= 1


FOREST_ADJ = build_graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]).adj


def test_plan_rejects_a_forest():
    # each star alone is a HIT; planned from 0, the second would be missed
    with pytest.raises(CertificationFailed, match="must be connected"):
        _plan(FOREST_ADJ)


def test_connectivity_check_fires_under_python_o():
    code = (
        "from burnkit.hit import _plan\n"
        "from burnkit.errors import CertificationFailed\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        f"    _plan({FOREST_ADJ!r})\n"
        "except CertificationFailed as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(burnkit.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "the planner's input must be connected\n"


def sources_digest(sources: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, sources)).encode()).hexdigest()


def test_large_plans_are_pinned():
    # too large for reference_hit_schedule; the first two digests were taken
    # from the planner that re-rooted and re-scanned every level, the third
    # from the one that burned all of y's side for each lift, and the last
    # from the one that walked each level's anchor from the lowest leaf
    sources = tree_schedule_via_augmentation(random_tree(30000, 0)).schedule.sources
    assert len(sources) == 172
    assert sources_digest(sources) == (
        "0d4df7b0544f48611edef4436e8f6b75e9501d45ae22292a97a7054c50645393"
    )
    n = 10**4
    perm = list(range(n))
    random.Random(5).shuffle(perm)
    path = build_tree(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    sources = tree_schedule_via_augmentation(path).schedule.sources
    assert len(sources) == 142
    assert sources_digest(sources) == (
        "535e5fc1968eaabe90f75975873d6691853d2bdad99710f21748472467105d40"
    )
    sources = tree_schedule_via_augmentation(random_tree(100000, 0)).schedule.sources
    assert len(sources) == 313
    assert sources_digest(sources) == (
        "584d137036159a76290d756215f6c245569d35673140b2fd366682b331cb3ca9"
    )
    n = 10**5
    perm = list(range(n))
    random.Random(5).shuffle(perm)
    path = build_tree(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    sources = tree_schedule_via_augmentation(path).schedule.sources
    assert len(sources) == 448
    assert sources_digest(sources) == (
        "f6b58dc47340125f51fcce9660274e6175b855f695751bf751ab2ff313ff1347"
    )


def criterion_3_hits():
    """The HITs that test_criterion_3_hit_plans plans."""
    yield from enumerate_hits(16)
    rng = random.Random(2024)
    for _ in range(500):
        yield random_hit(rng.randint(4, 500), seed=rng.randrange(2**31))


real_lift = burnkit.hit._lift


def test_piece_bound_lies_between_the_whole_side_burn_and_the_schedule(monkeypatch):
    # at every smoothing, the round by which the pieces say y's side has
    # burned is no earlier than a burn of all of y's side, and within the
    # schedule of the level below
    lifts = []

    def checked_lift(adj, tag, pieces, lvl, y, s, sources):
        y_last = real_lift(adj, tag, pieces, lvl, y, s, sources)
        assert reference_lift_burn(adj, sources, y) <= y_last <= len(sources)
        lifts.append(y_last)
        return y_last

    monkeypatch.setattr(burnkit.hit, "_lift", checked_lift)
    for t in relabelled_trees():
        tree_schedule_via_augmentation(t)
    for t in [*relabelled_hits(83), *criterion_3_hits()]:
        hit_schedule(t)
    assert len(lifts) > 1000


def test_hit_schedule_makes_no_recursive_call():
    # a planner that recurses once or twice per level needs about 60 frames here
    code = (
        "import sys\n"
        "from burnkit import hit_schedule\n"
        "from burnkit.generators import random_hit\n"
        "t = random_hit(2000, 1)\n"
        "sys.setrecursionlimit(50)\n"
        "print(len(hit_schedule(t).schedule))\n"
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
    assert int(result.stdout) <= sqrt_ceil(2000)


def test_eccentricity_bound_random_hits():
    # anchor-side vertices sit within ceil(sqrt(n)) - 1 of the anchor
    rng = random.Random(53)
    for _ in range(30):
        t = random_hit(rng.randint(6, 200), seed=rng.randrange(2**31))
        anchor = find_anchor(t)
        side = bridge_component(t, anchor.x, anchor.y)
        dist = t.graph.distances_from(anchor.x)
        assert max(dist[v] for v in side.vertices) <= sqrt_ceil(t.n) - 1


def augment_by_edge_list(t: Tree) -> tuple[Tree, dict[int, int]]:
    """augment_degree2 as an edge list validated from scratch."""
    hosts = [v for v in range(t.n) if t.degree(v) == 2]
    leaves = range(t.n, t.n + len(hosts))
    edges = t.graph.edges() + list(zip(hosts, leaves))
    return build_tree(t.n + len(hosts), edges), dict(zip(leaves, hosts))


def test_augment_matches_edge_list_construction():
    small = [Tree(path_graph(n)) for n in (1, 2, 3)]
    for t in [*relabelled_trees(), *enumerate_hits(14), *small]:
        augmented, attach = augment_degree2(t)
        expected, expected_attach = augment_by_edge_list(t)
        got, want = augmented.graph, expected.graph
        assert (got.n, got.m, got.adj) == (want.n, want.m, want.adj), t.graph.edges()
        assert attach == expected_attach
        if is_hit(t):
            assert got == t.graph and attach == {}


def test_augment_p3():
    t, attach = augment_degree2(Tree(path_graph(3)))
    assert t.n == 4 and attach == {3: 1}
    assert t.degree(1) == 3 and is_hit(t)


def test_augment_hit_is_identity():
    t, attach = augment_degree2(eight_vertex_hit())
    assert t.n == 8 and attach == {}


def test_augment_p5():
    t, attach = augment_degree2(Tree(path_graph(5)))
    assert t.n == 8 and len(attach) == 3 and is_hit(t)


def test_tree_plan_p3():
    plan = tree_schedule_via_augmentation(Tree(path_graph(3)))
    assert plan.bound == 2 and len(plan.schedule) <= 2
    assert is_complete(plan.burn_map)


def test_tree_plan_p9():
    plan = tree_schedule_via_augmentation(Tree(path_graph(9)))
    assert plan.bound == 4 and len(plan.schedule) <= 4
    assert burning_number_exact(path_graph(9))[0] == 3


def test_tree_plan_on_hit_matches_hit_plan():
    rng = random.Random(73)
    relabelled = [
        Tree(relabel(random_hit(rng.randint(4, 400), rng.randrange(2**31)).graph, rng))
        for _ in range(50)
    ]
    for t in [*enumerate_hits(14), *relabelled]:
        assert (
            tree_schedule_via_augmentation(t).to_json_dict()
            == hit_schedule(t).to_json_dict()
        ), t.graph.edges()


def test_tree_plan_builds_and_simulates_once(monkeypatch, capsys, tmp_path):
    # the input is parsed into the only Graph built from an edge list, and
    # the projected plan is the only one simulated
    path = tmp_path / "p9.el"
    path.write_text(format_edge_list(path_graph(9)))
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for module, name in ((burnkit.graph, "build_graph"), (burnkit.burning, "simulate_modified")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code = main(["tree-plan", str(path)])
    assert code == 0 and capsys.readouterr().err == ""
    assert calls == ["build_graph", "simulate_modified"]


def test_tree_plan_runs_one_connectivity_search(monkeypatch, capsys, tmp_path):
    # only the parsed input is checked connected by a search: the planner
    # certifies the augmented tree connected on its own
    path = tmp_path / "p9.el"
    path.write_text(format_edge_list(path_graph(9)))
    sources = []
    real = Graph.distances_from

    def counted(g, source):
        sources.append(source)
        return real(g, source)

    monkeypatch.setattr(Graph, "distances_from", counted)
    code = main(["tree-plan", str(path)])
    assert code == 0 and capsys.readouterr().err == ""
    assert sources == [0]


real_augmented_adj = burnkit.hit._augmented_adj


def test_tree_plan_checks_the_augmented_tree_is_a_hit(monkeypatch, capsys, tmp_path):
    # the augmented plan is not simulated: the planner's level-0 HIT check
    # must catch an augmentation that leaves a degree-2 vertex leafless
    t = Tree(path_graph(9))
    path = tmp_path / "p9.el"
    path.write_text(format_edge_list(t.graph))

    def one_leaf_short(t):
        adj, attach = real_augmented_adj(t)
        last = len(adj) - 1
        del attach[last]
        return tuple(tuple(w for w in nbrs if w != last) for nbrs in adj[:last]), attach

    monkeypatch.setattr(burnkit.hit, "_augmented_adj", one_leaf_short)
    with pytest.raises(CertificationFailed, match="every level must be a HIT"):
        tree_schedule_via_augmentation(t)
    code = main(["tree-plan", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: every level must be a HIT\n"


def test_tree_plan_random():
    rng = random.Random(59)
    for _ in range(40):
        t = random_tree_rng(rng.randint(1, 80), rng)
        d = sum(1 for v in range(t.n) if t.degree(v) == 2)
        plan = tree_schedule_via_augmentation(t)
        assert plan.bound == sqrt_ceil(t.n + d)
        assert len(plan.schedule) <= plan.bound


def test_plan_json_shape():
    d = hit_schedule(eight_vertex_hit()).to_json_dict()
    assert set(d) == {"bound", "sources", "rounds", "completion"}
    assert d["completion"] <= d["bound"]


def test_certification_survives_python_o():
    # under -O an assert is stripped; the certify checks must still raise
    code = (
        "from burnkit import BurnMap, BurningSchedule, CertifiedPlan\n"
        "from burnkit.errors import CertificationFailed\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    CertifiedPlan(BurningSchedule((0, 1, 2)), bound=1,"
        " burn_map=BurnMap((None, None)))\n"
        "except CertificationFailed:\n"
        "    print('rejected')\n"
    )
    src = str(Path(burnkit.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "rejected\n"


# The planner's checks, each made to fire by a _burn that misreports the last
# round in which a vertex caught fire, or how many did. A burn from untagged
# vertices (old == -1) is the burn of a level's x side or of the base, and a
# burn of a piece (old >= 0) is a lift's re-burn.
real_burn = burnkit.hit._burn


def lift_burn_over_by_one(adj, tag, old, new, ignitions):
    last, burned = real_burn(adj, tag, old, new, ignitions)
    return (last + 1 if old != -1 else last), burned


def test_lift_check_fires(monkeypatch, capsys, tmp_path):
    # its one level below the top smooths y into the base's piece, whose
    # re-burn ends in the last round of the level's schedule
    t = eight_vertex_hit()
    path = tmp_path / "hit8.el"
    path.write_text(format_edge_list(t.graph))
    monkeypatch.setattr(burnkit.hit, "_burn", lift_burn_over_by_one)
    with pytest.raises(LiftVerificationFailed):
        hit_schedule(t)
    code = main(["hit-plan", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: lift of ")


def test_lift_check_fires_under_python_o(tmp_path):
    path = tmp_path / "hit8.el"
    path.write_text(format_edge_list(eight_vertex_hit().graph))
    code = (
        "import sys\n"
        "import burnkit.hit\n"
        "from burnkit.cli import main\n"
        "assert False, 'asserts are on'\n"
        "real = burnkit.hit._burn\n"
        "def burn(adj, tag, old, new, ignitions):\n"
        "    last, burned = real(adj, tag, old, new, ignitions)\n"
        "    return (last + 1 if old != -1 else last), burned\n"
        "burnkit.hit._burn = burn\n"
        f"sys.exit(main(['hit-plan', {str(path)!r}]))\n"
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
    assert result.stdout == ""
    assert result.stderr.startswith("error: lift of ")


def reversed_pair(adj, tag, pieces, lvl, y, s, sources):
    # y's two restored neighbours in the other order: no burn changes, but
    # y's adjacency list is no longer the input's
    adj[y].reverse()
    return real_lift(adj, tag, pieces, lvl, y, s, sources)


def test_rebuild_check_fires(monkeypatch, capsys, tmp_path):
    # its one level below the top smooths y
    path = tmp_path / "hit8.el"
    path.write_text(format_edge_list(eight_vertex_hit().graph))
    monkeypatch.setattr(burnkit.hit, "_lift", reversed_pair)
    with pytest.raises(CertificationFailed, match="must rebuild the input tree"):
        hit_schedule(eight_vertex_hit())
    code = main(["hit-plan", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: the ascent must rebuild the input tree\n"


def test_rebuild_check_fires_under_python_o(tmp_path):
    path = tmp_path / "hit8.el"
    path.write_text(format_edge_list(eight_vertex_hit().graph))
    code = (
        "import sys\n"
        "import burnkit.hit\n"
        "from burnkit.cli import main\n"
        "assert False, 'asserts are on'\n"
        "real = burnkit.hit._lift\n"
        "def lift(adj, tag, pieces, lvl, y, s, sources):\n"
        "    adj[y].reverse()\n"
        "    return real(adj, tag, pieces, lvl, y, s, sources)\n"
        "burnkit.hit._lift = lift\n"
        f"sys.exit(main(['hit-plan', {str(path)!r}]))\n"
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
    assert result.stdout == ""
    assert result.stderr == "error: the ascent must rebuild the input tree\n"


def test_piece_reburn_must_reach_the_whole_piece(monkeypatch):
    t = eight_vertex_hit()

    def reburn_one_short(adj, tag, old, new, ignitions):
        last, burned = real_burn(adj, tag, old, new, ignitions)
        return last, (burned - 1 if old != -1 else burned)

    monkeypatch.setattr(burnkit.hit, "_burn", reburn_one_short)
    with pytest.raises(CertificationFailed, match="re-burn must reach all of it"):
        hit_schedule(t)


def test_pieces_must_make_up_y_side(monkeypatch):
    # the top level smooths y = 0 by joining 1 and 3, and the next level's
    # anchor edge is 1-3, so y is a piece of its own and no piece is burned
    # again: only the pieces' sizes can catch a base (piece 2, {3}) that
    # miscounts
    edges = [(0, 1), (0, 2), (0, 3)] + [(1, v) for v in range(4, 8)]
    t = build_tree(14, edges + [(2, v) for v in range(8, 14)])
    assert (find_anchor(t).x, find_anchor(t).y) == (2, 0)
    reburns = []

    def base_one_over(adj, tag, old, new, ignitions):
        last, burned = real_burn(adj, tag, old, new, ignitions)
        if old != -1:
            reburns.append(new)
        return last, (burned + 1 if (old, new) == (-1, 2) else burned)

    monkeypatch.setattr(burnkit.hit, "_burn", base_one_over)
    with pytest.raises(CertificationFailed, match="must make up y's side"):
        hit_schedule(t)
    assert reburns == []


def test_pads_from_the_anchor_side_are_certified(monkeypatch):
    # the top level pads, and a pad fewer leaves x's side unburned
    t = random_hit(10, 0)
    planned = hit_schedule(t).schedule.sources
    assert planned[-1] == planned[0]

    def x_side_burn_under_by_one(adj, tag, old, new, ignitions):
        last, burned = real_burn(adj, tag, old, new, ignitions)
        return (last - 1 if old == -1 and len(ignitions) == 1 else last), burned

    monkeypatch.setattr(burnkit.hit, "_burn", x_side_burn_under_by_one)
    with pytest.raises(CertificationFailed, match="plan's burn map"):
        hit_schedule(t)


def test_anchor_side_bound_fires(monkeypatch):
    t = eight_vertex_hit()
    calls = []

    def first_burn_past_the_bound(adj, tag, old, new, ignitions):
        # the first burn is the top level's x side, from x in round 1, whose
        # bound is ceil(sqrt(n))
        last, burned = real_burn(adj, tag, old, new, ignitions)
        calls.append(ignitions)
        return (sqrt_ceil(t.n) + 1 if len(calls) == 1 else last), burned

    monkeypatch.setattr(burnkit.hit, "_burn", first_burn_past_the_bound)
    with pytest.raises(CertificationFailed, match="anchor side must burn from x"):
        hit_schedule(t)
    assert calls[0] == [(find_anchor(t).x, 1)]
