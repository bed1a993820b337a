"""Constructive burning schedules for trees without degree-2 vertices.

The paper's induction for a HIT: an anchor search locates a vertex x all of
whose neighbor-side components are small except the one across an edge xy;
x burns first, and y's side is planned next, with y smoothed away when it
drops to degree 2 and the schedule lifted back with y preburned.
_plan runs that induction as a descent loop and an ascent loop over
one mutable adjacency on the input's vertex ids, cutting, smoothing and then
undoing, with no Tree built below the input and no recursion. x's side
meets y's side only through xy, so it is burned once, from x on the way
down, and that burn tags it as one piece of the input; the base is one more.
When y was smoothed, the lift lemma says y's side with y preburned still
burns within the schedule below; the ascent checks it by burning again only
the piece that y rejoins, and bounds the rest of y's side by the last rounds
its pieces already burned in, a bound never below the exact burn of y's side.
The input is rooted once, and re-rooted at the first anchor along the one
path from it to the root; the descent keeps the parents and subtree sizes of
that rooting valid as it cuts and smooths, so no level is re-rooted or
re-scanned: the anchor walk reads its side sizes from them, and a level's
HIT check looks only at the vertices whose adjacency the step changed.
What a level removes lies ahead of every step of its walk before y's
predecessor, so each walk resumes from the last one's steps that still
hold: it pops a step whose forward side fell below the level's threshold,
or past which a lower neighbour's side now reaches it. The descent cuts
and smooths in place and the ascent undoes each change at the same index,
so it rebuilds the input's adjacency lists exactly, and one compare checks
that it did.
hit_schedule, tree_schedule_via_augmentation and spanning.hist_bound each
run _plan once and check the plan they return by one simulation on the graph
they were asked about, so the guarantee is an executable contract rather
than a trusted proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .burning import BurnMap, BurningSchedule, is_complete, simulate, simulate_modified
from .errors import (
    BaseScheduleIncomplete,
    CertificationFailed,
    LiftVerificationFailed,
    NotAHIT,
    NotDegreeTwo,
    TooSmall,
    certify,
)
from .graph import Graph, Tree, is_hit, smooth


def sqrt_ceil(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


@dataclass(frozen=True)
class Anchor:
    """Vertex x whose neighbor sides are all light except the last one.

    neighbors lists x's neighbors with the heavy one (y) last; side_sizes[i]
    is the size of the component of neighbors[i] after deleting its edge to x,
    except the last entry, which is the size of x's own side across xy.
    """

    x: int
    y: int
    neighbors: tuple[int, ...]
    side_sizes: tuple[int, ...]
    threshold: int

    @property
    def heavy_size(self) -> int:
        return self.side_sizes[-1]

    @property
    def light_sizes(self) -> tuple[int, ...]:
        return self.side_sizes[:-1]


# Unused by burnkit: kept only for perfbench/tracing.py until ROADMAP item 2.
def _branch_sizes(t: Tree, x: int) -> dict[int, int]:
    """For each neighbor v of x: size of the component of v after removing x.

    Single DFS from x; each non-root vertex is charged to the branch it
    hangs from.
    """
    sizes = {v: 0 for v in t.graph.adj[x]}
    parent = {x: None}
    branch = {x: None}
    stack = [x]
    while stack:
        u = stack.pop()
        for w in t.graph.adj[u]:
            if w not in parent:
                parent[w] = u
                branch[w] = w if u == x else branch[u]
                sizes[branch[w]] += 1
                stack.append(w)
    return sizes


def _rooted(adj, root: int) -> tuple[list[int], list[int], list[int]]:
    """BFS over the component of root in the forest adj: its vertices in BFS
    order, then two lists indexed by vertex: each one's parent (-1 for root,
    -2 outside the component) and the size of its subtree."""
    parent = [-2] * len(adj)
    parent[root] = -1
    order = [root]
    for u in order:  # order grows while it is scanned
        for w in adj[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    sub = [1] * len(adj)
    for v in order[:0:-1]:
        sub[parent[v]] += sub[v]
    return order, parent, sub


def _anchor(
    adj, s: int, parent: list[int], sub: list[int], leaf: int, walk: list
) -> tuple[int, int]:
    """The anchor (x, y) of the walk (see find_anchor) on a component of s
    vertices whose lowest leaf is leaf, rooted by parent with subtree sizes
    sub, resumed from the steps of walk that still hold.

    Deleting x leaves the component of a neighbour w with sub[w] vertices
    when w is a child of x, and with the rest of the tree, s - sub[x], when
    w is x's parent, so each step reads its side sizes without a search.
    These sizes do not depend on the root.

    walk holds one (v, next, low) entry per step, where low is the largest
    side of a neighbour w of v, other than the one the walk came from, with
    w < next, over this step and every step before it. A step still holds
    when its forward side, side(v, next), reaches tau and low stays below
    it: then next is still v's lowest heavy neighbour. Forward sides shrink
    strictly along the walk and low never shrinks, so the steps that hold
    are a prefix; the walk pops the rest and goes on from the top entry,
    or from leaf when none is left, and appends its new steps.
    """
    tau = 2 * sqrt_ceil(s) - 1

    def side(x: int, w: int) -> int:
        return sub[w] if parent[w] == x else s - sub[x]

    while walk:
        v, w, low = walk[-1]
        if side(v, w) >= tau and low < tau:
            break
        walk.pop()
    came_from, x, low = walk[-1] if walk else (leaf, adj[leaf][0], 0)
    for _ in range(s - len(walk)):
        sides = [(w, side(x, w)) for w in adj[x] if w != came_from]
        heavy = [w for w, size in sides if size >= tau]
        if not heavy:
            certify(
                s - side(x, came_from) >= tau, "anchor's heavy side must reach tau"
            )
            certify(
                all(size < tau for _, size in sides),
                "anchor's light sides must stay below tau",
            )
            return x, came_from
        nxt = min(heavy)
        for w, size in sides:
            if w < nxt and size > low:
                low = size
        walk.append((x, nxt, low))
        x, came_from = nxt, x
    raise CertificationFailed("anchor walk failed to terminate within n steps")


def find_anchor(t: Tree) -> Anchor:
    """Walk from the lowest-id leaf toward heavy sides until every side but
    the one behind us is light (size < 2*ceil(sqrt(n)) - 1)."""
    if t.n < 6:
        raise TooSmall(f"anchor search needs n >= 6, got {t.n}")
    adj = t.graph.adj
    _, parent, sub = _rooted(adj, 0)
    x, y = _anchor(adj, t.n, parent, sub, t.leaves[0], [])

    def side(w: int) -> int:
        return sub[w] if parent[w] == x else t.n - sub[x]

    others = tuple(w for w in adj[x] if w != y)
    return Anchor(
        x=x,
        y=y,
        neighbors=others + (y,),
        side_sizes=tuple(map(side, others)) + (t.n - side(y),),
        threshold=2 * sqrt_ceil(t.n) - 1,
    )


def lift_schedule(t: Tree, v: int, s: BurningSchedule) -> BurningSchedule:
    """Translate a complete schedule for smooth(t, v) back to t, preburning v.

    The result burns t in the same number of rounds; verified by simulation.
    """
    if t.degree(v) != 2:
        raise NotDegreeTwo(f"vertex {v} does not have degree 2")
    smoothed, idmap = smooth(t, v)
    base = simulate(smoothed.graph, s)
    if not is_complete(base):
        raise BaseScheduleIncomplete("schedule does not burn the smoothed tree")
    back = {new: old for old, new in idmap.items()}
    lifted = BurningSchedule(
        sources=tuple(back[x] for x in s.sources), preburn=(v,)
    )
    check = simulate_modified(t.graph, lifted)
    if not is_complete(check) or check.completion > len(s):
        raise LiftVerificationFailed(
            f"lift of {s.sources} across smoothing at {v} did not complete"
        )
    return lifted


@dataclass(frozen=True)
class CertifiedPlan:
    """A schedule together with its claimed bound and verifying burn map."""

    schedule: BurningSchedule
    bound: int
    burn_map: BurnMap

    def __post_init__(self) -> None:
        certify(len(self.schedule) <= self.bound, "plan must fit its bound")
        certify(is_complete(self.burn_map), "plan's burn map must be complete")
        certify(
            self.burn_map.completion <= len(self.schedule),
            "plan's burn map must complete by its last round",
        )

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "sources": list(self.schedule.sources),
            "rounds": list(self.burn_map.rounds),
            "completion": self.burn_map.completion,
        }


def _burn(adj, tag: list[int], old: int, new: int, ignitions) -> tuple[int, int]:
    """Burn the vertices tagged old in the forest adj that the fire reaches,
    retagging each one new as it catches fire, so the tags are the burn's
    visited marks. ignitions are (vertex, round) pairs in ascending round: a
    vertex catches fire in its ignition round or one round after a
    neighbour did, whichever comes first. The burn ends when no vertex
    caught fire in the last round. Returns that last round in which a
    vertex caught fire and the number of vertices burned."""
    lit: list[int] = []
    burned, i = 0, 0
    rnd = ignitions[0][1]
    while True:
        while i < len(ignitions) and ignitions[i][1] == rnd:
            v = ignitions[i][0]
            i += 1
            if tag[v] == old:
                tag[v] = new
                lit.append(v)
        if not lit:
            return rnd - 1, burned
        burned += len(lit)
        frontier, lit = lit, []
        rnd += 1
        for u in frontier:
            for w in adj[u]:
                if tag[w] == old:
                    tag[w] = new
                    lit.append(w)


def _lift(adj, tag: list[int], pieces, lvl: int, y: int, s: int, sources) -> int:
    """Certify that y's side, restored in adj after the smoothing of y at
    level lvl, burns within sources (the schedule of level lvl + 1, on its s
    vertices) with y preburned; returns a round of sources by which it has
    burned.

    pieces holds three lists indexed by piece: its ignitions, its size and
    its last round, in rounds of the whole schedule, in which level lvl + 1
    starts in round lvl + 2. The pieces past lvl are those of y's side, each
    a subtree of it tagged with its index in tag. y catches fire from x in
    round lvl + 2, no later than any ignition past lvl: if its two
    neighbours share a piece, y joins it and the piece is burned again
    within its tags, else y is a piece of its own. Each ignition is no
    earlier than its vertex's round in the burn of y's side, and fire from
    other pieces only speeds a piece, so the last round of a piece bounds
    the rounds of its vertices; the pieces together hold y's side.
    """
    fires, size, end = pieces
    a, c = adj[y]
    p = len(size)
    if tag[a] == tag[c]:  # y's ignition comes first: the list stays in order
        old = tag[y] = tag[a]
        fires.append([(y, lvl + 2)] + fires[old])
        last, burned = _burn(adj, tag, old, p, fires[p])
        certify(burned == size[old] + 1, "a piece's re-burn must reach all of it")
        size[old] = end[old] = 0
    else:
        tag[y] = p
        fires.append([(y, lvl + 2)])
        last, burned = lvl + 2, 1
    size.append(burned)
    end.append(last)
    certify(
        sum(size[lvl + 1 :]) == s + 1,
        "the pieces past a smoothing must make up y's side",
    )
    y_last = max(end[lvl + 1 :]) - (lvl + 1)
    if y_last > len(sources):
        raise LiftVerificationFailed(
            f"lift of {sources} across smoothing at {y} did not complete"
        )
    return y_last


def _plan(tree_adj: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Sources of a schedule of length <= ceil(sqrt(n)) for the HIT with the
    sorted adjacency tree_adj, by the paper's induction run as two loops
    over one mutable copy of it.

    Descent, while the level (the component being planned) has s >= 6
    vertices: find the anchor x, y, cut the edge xy, smooth y away when it
    drops to degree 2 by joining its two neighbours, and plan y's side as
    the next level. A level of 1, 2, 4 or 5 vertices takes its base
    schedule. Ascent, from the base up: undo the smoothing and check that
    y's side with y preburned burns within the schedule, relink xy, put x
    first, and pad with x (a no-op source) up to the x_last <= b =
    ceil(sqrt(s)) rounds x's side took to burn from x on the way down; y's
    side, on fire at y in round 2, runs one round behind its own schedule.

    x_j, the anchor of level j, is source j + 1 of the whole schedule, since
    pads only ever go at the end, and the base's sources follow the last
    anchor. Each level's burn of x's side tags what it reaches with j, and
    the base's burn tags the base: these pieces, with the restored smoothed
    vertices, partition the input. The lift check (see _lift) burns again
    only the one piece a restored y joins, and bounds y's side by the last
    rounds of its pieces. That bound is never below the exact burn of y's
    side, so the check rejects whatever a burn of the whole side would; and
    by the smoothing lemma on the one piece y joins, a correct plan passes.

    The input is rooted once, at 0, and after the top level's walk it is
    re-rooted at x along the one path from x to 0: each vertex on it takes
    the one before as its parent, and all but that one's old subtree as its
    own, with no second search. The descent keeps that rooting valid on
    each level: a cut takes x's side off y's ancestors' subtree sizes, or
    makes y the root when x was its parent, as it always is at the top, and
    a smoothing hangs y's child from y's parent, or roots the level at one
    of a root y's two children. The anchor walk ends at y, so the leaf it starts from
    is on y's side; and since no step makes a leaf, the input's lowest leaf
    is the lowest leaf of every level the descent walks on.

    The walk is kept from level to level (see _anchor). What a level removes,
    x's side and y when it is smoothed, lies across the forward edge of
    every step of the walk before y's predecessor, so those steps keep their
    vertices' adjacency and all their other sides, and the threshold never
    grows; the steps from y and from its predecessor are dropped, and the
    next walk pops the steps that no longer hold and resumes from the rest.
    It takes the steps a walk from the leaf would take, so every anchor is
    the one a fresh walk finds.

    The descent deletes xy from both lists at indices it records, and
    smooths y by writing c where y was in a's list and a where y was in
    c's; the ascent writes y back and re-inserts xy at those indices, so
    each list ends as it began and the input's adjacency is rebuilt exactly.

    The input must be a connected HIT, and since a step changes only the
    adjacency of y, or of y's two neighbours when it smooths y, their
    degrees certify that the next level is a HIT too. Each level's composed
    completion must fit its bound, the input's ceil(sqrt(n)) included; so a
    caller need only simulate the plan it returns, on the graph it was asked
    about. Every tie goes to the lowest input id, as it would if each level
    were re-indexed in id order as a tree of its own.
    """
    adj = [list(nbrs) for nbrs in tree_adj]
    levels: list[tuple[int, int, int, int, int, int, tuple[int, int] | None, int]] = []
    order, parent, sub = _rooted(adj, 0)
    s = len(adj)
    certify(len(order) == s, "the planner's input must be connected")
    certify(2 not in map(len, adj), "every level must be a HIT")
    tag = [-1] * s  # each vertex's piece; -1 until a burn reaches it
    pieces: tuple[list[list[tuple[int, int]]], list[int], list[int]] = ([], [], [])
    fires, size, end = pieces
    # y is the walk's start, or an inner vertex of degree >= 3 on its path,
    # so a cut leaves y a leaf only when the next level is {y}
    leaf = next((v for v in range(s) if len(adj[v]) == 1), -1)
    root = 0
    walk: list[tuple[int, int, int]] = []  # the last anchor walk's steps
    while s >= 6:
        b = sqrt_ceil(s)
        x, y = _anchor(adj, s, parent, sub, leaf, walk)
        del walk[-2:]  # the steps from y and from the vertex before it
        if not levels:  # re-root at x along the path from x to the root
            u, prev, u_sub = x, -1, s
            while u != -1:
                old_parent, old_sub = parent[u], sub[u]
                parent[u], sub[u] = prev, u_sub
                u, prev, u_sub = old_parent, u, s - old_sub
        i, k = adj[x].index(y), adj[y].index(x)
        del adj[x][i], adj[y][k]
        # x's side burns from x alone in 1 + (x's eccentricity in it) rounds
        j = len(levels)
        fires.append([(x, j + 1)])
        x_end, x_size = _burn(adj, tag, -1, j, fires[j])
        size.append(x_size)
        end.append(x_end)
        x_last = x_end - j
        # recursion measure from the anchor's heavy-side guarantee
        certify(
            s - x_size <= s - 2 * b + 1 <= (b - 1) ** 2,
            "heavy side must fit the recursion measure",
        )
        certify(x_last <= b, "anchor side must burn from x within the bound")
        s -= x_size
        up, lost = -1, 0  # up and its ancestors lose lost vertices
        if parent[x] == y:
            up, lost = y, x_size
        else:  # y's subtree was y's side
            parent[y] = -1
            root = y
        joined = None
        changed: tuple[int, ...] = (y,)
        if len(adj[y]) == 2:  # smooth y away
            a, c = adj[y]
            adj[a][adj[a].index(y)] = c
            adj[c][adj[c].index(y)] = a
            joined = changed = (a, c)
            s -= 1
            if y == root:  # both are y's children: hang c from a
                parent[a], parent[c] = -1, a
                sub[a] += sub[c]
                root, up = a, -1
            else:  # y's child takes its place under y's parent
                p = parent[y]
                parent[c if a == p else a] = p
                up, lost = p, lost + 1
        certify(all(len(adj[v]) != 2 for v in changed), "every level must be a HIT")
        while up != -1:
            sub[up] -= lost
            up = parent[up]
        levels.append((x, y, i, k, b, x_last, joined, s))
    order = _rooted(adj, root)[0]
    certify(len(order) == s, "the base level must have the tracked size")
    if s <= 2:
        sources = tuple(sorted(order))
    else:  # the star K_{1,3} or K_{1,4}: its centre, then its lowest leaf
        sources = (
            min(v for v in order if len(adj[v]) > 1),
            min(v for v in order if len(adj[v]) == 1),
        )
    b = sqrt_ceil(s)
    t = len(levels)  # the base's sources are sources t + 1, ... of the whole schedule
    fires.append([(v, t + 1 + i) for i, v in enumerate(sources)])
    base_end, base_size = _burn(adj, tag, -1, t, fires[t])
    size.append(base_size)
    end.append(base_end)
    last = base_end - t
    while True:
        certify(
            last <= len(sources) <= b,
            "each level's schedule must burn it within its bound",
        )
        if not levels:
            break
        x, y, i, k, b, x_last, joined, s = levels.pop()
        y_last = last  # y's side, with y preburned or not, burns by then
        if joined is not None:
            a, c = joined
            adj[a][adj[a].index(c)] = y
            adj[c][adj[c].index(a)] = y
            y_last = _lift(adj, tag, pieces, len(levels), y, s, sources)
        adj[x].insert(i, y)
        adj[y].insert(k, x)
        sources = (x,) + sources
        last = max(x_last, y_last + 1)
        sources += (x,) * max(0, x_last - len(sources))  # no-op repeats of x
    certify(
        tuple(map(tuple, adj)) == tree_adj,
        "the ascent must rebuild the input tree",
    )
    return sources


def hit_schedule(t: Tree) -> CertifiedPlan:
    """Burning schedule of length <= ceil(sqrt(n)) for a HIT (see _plan),
    certified by simulating it on t."""
    if not is_hit(t):
        raise NotAHIT("tree has a degree-2 vertex")
    schedule = BurningSchedule(sources=_plan(t.graph.adj))
    return CertifiedPlan(schedule, sqrt_ceil(t.n), simulate(t.graph, schedule))


def _augmented_adj(t: Tree) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """The sorted adjacency of augment_degree2's tree, and its added-leaf ->
    host map."""
    adj = list(t.graph.adj)
    hosts = [v for v in range(t.n) if len(adj[v]) == 2]
    attach = dict(enumerate(hosts, t.n))
    for leaf, host in attach.items():
        adj[host] += (leaf,)
    adj += [(host,) for host in hosts]
    return tuple(adj), attach


def augment_degree2(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Attach a fresh leaf to every degree-2 vertex, yielding a HIT.

    Returns the augmented tree and the added-leaf -> host map; new leaves get
    ids n, n+1, ... in ascending host order. Each leaf's id exceeds every
    other, so appending it to its host's adjacency keeps that sorted.
    """
    adj, attach = _augmented_adj(t)
    return Tree(Graph(n=len(adj), adj=adj, m=len(adj) - 1)), attach


def tree_schedule_via_augmentation(t: Tree) -> CertifiedPlan:
    """ceil(sqrt(n + d)) schedule for any tree with d degree-2 vertices:
    plan the HIT that augment_degree2 makes, and project added-leaf sources
    onto their hosts (which can only speed burning in the original tree).
    The augmented adjacency is planned as it is, with no Tree built around
    it, and only the projected plan is simulated: _plan has checked that the
    augmented tree is a connected HIT and that its plan fits
    ceil(sqrt(n + d))."""
    adj, attach = _augmented_adj(t)
    sources = tuple(attach.get(s, s) for s in _plan(adj))
    schedule = BurningSchedule(sources=sources)
    return CertifiedPlan(schedule, sqrt_ceil(len(adj)), simulate(t.graph, schedule))
