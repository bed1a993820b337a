"""Constructive burning schedules for trees without degree-2 vertices.

The pipeline: an anchor search locates a vertex x all of whose neighbor-side
components are small except one heavy side; the recursion burns x first, then
handles the heavy neighbor's side, smoothing the cut vertex when it drops to
degree 2 and lifting the sub-schedule back across the smoothing. Every
constructive step re-verifies its output by simulation, so the ceil(sqrt(n))
guarantee is an executable contract rather than a trusted proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .burning import (
    BurnMap,
    BurningSchedule,
    ModifiedSchedule,
    is_complete,
    simulate,
    simulate_modified,
)
from .errors import (
    BaseScheduleIncomplete,
    CertificationFailed,
    LiftVerificationFailed,
    NotAHIT,
    NotDegreeTwo,
    ProjectionVerificationFailed,
    TooSmall,
    certify,
)
from .graph import Tree, bridge_component, build_tree, is_hit, smooth


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


def find_anchor(t: Tree) -> Anchor:
    """Walk from the lowest-id leaf toward heavy sides until every side but
    the one behind us is light (size < 2*ceil(sqrt(n)) - 1)."""
    n = t.n
    if n < 6:
        raise TooSmall(f"anchor search needs n >= 6, got {n}")
    tau = 2 * sqrt_ceil(n) - 1
    leaf = t.leaves[0]
    x, came_from = t.graph.adj[leaf][0], leaf
    for _ in range(n):
        sizes = _branch_sizes(t, x)
        heavy = [v for v in t.graph.adj[x] if v != came_from and sizes[v] >= tau]
        if not heavy:
            others = tuple(v for v in t.graph.adj[x] if v != came_from)
            side_sizes = tuple(sizes[v] for v in others) + (n - sizes[came_from],)
            anchor = Anchor(
                x=x,
                y=came_from,
                neighbors=others + (came_from,),
                side_sizes=side_sizes,
                threshold=tau,
            )
            certify(anchor.heavy_size >= tau, "anchor's heavy side must reach tau")
            certify(
                all(s < tau for s in anchor.light_sizes),
                "anchor's light sides must stay below tau",
            )
            return anchor
        x, came_from = min(heavy), x
    raise CertificationFailed("anchor walk failed to terminate within n steps")


def lift_schedule(t: Tree, v: int, s: BurningSchedule) -> ModifiedSchedule:
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
    lifted = ModifiedSchedule(
        preburn=(v,), sources=tuple(back[x] for x in s.sources)
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


def _subtree(t: Tree, vertices: tuple[int, ...]) -> tuple[Tree, dict[int, int]]:
    """Induced subtree on a connected vertex set, with old->new id map."""
    idmap = {old: new for new, old in enumerate(vertices)}
    keep = set(vertices)
    edges = [
        (idmap[u], idmap[w]) for u, w in t.graph.edges() if u in keep and w in keep
    ]
    return build_tree(len(vertices), edges), idmap


def _modified_subschedule(t: Tree, y: int) -> ModifiedSchedule:
    """Schedule for a heavy side rooted at the already-burning cut vertex y.

    If y has degree 2 in the side, smooth it, solve the resulting HIT, and
    lift; otherwise the side is itself a HIT and its schedule is reused with
    y preburned.
    """
    if t.n == 1:
        return ModifiedSchedule(preburn=(y,), sources=(y,))
    if t.degree(y) == 2:
        smoothed, _ = smooth(t, y)
        return lift_schedule(t, y, hit_schedule(smoothed).schedule)
    plan = hit_schedule(t)
    return ModifiedSchedule(preburn=(y,), sources=plan.schedule.sources)


def hit_schedule(t: Tree) -> CertifiedPlan:
    """Burning schedule of length <= ceil(sqrt(n)) for a HIT, by induction:
    hardcoded bases for n <= 5, then anchor + heavy-side recursion."""
    if not is_hit(t):
        raise NotAHIT("tree has a degree-2 vertex")
    n = t.n
    bound = sqrt_ceil(n)
    if n == 1:
        sources: tuple[int, ...] = (0,)
    elif n == 2:
        sources = (0, 1)
    elif n in (4, 5):
        center = t.internal[0]
        sources = (center, t.leaves[0])
    else:
        anchor = find_anchor(t)
        x, y = anchor.x, anchor.y
        x_side = bridge_component(t, x, y)
        y_side = bridge_component(t, y, x)
        # recursion measure from the anchor's heavy-side guarantee
        certify(
            y_side.size <= n - 2 * bound + 1 <= (bound - 1) ** 2,
            "heavy side must fit the recursion measure",
        )
        certify(
            max(
                d for v, d in enumerate(t.graph.distances_from(x))
                if v in set(x_side.vertices)
            ) <= bound - 1,
            "anchor side must burn from x within the bound",
        )
        sub, idmap = _subtree(t, y_side.vertices)
        msched = _modified_subschedule(sub, idmap[y])
        back = {new: old for old, new in idmap.items()}
        sources = (x,) + tuple(back[s] for s in msched.sources)
        while len(sources) < bound and not is_complete(
            simulate(t.graph, BurningSchedule(sources=sources))
        ):
            sources = sources + (x,)
    schedule = BurningSchedule(sources=sources)
    bm = simulate(t.graph, schedule)
    certify(is_complete(bm), "construction must burn the whole tree")
    return CertifiedPlan(schedule=schedule, bound=bound, burn_map=bm)


def augment_degree2(t: Tree) -> tuple[Tree, dict[int, int]]:
    """Attach a fresh leaf to every degree-2 vertex, yielding a HIT.

    Returns the augmented tree and the added-leaf -> host map; new leaves get
    ids n, n+1, ... in ascending host order.
    """
    hosts = [v for v in range(t.n) if t.degree(v) == 2]
    edges = list(t.graph.edges())
    attach: dict[int, int] = {}
    for offset, host in enumerate(hosts):
        leaf = t.n + offset
        edges.append((host, leaf))
        attach[leaf] = host
    return build_tree(t.n + len(hosts), edges), attach


def tree_schedule_via_augmentation(t: Tree) -> CertifiedPlan:
    """ceil(sqrt(n + d)) schedule for any tree with d degree-2 vertices:
    augment to a HIT, schedule it, and project added-leaf sources onto their
    hosts (which can only speed burning in the original tree)."""
    augmented, attach = augment_degree2(t)
    plan = hit_schedule(augmented)
    bound = sqrt_ceil(augmented.n)
    sources = tuple(attach.get(s, s) for s in plan.schedule.sources)
    schedule = BurningSchedule(sources=sources)
    bm = simulate(t.graph, schedule)
    if not is_complete(bm) or bm.completion > len(schedule):
        raise ProjectionVerificationFailed(
            "projected schedule did not burn the original tree"
        )
    return CertifiedPlan(schedule=schedule, bound=bound, burn_map=bm)
