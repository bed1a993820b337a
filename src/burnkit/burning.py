"""The burning process: round-by-round simulation, the closed-form burn-round
formula, and exact (modified) burning-number search.

A schedule of length k defines exactly k rounds. In round i the i-th source is
burned (a no-op if already burned) and fire spreads from every vertex burned
in round i-1 to its unburned neighbors. A schedule may also carry a preburn
set U, burned in round 1: the modified process.

The exact solver is iterative deepening on k. Completeness of a length-k
schedule is equivalent, by the closed form burn_round(v) = min_i(i + d(v, x_i)),
to the distance balls B(x_i, k-i) covering all vertices. One prover decides
each k on sets of free radii rather than on positions. Rooted at vertex 0 by
BFS, the deepest uncovered vertex u must lie in some ball B(x, r) with r free,
and a covering keeps working when that ball is swapped for one that covers at
least the same uncovered vertices. So for each free r the prover branches
only on the radius-r balls containing u whose uncovered parts no other such
ball's part contains. On a tree that is the single ball B(a, r), with a the
r-th ancestor of u or the root (Slater, R-domination in graphs, 1976). States
whose uncovered vertices outnumber the best-case coverage of the free radii
are pruned, and so are states that need more balls than there are free
radii by a lower bound: with R the largest free radius, greedily pick the
deepest uncovered vertex and strike out the ball of radius R around its
R-th ancestor on a tree, or its own ball of radius 2R otherwise. The picks
are pairwise more than 2R apart, so each needs a ball of its own; on a tree
their number is the minimum R-covering, which equals the maximum
2R-packing (Meir and Moon, Relations between packing and covering numbers
of a tree, 1975). Every state (covered set, free radii) that failed is
remembered. The witness is then fixed one position at a time: the lowest
vertex whose ball leaves a state the prover accepts, which makes it the
lexicographically smallest optimal schedule. The same picks refute, without
a proof, a vertex whose ball leaves more of them uncovered than there are
free radii left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CertificationFailed,
    Disconnected,
    InvalidSource,
    MalformedPlan,
    TooLarge,
    TooSmall,
    certify,
)
from .graph import Graph

DEFAULT_EXACT_LIMIT = 64


@dataclass(frozen=True)
class BurningSchedule:
    """Ordered sources (x_1, ..., x_k), repeats being no-ops, plus an
    optional preburn set U burned in round 1 (the modified process)."""

    sources: tuple[int, ...]
    preburn: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.sources) < 1:
            raise InvalidSource("schedule needs at least one source")
        object.__setattr__(self, "preburn", tuple(sorted(set(self.preburn))))

    def __len__(self) -> int:
        return len(self.sources)

    def to_json_dict(self) -> dict:
        d = {"sources": list(self.sources)}
        if self.preburn:
            d["preburn"] = list(self.preburn)
        return d


def _json_ids(value, key: str) -> tuple[int, ...]:
    """A JSON list of vertex ids; bools are not ids."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise MalformedPlan(f'"{key}" must be a list of integer vertex ids')
    return tuple(value)


def schedule_from_json_dict(d: dict) -> BurningSchedule:
    """Strict inverse of to_json_dict: "sources" is required, "preburn"
    optional, and both hold integer ids only."""
    if not isinstance(d, dict) or "sources" not in d:
        raise MalformedPlan('plan needs a "sources" list')
    return BurningSchedule(
        sources=_json_ids(d["sources"], "sources"),
        preburn=_json_ids(d.get("preburn", []), "preburn"),
    )


@dataclass(frozen=True)
class BurnMap:
    """Per-vertex burn round (None = unburned after the last round)."""

    rounds: tuple[int | None, ...]

    @property
    def completion(self) -> int | None:
        """Max burn round, or None if some vertex stayed unburned."""
        if None in self.rounds:
            return None
        return max(self.rounds) if self.rounds else 0

    def to_json_dict(self) -> dict:
        return {
            "rounds": [0 if r is None else r for r in self.rounds],
            "completion": 0 if self.completion is None else self.completion,
        }


def is_complete(bm: BurnMap) -> bool:
    return None not in bm.rounds


def _check_ids(g: Graph, ids) -> None:
    for v in ids:
        if not (0 <= v < g.n):
            raise InvalidSource(f"vertex id {v} out of range for n={g.n}")


def simulate(g: Graph, s: BurningSchedule) -> BurnMap:
    """Run the burning process for exactly len(s) rounds."""
    # kept apart from simulate_modified: the benchmark traces both names
    return simulate_modified(g, s)


def simulate_modified(g: Graph, m: BurningSchedule) -> BurnMap:
    """Run the process for exactly len(m) rounds: the preburn set and the
    first source burn in round 1."""
    _check_ids(g, m.preburn)
    _check_ids(g, m.sources)
    rounds: list[int | None] = [None] * g.n
    frontier: list[int] = []
    for r, src in enumerate(m.sources, start=1):
        new: list[int] = []
        for u in frontier:
            for w in g.adj[u]:
                if rounds[w] is None:
                    rounds[w] = r
                    new.append(w)
        if r == 1:
            for v in m.preburn:
                if rounds[v] is None:
                    rounds[v] = 1
                    new.append(v)
        if rounds[src] is None:
            rounds[src] = r
            new.append(src)
        frontier = new
    return BurnMap(rounds=tuple(rounds))


def closed_form_rounds(g: Graph, m: BurningSchedule) -> BurnMap:
    """burn_round(v) = min_i(i + d(v, x_i)), plus 1 + d(v, u) over preburn u,
    capped at the schedule length. Independent oracle for simulate."""
    k = len(m.sources)
    best: list[float] = [math.inf] * g.n
    for i, src in enumerate(m.sources, start=1):
        for v, d in enumerate(g.distances_from(src)):
            if d is not None and i + d < best[v]:
                best[v] = i + d
    for u in m.preburn:
        for v, d in enumerate(g.distances_from(u)):
            if d is not None and 1 + d < best[v]:
                best[v] = 1 + d
    return BurnMap(rounds=tuple(int(b) if b <= k else None for b in best))


def _balls_by_radius(
    g: Graph, max_radius: int, balls: list[list[int]], maxcov: list[int]
) -> None:
    """Grow balls and maxcov in place to radii 0..max_radius: balls[r][v] is
    the bitmask of vertices within distance r of v, maxcov[r] the largest
    ball of radius r."""
    if not balls:
        balls.append([1 << v for v in range(g.n)])
        maxcov.append(1)
    while len(balls) <= max_radius:
        prev = balls[-1]
        layer = []
        for v in range(g.n):
            mask = prev[v]
            for w in g.adj[v]:
                mask |= prev[w]
            layer.append(mask)
        balls.append(layer)
        maxcov.append(max(mask.bit_count() for mask in layer))


def _rooted_levels(g: Graph) -> tuple[list[int], list[list[int]] | None]:
    """Root the connected graph g at vertex 0 by BFS: one bitmask of
    vertices per depth and, when g is a tree, the ancestor tables
    [identity, parent], the root being its own parent; None otherwise."""
    parent = list(range(g.n))
    levels = []
    seen = level = 1
    frontier = [0]
    while frontier:
        levels.append(level)
        level = 0
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                bit = 1 << w
                if not seen & bit:
                    seen |= bit
                    level |= bit
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return levels, [list(range(g.n)), parent] if g.m == g.n - 1 else None


def _maximal_parts(layer: list[int], u: int, unc: int) -> list[int]:
    """The distinct sets layer[c] & unc over the centres c of layer[u],
    largest first, less any set that another one contains."""
    parts = set()
    centres = layer[u]
    while centres:
        low = centres & -centres
        parts.add(layer[low.bit_length() - 1] & unc)
        centres ^= low
    kept: list[int] = []
    for part in sorted(parts, key=int.bit_count, reverse=True):
        # a kept set is at least as large, so only it can contain part
        if all(part & other != part for other in kept):
            kept.append(part)
    return kept


def _packing(
    unc: int,
    radius: int,
    limit: int,
    levels: list[int],
    ancestors: list[list[int]] | None,
    balls: list[list[int]],
) -> int:
    """The vertices of unc that a greedy cover picks, deepest first,
    stopping once it holds more than limit. On a tree each pick w strikes
    out the ball of the given radius around w's radius-th ancestor (or the
    root), which holds every vertex of unc that any ball of that radius
    over w holds (Slater, R-domination in graphs, 1976); otherwise it
    strikes out w's own ball of twice the radius. Either way the picks are
    pairwise more than twice the radius apart, so covering unc with balls
    of at most that radius takes one ball per pick. On a tree the count is
    exactly the fewest such balls: the minimum r-covering of a tree equals
    its maximum 2r-packing (Meir and Moon, Relations between packing and
    covering numbers of a tree, 1975). levels and ancestors are
    _search_depth's."""
    if ancestors is None:
        layer, centre = balls[2 * radius], None
    else:
        layer, centre = balls[radius], ancestors[radius]
    picks = count = 0
    d = len(levels) - 1
    while unc and count <= limit:
        while not unc & levels[d]:
            d -= 1
        low = unc & levels[d]
        low &= -low
        picks |= low
        count += 1
        w = low.bit_length() - 1
        unc &= ~layer[w if centre is None else centre[w]]
    return picks


def _feasible(covered: int, free: int, cap: int, state: tuple) -> bool:
    """Whether one ball of each radius in the bitmask free can cover the
    rest of the graph; cap is the sum of maxcov over those radii, and state
    is _search_depth's (full, k, levels, ancestors, balls, maxcov, failed).
    A state fails at once when the uncovered vertices outnumber cap, or
    when _packing at the largest free radius R picks more vertices than
    there are free radii: no two picks share a ball of radius at most R, and
    on a tree the count is the fewest radius-R balls that cover the rest
    (Slater 1976; Meir and Moon 1975). For each radius r, largest first,
    only balls that cover the deepest uncovered vertex u are tried: on a
    tree the ball around u's r-th ancestor, else the balls whose uncovered
    parts no other such ball's part contains. Failed states are added to
    failed."""
    full, k, levels, ancestors, balls, maxcov, failed = state
    if covered == full:
        return True
    unc = full ^ covered
    if unc.bit_count() > cap:
        return False
    key = covered << k | free
    if key in failed:
        return False
    d = len(levels) - 1
    while not unc & levels[d]:
        d -= 1
    low = unc & levels[d]
    u = (low & -low).bit_length() - 1
    slots = free.bit_count()
    picks = _packing(unc, free.bit_length() - 1, slots, levels, ancestors, balls)
    if picks.bit_count() > slots:
        failed.add(key)
        return False
    rest = free
    while rest:
        r = rest.bit_length() - 1
        rest ^= 1 << r
        free_r = free ^ (1 << r)
        cap_r = cap - maxcov[r]
        if ancestors is not None:
            if _feasible(covered | balls[r][ancestors[r][u]], free_r, cap_r, state):
                return True
        else:
            for part in _maximal_parts(balls[r], u, unc):
                if _feasible(covered | part, free_r, cap_r, state):
                    return True
    failed.add(key)
    return False


def _search_depth(
    g: Graph,
    k: int,
    preburn: tuple[int, ...],
    balls: list[list[int]],
    maxcov: list[int],
    levels: list[int],
    ancestors: list[list[int]] | None,
) -> tuple[int, ...] | None:
    """First (lexicographically smallest) source list of length k whose balls,
    together with the preburn set's radius-(k-1) balls, cover all vertices;
    None if none. levels and ancestors come from _rooted_levels(g). Decides
    k with _feasible, then fixes each position in turn to the lowest vertex
    that leaves a feasible state; a vertex whose ball leaves more of the
    position's _packing picks uncovered than there are free radii left is
    refuted without a proof. Grows ancestors[r][v], the r-th ancestor of v
    on a tree, to radius k-1, and the shared ball layers to radius k-1 on a
    tree and otherwise to 2k-2, for _packing's balls of twice a radius."""
    _balls_by_radius(g, k - 1 if ancestors is not None else 2 * k - 2, balls, maxcov)
    while ancestors is not None and len(ancestors) < k:
        parent = ancestors[1]
        ancestors.append([parent[a] for a in ancestors[-1]])
    full = (1 << g.n) - 1
    covered = 0
    for v in preburn:
        covered |= balls[k - 1][v]
    free = (1 << k) - 1
    cap = sum(maxcov[:k])
    # one set of failed states, shared by every prover call at this depth
    state = (full, k, levels, ancestors, balls, maxcov, set())
    if not _feasible(covered, free, cap, state):
        return None
    witness = []
    for radius in range(k - 1, -1, -1):
        free ^= 1 << radius
        cap -= maxcov[radius]
        layer = balls[radius]
        slots = free.bit_count()
        picks = 0
        if free:
            picks = _packing(full ^ covered, radius - 1, g.n, levels, ancestors, balls)
        v = next(
            (
                v
                for v in range(g.n)
                if (picks & ~layer[v]).bit_count() <= slots
                and _feasible(covered | layer[v], free, cap, state)
            ),
            None,
        )
        certify(v is not None, "a feasible state must admit a next source")
        witness.append(v)
        covered |= layer[v]
    return tuple(witness)


def burning_number_exact(
    g: Graph, limit: int = DEFAULT_EXACT_LIMIT, preburn=()
) -> tuple[int, BurningSchedule]:
    """Minimum rounds to burn g, with the preburn set burning in round 1,
    and the lexicographically smallest witness."""
    preburn = tuple(sorted(set(preburn)))
    _check_ids(g, preburn)
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds exact-solver limit {limit}")
    if g.n == 0:
        raise TooSmall("burning needs a graph with at least one vertex")
    if not g.is_connected():
        raise Disconnected("exact solver requires a connected graph")
    # one set of ball layers, grown a radius per depth k
    balls: list[list[int]] = []
    maxcov: list[int] = []
    rooted = _rooted_levels(g)
    for k in range(1, g.n + 1):
        witness = _search_depth(g, k, preburn, balls, maxcov, *rooted)
        if witness is not None:
            found = BurningSchedule(sources=witness, preburn=preburn)
            bm = simulate_modified(g, found)
            certify(
                is_complete(bm) and bm.completion <= k,
                "exact witness must burn the graph within k rounds",
            )
            return k, found
    raise CertificationFailed("k = n always burns a connected graph")
