"""The burning process: round-by-round simulation, the closed-form burn-round
formula, and exact (modified) burning-number search.

A schedule of length k defines exactly k rounds. In round i the i-th source is
burned (a no-op if already burned) and fire spreads from every vertex burned
in round i-1 to its unburned neighbors. A schedule may also carry a preburn
set U, burned in round 1: the modified process.

The exact solver is iterative deepening on k. Completeness of a length-k
schedule is equivalent, by the closed form burn_round(v) = min_i(i + d(v, x_i)),
to the distance balls B(x_i, k-i) covering all vertices. Both searches prune a
state when the uncovered vertices outnumber the best-case coverage of the
remaining ball radii, and both return the lexicographically smallest optimal
schedule as the witness.

On a tree the search works on sets of free radii rather than on positions.
Rooted at vertex 0, the deepest uncovered vertex u must lie in some ball
B(x, r), and B(a, r), with a the r-th ancestor of u (or the root), covers every
uncovered vertex that B(x, r) covers (Slater, R-domination in graphs, 1976).
So a covering exists iff one exists that uses B(a, r) for some free r, and the
prover branches only on those at most k balls, remembering every state
(covered set, free radii) that failed. The witness is then fixed one position
at a time: the lowest vertex whose ball leaves a state the prover accepts.
Graphs with cycles use a depth-first search over source lists in ascending id
order, whose first hit is the lexicographically smallest witness.
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
        if any(r is None for r in self.rounds):
            return None
        return max(self.rounds) if self.rounds else 0

    def to_json_dict(self) -> dict:
        return {
            "rounds": [0 if r is None else r for r in self.rounds],
            "completion": 0 if self.completion is None else self.completion,
        }


def is_complete(bm: BurnMap) -> bool:
    return all(r is not None for r in bm.rounds)


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


def _search_depth(
    g: Graph,
    k: int,
    preburn: tuple[int, ...],
    balls: list[list[int]],
    maxcov: list[int],
) -> tuple[int, ...] | None:
    """First (lexicographically smallest) source list of length k whose balls,
    together with the preburn set's radius-(k-1) balls, cover all vertices.
    None if none. Grows the shared ball layers to radius k-1 first."""
    _balls_by_radius(g, k - 1, balls, maxcov)
    full = (1 << g.n) - 1
    initial = 0
    for v in preburn:
        initial |= balls[k - 1][v]
    # remaining_cap[i] = best-case coverage of positions i+1..k
    remaining_cap = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        remaining_cap[i] = remaining_cap[i + 1] + maxcov[k - 1 - i]
    prefix: list[int] = []

    def dfs(pos: int, covered: int) -> bool:
        if covered == full:
            prefix.extend([0] * (k - pos))
            return True
        if pos == k:
            return False
        if (full ^ covered).bit_count() > remaining_cap[pos]:
            return False
        radius = k - 1 - pos
        layer = balls[radius]
        for v in range(g.n):
            prefix.append(v)
            if dfs(pos + 1, covered | layer[v]):
                return True
            prefix.pop()
        return False

    if dfs(0, initial):
        return tuple(prefix)
    return None


def _rooted_levels(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Root the tree g at vertex 0 by BFS: one bitmask of vertices per
    depth, and the ancestor tables [identity, parent], the root being its
    own parent."""
    parent = list(range(g.n))
    levels = [1]
    seen = 1
    frontier = [0]
    while True:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    parent[w] = u
                    nxt.append(w)
        if not nxt:
            return levels, [list(range(g.n)), parent]
        levels.append(sum(1 << w for w in nxt))
        frontier = nxt


def _tree_feasible(
    covered: int,
    free: int,
    cap: int,
    full: int,
    k: int,
    levels: list[int],
    ancestors: list[list[int]],
    balls: list[list[int]],
    maxcov: list[int],
    failed: set[int],
) -> bool:
    """Whether one ball of each radius in the bitmask free can cover the
    rest of the tree; cap is the sum of maxcov over those radii. Only the
    ball around the r-th ancestor of the deepest uncovered vertex is tried
    for each radius r, largest first. Failed states are added to failed."""
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
    rest = free
    while rest:
        r = rest.bit_length() - 1
        rest ^= 1 << r
        if _tree_feasible(
            covered | balls[r][ancestors[r][u]],
            free ^ (1 << r),
            cap - maxcov[r],
            full,
            k,
            levels,
            ancestors,
            balls,
            maxcov,
            failed,
        ):
            return True
    failed.add(key)
    return False


def _tree_search_depth(
    g: Graph,
    k: int,
    preburn: tuple[int, ...],
    balls: list[list[int]],
    maxcov: list[int],
    levels: list[int],
    ancestors: list[list[int]],
) -> tuple[int, ...] | None:
    """_search_depth for a tree g rooted by _rooted_levels, with the same
    result. Decides k with _tree_feasible, then fixes each position in turn
    to the lowest vertex that leaves a feasible state. Grows the shared
    ball layers and ancestors[r][v], the r-th ancestor of v, to radius k-1."""
    _balls_by_radius(g, k - 1, balls, maxcov)
    while len(ancestors) < k:
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
    if not _tree_feasible(covered, free, cap, *state):
        return None
    witness = []
    for radius in range(k - 1, -1, -1):
        free ^= 1 << radius
        cap -= maxcov[radius]
        layer = balls[radius]
        v = next(
            (
                v
                for v in range(g.n)
                if _tree_feasible(covered | layer[v], free, cap, *state)
            ),
            None,
        )
        certify(v is not None, "a feasible tree state must admit a next source")
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
    rooted = _rooted_levels(g) if g.m == g.n - 1 else None
    for k in range(1, g.n + 1):
        if rooted is None:
            witness = _search_depth(g, k, preburn, balls, maxcov)
        else:
            witness = _tree_search_depth(g, k, preburn, balls, maxcov, *rooted)
        if witness is not None:
            found = BurningSchedule(sources=witness, preburn=preburn)
            bm = simulate_modified(g, found)
            certify(
                is_complete(bm) and bm.completion <= k,
                "exact witness must burn the graph within k rounds",
            )
            return k, found
    raise CertificationFailed("k = n always burns a connected graph")
