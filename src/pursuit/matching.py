"""Bipartite matching and radius-constrained cop assignment.

`assign_within_radius` is the workhorse: given destination vertices X and
cop positions Y, it matches every destination to a distinct cop at graph
distance at most r.  Incidence is materialized by one truncated BFS per
destination.  When no perfect matching on X exists, the result carries a
Hall violation witness: a set K of destinations whose joint candidate
set is smaller than K (found by alternating reachability from unmatched
destinations).

All tie-breaking is deterministic: destinations are processed in
ascending vertex order and candidate cops scanned in ascending order, so
reruns reproduce the same assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import GraphView, bfs_distances

__all__ = [
    "AssignmentProblem",
    "AssignmentResult",
    "max_matching",
    "hall_deficiency",
    "assign_within_radius",
]


@dataclass(frozen=True)
class AssignmentProblem:
    """Destinations X, cop multiset Y, and the distance cap."""

    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if len(set(self.x_vertices)) != len(self.x_vertices):
            raise ValueError("destinations must be distinct")


@dataclass
class AssignmentResult:
    """Outcome of an assignment attempt.

    `assignment` maps destination -> index into y_vertices (cop slots are
    indices, since Y is a multiset and one vertex can host several cops).
    On failure, `violation` is a tuple K of destinations with
    |candidates(K)| < |K|, and `deficiency` = |X| - max matching.
    """

    problem: AssignmentProblem
    feasible: bool
    assignment: dict[int, int] = field(default_factory=dict)
    deficiency: int = 0
    violation: tuple[int, ...] = ()


def max_matching(adj: dict[int, list[int]], left: list[int]) -> dict[int, int]:
    """Maximum bipartite matching via augmenting paths (Kuhn).

    `adj[u]` lists right-side ids for left vertex u.  Left vertices are
    processed in the given order and neighbors in list order, which keeps
    the result deterministic.  Each augmenting search is a depth-first
    search on an explicit stack, so a long augmenting path costs no
    recursion depth.  Returns left -> right for matched lefts.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def try_augment(root: int) -> bool:
        seen: set[int] = set()
        # stack[i] = (left vertex, its unscanned neighbors); via[i] is the
        # right vertex that led from stack[i] to stack[i + 1]
        stack = [(root, iter(adj.get(root, ())))]
        via: list[int] = []
        while stack:
            u, rest = stack[-1]
            for w in rest:
                if w in seen:
                    continue
                seen.add(w)
                if w not in match_r:
                    # flip the path, deepest pair first
                    for (x, _), y in zip(reversed(stack), [w] + via[::-1]):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                via.append(w)
                stack.append((match_r[w], iter(adj.get(match_r[w], ()))))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
        return False

    for u in left:
        if u not in match_l:
            try_augment(u)
    return match_l


def hall_deficiency(adj: dict[int, list[int]], left: list[int]) -> int:
    """max over K of |K| - |N(K)|, which equals |left| - max matching."""
    return len(left) - len(max_matching(adj, left))


def _violation_witness(
    adj: dict[int, list[int]], left: list[int], match_l: dict[int, int]
) -> tuple[int, ...]:
    """Hall violator: lefts reachable by alternating paths from an unmatched left."""
    match_r = {w: u for u, w in match_l.items()}
    start = [u for u in left if u not in match_l]
    reach_l = set(start)
    reach_r: set[int] = set()
    queue = list(start)
    while queue:
        u = queue.pop(0)
        for w in adj.get(u, ()):
            if w in reach_r:
                continue
            reach_r.add(w)
            nxt = match_r.get(w)
            if nxt is not None and nxt not in reach_l:
                reach_l.add(nxt)
                queue.append(nxt)
    # |N(reach_l)| = |reach_r| = |reach_l| - #unmatched < |reach_l|
    return tuple(sorted(reach_l))


def assign_within_radius(g: GraphView, problem: AssignmentProblem) -> AssignmentResult:
    """Match every destination to a distinct cop within the radius.

    Cop slots are indices into problem.y_vertices.  Candidates for a
    destination are collected by BFS from the destination truncated at
    the radius, in ascending cop-slot order.
    """
    xs = sorted(problem.x_vertices)
    ys = problem.y_vertices
    r = problem.radius
    # slot lists per cop vertex so multiset members become distinct slots
    slots_at: dict[int, list[int]] = {}
    for i, y in enumerate(ys):
        slots_at.setdefault(y, []).append(i)

    adj: dict[int, list[int]] = {}
    for x in xs:
        dist = bfs_distances(g, [x], max_depth=r)
        cands: list[int] = []
        for y, slots in slots_at.items():
            if dist[y] >= 0:
                cands.extend(slots)
        adj[x] = sorted(cands)

    match_l = max_matching(adj, xs)
    if len(match_l) == len(xs):
        return AssignmentResult(problem, True, assignment=dict(sorted(match_l.items())))
    witness = _violation_witness(adj, xs, match_l)
    return AssignmentResult(
        problem,
        False,
        assignment=dict(sorted(match_l.items())),
        deficiency=len(xs) - len(match_l),
        violation=witness,
    )
