"""Bipartite matching and radius-constrained cop assignment.

`assign_within_radius` is the workhorse: given destination vertices X and
cop positions Y, it matches every destination to a distinct cop at graph
distance at most r.  Incidence is materialized by one batched truncated
BFS from the destinations or from the distinct cop vertices, whichever
set is smaller.  When no perfect matching on X exists, the result carries a
Hall violation witness: a set K of destinations whose joint candidate
set is smaller than K (found by alternating reachability from unmatched
destinations).

All tie-breaking is deterministic: destinations are processed in
ascending vertex order and candidate cops scanned in ascending order, so
reruns reproduce the same assignment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

# bfs_distances is no longer called here; the name stays bound because
# the benchmark's tracer (perfbench/tracing.py) patches it in this module
from .graph import GraphView, _concat_ranges, bfs_distances, bfs_per_source  # noqa: F401

__all__ = [
    "AssignmentProblem",
    "AssignmentResult",
    "max_matching",
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

    Failed searches share one visited set, cleared after each success: a
    failed search changes no matching, so every right vertex it reached
    stays dead until the next augmentation and need not be searched again.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    seen: set[int] = set()

    def try_augment(root: int) -> bool:
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
        if u not in match_l and try_augment(u):
            seen.clear()
    return match_l


def _violation_witness(
    adj: dict[int, list[int]], left: list[int], match_l: dict[int, int]
) -> tuple[int, ...]:
    """Hall violator: lefts reachable by alternating paths from an unmatched left."""
    match_r = {w: u for u, w in match_l.items()}
    start = [u for u in left if u not in match_l]
    reach_l = set(start)
    reach_r: set[int] = set()
    queue = deque(start)
    while queue:
        u = queue.popleft()
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


def _candidate_slots(g: GraphView, xs: list[int], ys: tuple[int, ...], r: int) -> dict[int, list[int]]:
    """For each destination in xs, the cop slots within distance r, ascending.

    Distance is symmetric, so one batched truncated BFS runs from the
    destinations or from the distinct cop vertices, whichever set is
    smaller.  A pair (x, slot) is coded x_index * len(ys) + slot, and one
    sort of the codes lists every destination's slots in order.
    """
    cops = sorted(set(ys))
    # the slots at cops[c] are slot_order[slot_start[c]:][:slot_count[c]], ascending
    ys_arr = np.asarray(ys, dtype=np.int64)
    slot_order = np.argsort(ys_arr, kind="stable").astype(np.int32)
    slot_start = np.searchsorted(ys_arr[slot_order], cops).astype(np.int32)
    slot_count = np.diff(slot_start, append=np.int32(len(ys)))
    from_cops = len(cops) < len(xs)
    sources, targets = (cops, xs) if from_cops else (xs, cops)
    target_at = np.full(g.n, -1, dtype=np.int32)
    target_at[targets] = np.arange(len(targets), dtype=np.int32)
    codes = [np.zeros(0, dtype=np.int64)]
    for first, _, which, verts in bfs_per_source(g, sources, r):
        t = target_at[verts]
        hit = t >= 0
        s, t = which[hit] + np.int32(first), t[hit]
        xi, ci = (t, s) if from_cops else (s, t)
        counts = slot_count[ci]
        slots = _concat_ranges(slot_order, slot_start[ci], counts)
        code = np.repeat(xi, counts).astype(np.int64)
        code *= len(ys)
        code += slots
        codes.append(code)
    codes = np.concatenate(codes)
    codes.sort()
    bounds = np.searchsorted(codes, np.arange(len(xs) + 1) * len(ys)).tolist()
    codes %= max(len(ys), 1)
    return {x: codes[bounds[i]:bounds[i + 1]].tolist() for i, x in enumerate(xs)}


def assign_within_radius(g: GraphView, problem: AssignmentProblem) -> AssignmentResult:
    """Match every destination to a distinct cop within the radius.

    Cop slots are indices into problem.y_vertices; a destination's
    candidates are the slots of every cop vertex within the radius, in
    ascending slot order.
    """
    xs = sorted(problem.x_vertices)
    adj = _candidate_slots(g, xs, problem.y_vertices, problem.radius)
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
