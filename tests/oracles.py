"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms and
data structures than the library: dict-and-set BFS instead of CSR
arrays, Hall subset enumeration instead of augmenting paths, bounded
minimax instead of retrograde tables, mask enumeration instead of
generators.  The one retrograde here is a list-and-dict level loop, the
reference for the solver's array sweep.  Frozen constants carry a
comment saying how they were computed.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
import numpy as np

from pursuit.graph import GraphView, from_edges

INF = float("inf")


# ---------------------------------------------------------------------------
# Reference BFS


def adjacency_sets(g: GraphView) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def bfs_from(adj: list[set[int]], sources) -> dict[int, int]:
    dist = {int(s): 0 for s in sources}
    q = deque(sorted(dist))
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def bfs_tree_children(adj: list[set[int]], root: int) -> tuple[dict[int, int], dict[int, int]]:
    """FIFO BFS from root scanning each vertex's neighbours in ascending
    order; a vertex's parent is the vertex that first reaches it.
    Returns (distance, number of tree children) per reached vertex."""
    dist = {root: 0}
    children = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for w in sorted(adj[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                children[w] = 0
                children[u] += 1
                q.append(w)
    return dist, children


def q_set_reference(g: GraphView, v: int, r: int, r_prime: int, d: float) -> tuple[frozenset, int]:
    """Q and the largest |S(a, r_prime) & Q| over a in S(v, r), from dict BFS."""
    adj = adjacency_sets(g)
    dist, children = bfs_tree_children(adj, v)
    q = frozenset(u for u, du in dist.items() if du <= r + r_prime and children[u] < 2.0 * d / 3.0)
    per_a_max = 0
    for a in (u for u, du in dist.items() if du == r):
        sa = [x for x, dx in bfs_from(adj, [a]).items() if dx == r_prime]
        per_a_max = max(per_a_max, sum(1 for x in sa if x in q))
    return q, per_a_max


def all_pairs_dist(g: GraphView) -> list[dict[int, int]]:
    adj = adjacency_sets(g)
    return [bfs_from(adj, [s]) for s in range(g.n)]


def two_smallest_source_dists(g: GraphView, sources: list[int]) -> tuple[list, list]:
    """Per vertex, the two smallest distances to distinct source list
    entries (duplicated sources count twice); None when unreachable."""
    adj = adjacency_sets(g)
    per_source = [bfs_from(adj, [s]) for s in sources]
    d1, d2 = [], []
    for v in range(g.n):
        ds = sorted(ps.get(v, INF) for ps in per_source)
        a = ds[0] if ds and ds[0] is not INF else None
        b = ds[1] if len(ds) > 1 and ds[1] is not INF else None
        d1.append(a)
        d2.append(b)
    return d1, d2


# ---------------------------------------------------------------------------
# Graph enumeration

# labeled connected graph counts, computed here by mask enumeration and
# matching the classical sequence 1, 1, 4, 38, 728, 26704
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

# connected graphs up to isomorphism: 1, 1, 2, 6, 21, 112
ISO_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def edges_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    ps = vertex_pairs(n)
    return [ps[i] for i in range(len(ps)) if mask >> i & 1]


def is_connected_edges(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_masks(n: int):
    """All labeled connected graphs on n vertices as edge masks."""
    ps = vertex_pairs(n)
    for mask in range(1 << len(ps)):
        if is_connected_edges(n, edges_of_mask(n, mask)):
            yield mask


def canon_mask(n: int, edges) -> int:
    """Minimum edge mask over all vertex relabelings."""
    ps = vertex_pairs(n)
    pidx = {e: i for i, e in enumerate(ps)}
    best = None
    es = list(edges)
    for perm in itertools.permutations(range(n)):
        m = 0
        for u, v in es:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            m |= 1 << pidx[(a, b)]
        if best is None or m < best:
            best = m
    return best


def connected_reps(n_max: int = 6) -> dict[int, list[frozenset]]:
    """One representative per connected isomorphism class, n <= n_max.

    Grown by attaching a new highest-id vertex to every nonempty subset
    of an (n-1)-vertex representative; every connected graph has a
    non-cut vertex, so every class is reached.
    """
    if n_max > 6:
        raise ValueError("representative growth is only affordable up to 6")
    reps: dict[int, list[frozenset]] = {1: [frozenset()]}
    for n in range(2, n_max + 1):
        seen = set()
        out = []
        for base in reps[n - 1]:
            for sub in range(1, 1 << (n - 1)):
                attach = [i for i in range(n - 1) if sub >> i & 1]
                edges = set(base) | {(i, n - 1) for i in attach}
                key = canon_mask(n, edges)
                if key not in seen:
                    seen.add(key)
                    out.append(frozenset(edges))
        reps[n] = out
    return reps


def seven_vertex_cover(reps6: list[frozenset]):
    """Labeled 7-vertex graphs covering every connected class at least
    once (possibly with repeats): each 6-vertex representative plus a
    new vertex attached to each nonempty subset."""
    for base in reps6:
        for sub in range(1, 1 << 6):
            attach = [i for i in range(6) if sub >> i & 1]
            yield sorted(set(base) | {(i, 6) for i in attach})


# ---------------------------------------------------------------------------
# Hall condition by subset enumeration


def hall_feasible(adj: dict[int, list[int]], left: list[int]) -> bool:
    """X-saturating matching exists iff every subset S of X has
    |N(S)| >= |S| (Hall).  adj maps left vertex -> candidate list."""
    k = len(left)
    nb = [frozenset(adj.get(x, ())) for x in left]
    for mask in range(1, 1 << k):
        need = mask.bit_count()
        union = set()
        for i in range(k):
            if mask >> i & 1:
                union |= nb[i]
        if len(union) < need:
            return False
    return True


def hall_worst_subset(adj: dict[int, list[int]], left: list[int]) -> tuple[int, ...]:
    """A subset of X maximizing |S| - |N(S)| (a Hall violation witness
    when that gap is positive)."""
    k = len(left)
    nb = [frozenset(adj.get(x, ())) for x in left]
    best_gap, best = -(10**9), ()
    for mask in range(1, 1 << k):
        chosen = [left[i] for i in range(k) if mask >> i & 1]
        union = set()
        for i in range(k):
            if mask >> i & 1:
                union |= nb[i]
        gap = len(chosen) - len(union)
        if gap > best_gap:
            best_gap, best = gap, tuple(sorted(chosen))
    return best


def matching_size_backtracking(adj: dict[int, list[int]], left: list[int]) -> int:
    """Maximum matching size by exhaustive assignment with memo on
    (index, used-right-frozenset); fine for the small instances here."""
    rights = sorted({y for x in left for y in adj.get(x, ())})
    ridx = {y: i for i, y in enumerate(rights)}
    from functools import lru_cache

    rows = tuple(
        tuple(sorted(ridx[y] for y in adj.get(x, ()))) for x in left
    )

    @lru_cache(maxsize=None)
    def go(i: int, used: int) -> int:
        if i == len(rows):
            return 0
        best = go(i + 1, used)
        for y in rows[i]:
            if not used >> y & 1:
                best = max(best, 1 + go(i + 1, used | 1 << y))
        return best

    return go(0, 0)


# ---------------------------------------------------------------------------
# Bounded minimax for the pursuit game


class MinimaxOracle:
    """Capture time by depth-capped minimax, counting cop moves.

    value(cops, robber, turn): 0 if the robber stands on a cop; at cop
    turn 1 + min over joint cop moves; at robber turn max over her
    closed neighborhood.  Depth decreases on cop moves only; INF means
    no forced capture within the budget.
    """

    def __init__(self, g: GraphView, depth: int):
        self.g = g
        self.depth = depth
        self.nbh = [
            tuple(sorted([v] + [int(x) for x in g.adjacency(v)])) for v in range(g.n)
        ]
        self.memo: dict = {}

    def cop_moves(self, cops: tuple[int, ...]):
        opts = [self.nbh[c] for c in cops]
        return sorted({tuple(sorted(m)) for m in itertools.product(*opts)})

    def value(self, cops: tuple[int, ...], robber: int, cop_turn: bool, depth: int):
        if robber in cops:
            return 0
        if depth == 0:
            return INF
        key = (cops, robber, cop_turn, depth)
        if key in self.memo:
            return self.memo[key]
        if cop_turn:
            best = INF
            for ms in self.cop_moves(cops):
                if robber in ms:
                    best = 1
                    break
                sub = self.value(ms, robber, False, depth - 1)
                if sub is not INF:
                    best = min(best, 1 + sub)
            out = best
        else:
            worst = 0
            for r2 in self.nbh[robber]:
                sub = self.value(cops, r2, True, depth)
                worst = max(worst, sub)
                if worst is INF:
                    break
            out = worst
        self.memo[key] = out
        return out

    def best_placement_value(self, k: int):
        """min over cop placements of max over robber choices."""
        best = INF
        for cops in itertools.combinations_with_replacement(range(self.g.n), k):
            worst = 0
            for r in range(self.g.n):
                worst = max(worst, self.value(cops, r, True, self.depth))
                if worst is INF:
                    break
            best = min(best, worst)
        return best


def reference_retrograde(g: GraphView, k: int):
    """Full retrograde tables by the list-and-dict level loop.

    Returns (multisets, win, steps) over positions (ci*n + r)*2 + turn,
    ci indexing `multisets` in combinations_with_replacement order, turn
    0 for the cops; steps is -1 where the robber escapes.  Cop successors
    come from itertools.product over closed neighbourhoods, and the level
    loop walks Python lists of newly won positions.
    """
    n = g.n
    multisets = list(itertools.combinations_with_replacement(range(n), k))
    mindex = {ms: i for i, ms in enumerate(multisets)}
    nbh = [sorted([v] + [int(x) for x in g.adjacency(v)]) for v in range(n)]
    cop_succ = [
        sorted({mindex[tuple(sorted(c))] for c in itertools.product(*(nbh[c] for c in ms))})
        for ms in multisets
    ]
    total = len(multisets) * n * 2
    win = [False] * total
    steps = [-1] * total
    counter = [0] * (len(multisets) * n)  # robber-turn out-degrees

    cop_wins: list[tuple[int, int]] = []  # (ci, r) newly won at current level
    robber_wins: list[tuple[int, int]] = []
    for ci, ms in enumerate(multisets):
        base = ci * n
        for r in range(n):
            if r in ms:
                p = (base + r) * 2
                win[p] = win[p + 1] = True
                steps[p] = steps[p + 1] = 0
                cop_wins.append((ci, r))
                robber_wins.append((ci, r))
            else:
                counter[base + r] = len(nbh[r])

    level = 0
    while cop_wins or robber_wins:
        # cop-turn wins at this level feed robber-turn counters
        for ci, r in cop_wins:
            base = ci * n
            for rp in nbh[r]:
                q = base + rp
                if win[q * 2 + 1]:
                    continue
                counter[q] -= 1
                if counter[q] == 0:
                    win[q * 2 + 1] = True
                    steps[q * 2 + 1] = level
                    robber_wins.append((ci, rp))
        # robber-turn wins propagate to cop-turn predecessors one level up
        next_cop_wins: list[tuple[int, int]] = []
        for ci, r in robber_wins:
            for cj in cop_succ[ci]:
                p = (cj * n + r) * 2
                if win[p]:
                    continue
                win[p] = True
                steps[p] = level + 1
                next_cop_wins.append((cj, r))
        cop_wins = next_cop_wins
        robber_wins = []
        level += 1
    return multisets, win, steps


# ---------------------------------------------------------------------------
# Planar test graphs


def delaunay_graphs(count: int, max_n: int, seed: int) -> list[GraphView]:
    """Connected planar graphs from Delaunay triangulations of random
    points (triangulations are planar by construction)."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, max_n + 1))
        pts = rng.random((n, 2))
        try:
            tri = Delaunay(pts)
        except Exception:
            continue
        edges = set()
        for simplex in tri.simplices:
            a, b, c = (int(x) for x in simplex)
            for u, v in ((a, b), (a, c), (b, c)):
                edges.add((min(u, v), max(u, v)))
        if not is_connected_edges(n, edges):
            continue
        out.append(from_edges(n, sorted(edges)))
    return out


# ---------------------------------------------------------------------------
# Cubic graphs on 8 vertices: exact labeled counts per class

# computed by exhaustive backtracking over all 19355 labeled 3-regular
# graphs on 8 vertices, bucketed by an isomorphism-invariant signature;
# 840 = 8!/48 is the cube graph, 35 = C(8,4)/2 is two disjoint K4
CUBIC8_TOTAL = 19355
CUBIC8_CLASSES = {
    ((0, 0, 1, 1, 1, 1, 1, 1), 3, False, True): 10080,
    ((0, 0, 0, 0, 0, 1, 1, 1), 3, False, True): 3360,
    ((0, 0, 0, 0, 0, 0, 0, 0), 4, False, True): 2520,
    ((1, 1, 1, 1, 2, 2, 2, 2), 3, False, True): 2520,
    ((0, 0, 0, 0, 0, 0, 0, 0), 4, True, True): 840,
    ((3, 3, 3, 3, 3, 3, 3, 3), 3, False, False): 35,
}


def cubic8_signature(g: GraphView):
    """(sorted per-vertex triangle counts, girth, bipartite, connected)."""
    adj = adjacency_sets(g)
    n = g.n
    tri = [0] * n
    for u in range(n):
        nb = sorted(adj[u])
        for a, b in itertools.combinations(nb, 2):
            if b in adj[a]:
                tri[u] += 1
    girth = 99
    for s in range(n):
        dist = {s: 0}
        par = {s: -1}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    q.append(w)
                elif w != par[u]:
                    girth = min(girth, dist[u] + dist[w] + 1)
    color = {0: 0}
    stack = [0]
    bip = True
    seen = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = color[u] ^ 1
                stack.append(w)
                seen += 1
            elif color[w] == color[u]:
                bip = False
    return (tuple(sorted(tri)), girth, bip, seen == n)


# ---------------------------------------------------------------------------
# Reference values for the root of x(log(eps x) - 1) = -1/2

# computed independently with scipy.optimize.brentq at xtol=1e-15
G_EPS_REFERENCE = {
    0.05: 0.07608446932610634,
    0.1: 0.087049406962701,
    0.15: 0.09527182865342125,
    0.2: 0.10225534031195002,
    0.25: 0.10852994260652095,
    0.3: 0.11435258653855447,
    0.35: 0.11987059987193985,
    0.4: 0.12517811760207967,
    0.45: 0.13034020038430894,
    0.5: 0.1354046808824973,
    0.55: 0.1404085944457241,
    0.6: 0.14538195034559656,
    0.65: 0.15035008894758747,
    0.7: 0.1553352404921259,
    0.75: 0.16035761288369116,
    0.8: 0.16543619387350766,
    0.85: 0.17058937897517035,
    0.9: 0.1758354962576828,
    0.95: 0.18119327695194792,
    1.0: 0.18668230885083706,
}


def binomial_tail_mc(n: int, p: float, lo: float, hi: float, samples: int, seed: int):
    """Monte Carlo estimate of P(X <= lo or X >= hi) for X ~ Bin(n, p),
    with its standard error."""
    rng = np.random.default_rng(seed)
    xs = rng.binomial(n, p, size=samples)
    hits = np.count_nonzero((xs <= lo) | (xs >= hi))
    phat = hits / samples
    se = (phat * (1.0 - phat) / samples) ** 0.5
    return phat, se


def chi_square(observed: Counter, expected: dict[object, float]) -> float:
    stat = 0.0
    for k, e in expected.items():
        o = observed.get(k, 0)
        stat += (o - e) ** 2 / e
    return stat
