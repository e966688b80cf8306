"""Empirical verifiers for the expansion properties the strategies rely on.

Dense side: unions of balls around small vertex sets grow like s*d^r
until they hit the graph's size, and spheres around a sphere can be
packed into large disjoint families.  Sparse side: sphere sizes obey
|S(v,r)| <= 9*d^r globally and a matching lower bound away from a small
low-degree set D, unions over sets expand proportionally, and most
vertices admit disjoint "reservoir" sets W(w) that a random cop team
will hit.  Each verifier reports measured constants and witnesses; a
probe whose parameters fall outside a condition's stated range is
counted as skipped, never failed.

All probes and witnesses are replayable: re-running a stored probe
reproduces the stored numbers exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .bounds import g_eps
from .graph import GraphView, _gather_neighbors, bfs_distances, bfs_layers, bfs_per_source

__all__ = [
    "DenseExpansionParams",
    "DenseProbe",
    "DenseExpansionReport",
    "dense_probes",
    "verify_dense_lower",
    "SphereFamilyReport",
    "build_disjoint_sphere_family",
    "grow_disjoint_family",
    "AccessibilityWitness",
    "AccessibilityFailure",
    "accessibility_check",
    "verify_witness",
    "low_degree_set",
    "QSetResult",
    "q_set_construction",
    "SparseProbes",
    "sparse_probes",
    "SparseExpansionReport",
    "sparse_report",
]


# ---------------------------------------------------------------------------
# Dense expansion: |union of balls| >= c * min(s*d^r, n)


@dataclass(frozen=True)
class DenseExpansionParams:
    """Thresholds for the dense lower-bound verifier.

    c is the multiplicative floor, rel_tol the allowed relative error for
    the proportional regime s*d^r < n/log(n), where the union size is
    expected to track s*d^r itself.
    """

    c: float = 0.5
    rel_tol: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must be in (0, 1]")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be non-negative")


@dataclass(frozen=True)
class DenseProbe:
    s_set: tuple[int, ...]
    r: int


@dataclass
class DenseExpansionReport:
    params: DenseExpansionParams
    d: float
    n: int
    checked: int = 0
    skipped: int = 0
    lower_failures: list[dict] = field(default_factory=list)
    ratio_failures: list[dict] = field(default_factory=list)
    worst_ratio: dict | None = None
    probes: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.lower_failures and not self.ratio_failures


DENSE_PROBE_SIZES = (1, 2, 4, 8, 16)


def dense_probes(g: GraphView, seed: int, count: int) -> list[DenseProbe]:
    """Seeded probe list: vertex sets sized by DENSE_PROBE_SIZES in turn, with random radii."""
    rng = seeds.stream(seed, 0)
    d = max(g.mean_degree(), 2.0)
    r_max = max(1, int(math.ceil(math.log(max(g.n, 2)) / math.log(d))) + 1)
    probes = []
    for i in range(count):
        s = min(DENSE_PROBE_SIZES[i % len(DENSE_PROBE_SIZES)], g.n)
        verts = rng.choice(g.n, size=s, replace=False)
        r = int(rng.integers(0, r_max + 1))
        probes.append(DenseProbe(tuple(sorted(int(v) for v in verts)), r))
    return probes


def verify_dense_lower(
    g: GraphView, params: DenseExpansionParams, probes: list[DenseProbe]
) -> DenseExpansionReport:
    """Check |union of N(v,r) over v in S| >= c*min(s*d^r, n) per probe.

    In the proportional regime s*d^r < n/log(n) the union is also
    required to match s*d^r within rel_tol.  Every probe's measured
    numbers are stored so the report can be replayed.
    """
    n = g.n
    d = g.mean_degree()
    if d < 1.0:
        raise ValueError("dense verifier needs average degree >= 1")
    report = DenseExpansionReport(params=params, d=d, n=n)
    logn = math.log(n) if n > 1 else 1.0
    for probe in probes:
        s = len(probe.s_set)
        sdr = s * d**probe.r
        dist = bfs_distances(g, list(probe.s_set), max_depth=probe.r)
        union_size = int(np.count_nonzero(dist >= 0))
        floor = params.c * min(sdr, n)
        lower_ok = union_size >= floor
        entry = {
            "s_set": probe.s_set,
            "r": probe.r,
            "union_size": union_size,
            "floor": floor,
            "lower_ok": lower_ok,
        }
        report.checked += 1
        if not lower_ok:
            report.lower_failures.append(entry)
        if sdr < n / logn and probe.r >= 1:
            ratio = union_size / sdr
            entry["ratio"] = ratio
            ratio_ok = abs(ratio - 1.0) <= params.rel_tol
            entry["ratio_ok"] = ratio_ok
            if not ratio_ok:
                report.ratio_failures.append(entry)
            if report.worst_ratio is None or abs(ratio - 1.0) > abs(report.worst_ratio["ratio"] - 1.0):
                report.worst_ratio = entry
        else:
            entry["ratio"] = None
            report.skipped += 1
        report.probes.append(entry)
    return report


# ---------------------------------------------------------------------------
# Disjoint sphere families around a sphere (dense strategy, case 2)


@dataclass
class SphereFamilyReport:
    center: int
    r: int
    family: dict[int, frozenset[int]]
    min_size: int
    max_size: int
    target: float


def build_disjoint_sphere_family(g: GraphView, v: int, r: int) -> SphereFamilyReport:
    """Greedy disjoint family {W(u) subset of S(u, r+1)} over u in S(v, r).

    Vertices of S(v,r) are processed in ascending order; W(u) takes every
    not-yet-claimed vertex of S(u, r+1) that lies outside N(v, r), so a
    vertex x goes to the smallest u with d(u, x) = r + 1.  The report
    records min/max sizes against the d^(r+1) scale.
    """
    layers = bfs_layers(g, [v], max_depth=r)
    if len(layers) <= r:
        return SphereFamilyReport(v, r, {}, 0, 0, g.mean_degree() ** (r + 1))
    inner = np.zeros(g.n, dtype=bool)
    inner[np.concatenate(layers)] = True
    centres = layers[r]
    # owner[x] is the index in `centres` of x's centre, len(centres) for none
    owner = np.full(g.n, len(centres), dtype=np.int64)
    for first, depth, which, verts in bfs_per_source(g, centres, r + 1):
        if depth == r + 1:
            outside = ~inner[verts]
            np.minimum.at(owner, verts[outside], first + which[outside])
    family = _group_by_owner(centres, owner)
    sizes = [len(w) for w in family.values()] or [0]
    return SphereFamilyReport(v, r, family, min(sizes), max(sizes), g.mean_degree() ** (r + 1))


def _group_by_owner(centres: np.ndarray, owner: np.ndarray) -> dict[int, frozenset[int]]:
    """centres[i] -> the vertices x with owner[x] == i, for every i."""
    verts = np.flatnonzero(owner < len(centres))
    verts = verts[np.argsort(owner[verts], kind="stable")]
    counts = np.bincount(owner[verts], minlength=len(centres))
    groups = np.split(verts, np.cumsum(counts)[:-1])
    return {u: frozenset(w.tolist()) for u, w in zip(centres.tolist(), groups)}


# ---------------------------------------------------------------------------
# Accessibility: disjoint reservoirs W(w) <= N(w, t) grown in lockstep


def grow_disjoint_family(g: GraphView, u_set: list[int], t: int) -> dict[int, frozenset[int]]:
    """Disjoint W(w) containing w, grown one BFS layer per round.

    Each round processes members in ascending order; a vertex is claimed
    by the first member whose frontier reaches it.  W(w) is a subset of
    the ball N(w, t) by construction.  Equivalently, round k claims the
    vertices at distance k from the members, each for the smallest
    claimant among its neighbours at distance k - 1.
    """
    members = np.unique(np.asarray(list(u_set), dtype=np.int64))
    dist = bfs_distances(g, members, max_depth=t)
    # owner[x] is the index in `members` of x's claimant, len(members) for none
    owner = np.full(g.n, len(members), dtype=np.int64)
    owner[members] = np.arange(len(members))
    indptr, indices = g.csr()
    for r in range(1, t + 1):
        level = np.flatnonzero(dist == r)
        if not len(level):
            break
        nbrs, counts = _gather_neighbors(indptr, indices, level)
        claims = np.where(dist[nbrs] == r - 1, owner[nbrs], len(members))
        owner[level] = np.minimum.reduceat(claims, np.cumsum(counts) - counts)
    return _group_by_owner(members, owner)


@dataclass(frozen=True)
class AccessibilityWitness:
    """Disjoint family certifying (t, c1, c2)-accessibility of u_set."""

    u_set: tuple[int, ...]
    t: int
    c1: float
    c2: float
    d: float
    threshold: float
    family: dict[int, frozenset[int]]


@dataclass(frozen=True)
class AccessibilityFailure:
    u_set: tuple[int, ...]
    t: int
    c1: float
    c2: float
    d: float
    threshold: float
    vertex: int
    size: int
    family: dict[int, frozenset[int]]


def accessibility_check(
    g: GraphView, u_set: list[int], t: int, c1: float, c2: float, d: float
) -> AccessibilityWitness | AccessibilityFailure:
    """Certify every w in u_set owns a reservoir of the required size.

    The requirement is |W(w)| >= c1 * min(d^t, c2 * n / |u_set|).  On
    failure the smallest failing vertex is reported along with the
    family that was built.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if not u_set:
        raise ValueError("u_set must be non-empty")
    members = tuple(sorted(set(int(u) for u in u_set)))
    family = grow_disjoint_family(g, list(members), t)
    threshold = c1 * min(d**t, c2 * g.n / len(members))
    for w in members:
        if len(family[w]) < threshold:
            return AccessibilityFailure(
                members, t, c1, c2, d, threshold, w, len(family[w]), family
            )
    return AccessibilityWitness(members, t, c1, c2, d, threshold, family)


def verify_witness(g: GraphView, witness: AccessibilityWitness) -> list[str]:
    """Independent re-check of an accessibility witness.

    Uses its own dict-based BFS rather than the package kernels, so the
    builder and the verifier share no traversal code.  Returns a list of
    violation strings, empty when the witness is valid.
    """
    problems: list[str] = []
    seen: dict[int, int] = {}
    for w, ws in witness.family.items():
        for x in ws:
            if x in seen:
                problems.append(f"vertex {x} claimed by both {seen[x]} and {w}")
            seen[x] = w
    threshold = witness.c1 * min(
        witness.d ** witness.t, witness.c2 * g.n / len(witness.u_set)
    )
    if not math.isclose(threshold, witness.threshold, rel_tol=1e-12, abs_tol=1e-12):
        problems.append("stored threshold does not match its formula")
    for w in witness.u_set:
        ws = witness.family.get(w)
        if ws is None:
            problems.append(f"no reservoir recorded for {w}")
            continue
        if len(ws) < threshold:
            problems.append(f"reservoir of {w} has {len(ws)} < {threshold}")
        # plain dict/set BFS for the radius condition
        dist = {w: 0}
        frontier = [w]
        depth = 0
        remaining = set(ws) - {w}
        while frontier and depth < witness.t and remaining:
            depth += 1
            nxt = []
            for u in frontier:
                for nb in g.adjacency(u):
                    nb = int(nb)
                    if nb not in dist:
                        dist[nb] = depth
                        nxt.append(nb)
                        remaining.discard(nb)
            frontier = nxt
        if remaining:
            bad = min(remaining)
            problems.append(f"vertex {bad} in W({w}) is farther than t={witness.t}")
    return problems


# ---------------------------------------------------------------------------
# Sparse-regime report


def low_degree_set(g: GraphView, density_eps: float, d: float) -> frozenset[int]:
    """D = vertices of degree <= density_eps * g(density_eps) * d."""
    cut = density_eps * g_eps(density_eps) * d
    degs = g.degrees()
    return frozenset(int(v) for v in np.flatnonzero(degs <= cut))


@dataclass
class QSetResult:
    """Low-expansion set from a BFS tree plus the measured sphere overlap.

    Q holds the vertices within distance r + r_prime of v whose count of
    BFS-tree children is below 2d/3.  `per_a_max` is the largest
    |S(a, r_prime) & Q| over a in S(v, r) and `measured_constant` that
    maximum divided by d^r_prime * n^(-1/54) (the analysis allows up to
    2 * 9 on that scale).
    """

    center: int
    r: int
    r_prime: int
    q: frozenset[int]
    per_a_max: int
    measured_constant: float
    bound: float


def q_set_construction(g: GraphView, v: int, r: int, r_prime: int, d: float) -> QSetResult:
    """Build Q from the BFS tree rooted at v and measure its sphere overlap.

    BFS parents are assigned deterministically: each layer is scanned in
    discovery order (the order its vertices were found, not ascending
    vertex order), each vertex's neighbours in ascending order, and a
    vertex's parent is the first vertex of the previous layer, in that
    order, that has it as a neighbour.
    """
    if d <= 1.0:
        raise ValueError("needs d > 1")
    depth_cap = r + r_prime
    # children counts need one layer beyond the cap
    dist = bfs_distances(g, [v], max_depth=depth_cap + 1)
    indptr, indices = g.csr()
    children = np.zeros(g.n, dtype=np.int64)
    rank = np.zeros(g.n, dtype=np.int64)  # place in its layer's discovery order
    layer = np.array([v])  # the previous layer, in discovery order
    for depth in range(1, int(dist.max()) + 1):
        level = np.flatnonzero(dist == depth)
        nbrs, counts = _gather_neighbors(indptr, indices, level)
        ranks = np.where(dist[nbrs] == depth - 1, rank[nbrs], g.n)
        # the rank of each vertex's parent, its earliest neighbour on `layer`;
        # the layer is found parent by parent, each parent's row ascending
        parent = np.minimum.reduceat(ranks, np.cumsum(counts) - counts)
        children[layer] = np.bincount(parent, minlength=len(layer))
        layer = level[np.lexsort((level, parent))]
        rank[layer] = np.arange(len(layer))
    in_range = (dist >= 0) & (dist <= depth_cap)
    q_mask = in_range & (children < 2.0 * d / 3.0)
    q = frozenset(int(x) for x in np.flatnonzero(q_mask))

    per_a_max = 0
    for _, depth, which, sa in bfs_per_source(g, np.flatnonzero(dist == r), r_prime):
        if depth == r_prime:
            per_a_max = max(per_a_max, int(np.bincount(which[q_mask[sa]]).max(initial=0)))
    scale = d**r_prime * g.n ** (-1.0 / 54.0)
    bound = 2.0 * 9.0 * scale
    measured = per_a_max / scale if scale > 0 else math.inf
    return QSetResult(v, r, r_prime, q, per_a_max, measured, bound)


@dataclass(frozen=True)
class SparseProbes:
    """Probe tuples for the sparse report, all seeded and replayable."""

    radii: tuple[int, ...]
    vertex_probes: tuple[tuple[int, int], ...]  # (v, r) for the lower bound
    union_probes: tuple[tuple[int, tuple[int, ...], int], ...]  # (v, V', r')


def sparse_probes(
    g: GraphView,
    seed: int,
    d: float,
    count: int = 100,
    delta: float = 0.05,
) -> SparseProbes:
    """Draw probe tuples within the ranges the sparse conditions state.

    Radii for the global sphere cap are every r >= 1 with d^r < n/log n.
    Lower-bound probes pick random vertices; union probes pick V' inside
    a ball N(v, r) with k*d^(r') <= n/log n.
    """
    n = g.n
    rng = seeds.stream(seed, 1)
    logn = math.log(max(n, 3))
    radii = [r for r in range(1, 64) if d**r < n / logn]
    if not radii:
        radii = [1]
    vertex_probes = []
    for _ in range(count):
        v = int(rng.integers(0, n))
        r = int(radii[int(rng.integers(0, len(radii)))])
        vertex_probes.append((v, r))
    union_probes = []
    for _ in range(count):
        v = int(rng.integers(0, n))
        r = int(radii[int(rng.integers(0, len(radii)))])
        rp = int(radii[int(rng.integers(0, len(radii)))])
        k_cap = max(1, int((n / logn) / max(d**rp, 1.0)))
        dist = bfs_distances(g, [v], max_depth=r)
        pool = np.flatnonzero(dist >= 0)
        if len(pool) == 0:
            continue
        k = int(rng.integers(1, min(k_cap, len(pool)) + 1))
        vs = rng.choice(pool, size=k, replace=False)
        union_probes.append((v, tuple(sorted(int(x) for x in vs)), rp))
    return SparseProbes(tuple(radii), tuple(vertex_probes), tuple(union_probes))


@dataclass
class SparseExpansionReport:
    """Measured sparse-expansion conditions on one graph.

    per_condition keys: 'sphere_upper' (|S(v,r)| <= 9 d^r for all v),
    'sphere_lower' (|S(v,r)| > (eps/e)^2 d^r off D), 'union' (two-sided
    bounds for |S(V', r')|).  Each value records checked/passed/skipped
    counts, the extreme measured constants, and witnesses.
    """

    n: int
    d: float
    density_eps: float
    delta: float
    g_eps_value: float
    low_degree: frozenset[int]
    erratic: frozenset[int]
    q_sets: list[QSetResult]
    per_condition: dict[str, dict]

    @property
    def d_size_ok(self) -> bool:
        return len(self.low_degree) <= math.sqrt(self.n)


def sparse_report(
    g: GraphView,
    density_eps: float,
    delta: float,
    probes: SparseProbes,
    d: float,
) -> SparseExpansionReport:
    """Measure the sparse expansion conditions against their constants.

    The advisory degree window [(1/2+eps)*log n, log^3 n] and
    0 < delta < eps/6 are checked; the former warns, the latter raises.
    """
    if not 0.0 < density_eps <= 1.0:
        raise ValueError("density_eps must be in (0, 1]")
    if not 0.0 < delta < density_eps / 6.0:
        raise ValueError("delta must satisfy 0 < delta < density_eps/6")
    n = g.n
    logn = math.log(max(n, 3))
    if not (0.5 + density_eps) * logn <= d <= logn**3:
        warnings.warn(
            f"mean degree {d:.3f} outside advisory window "
            f"[{(0.5 + density_eps) * logn:.3f}, {logn**3:.3f}]",
            stacklevel=2,
        )
    gval = g_eps(density_eps)
    dset = low_degree_set(g, density_eps, d)

    # condition 'sphere_upper': every vertex, every probed radius; one
    # batched truncated BFS gives |S(v, r)| for all v at once, and for the
    # lower-bound probes' radii too
    radii = list(probes.radii)
    depth = max(radii + [r for _, r in probes.vertex_probes])
    sphere_sizes = np.zeros((n, depth + 1), dtype=np.int64)
    for first, r, which, _ in bfs_per_source(g, np.arange(n), depth):
        counts = np.bincount(which)
        sphere_sizes[first:first + len(counts), r] = counts
    sizes = sphere_sizes[:, radii]
    scales = np.array([d**r for r in radii])
    const = sizes / scales
    ok = sizes <= 9.0 * scales
    upper = {"checked": n * len(radii), "passed": int(np.count_nonzero(ok)), "skipped": 0,
             "max_constant": 0.0, "witness": None}
    erratic = set(np.flatnonzero(~ok.all(axis=1)).tolist())
    # the first (v, r) in scan order, v outer, that attains the largest constant
    best = int(np.argmax(const)) if n else 0
    if n and const.flat[best] > 0.0:
        v, j = divmod(best, len(radii))
        upper["max_constant"] = float(const.flat[best])
        upper["witness"] = {"v": v, "r": radii[j], "size": int(sizes[v, j])}

    # condition 'sphere_lower': probed vertices off D
    floor_const = (density_eps / math.e) ** 2
    lower = {"checked": 0, "passed": 0, "skipped": 0, "min_constant": math.inf, "witness": None}
    for v, r in probes.vertex_probes:
        if v in dset:
            lower["skipped"] += 1
            continue
        size = int(sphere_sizes[v, r])
        const = size / d**r
        lower["checked"] += 1
        if size > floor_const * d**r:
            lower["passed"] += 1
        if const < lower["min_constant"]:
            lower["min_constant"] = const
            lower["witness"] = {"v": v, "r": r, "size": size}

    # condition 'union': |S(V', r')| within [eps*g*(k d^r')/4, 9 k d^r']
    union = {"checked": 0, "passed": 0, "skipped": 0, "min_constant": math.inf,
             "max_constant": 0.0, "witness": None}
    lo_const = density_eps * gval / 4.0
    for v, vprime, rp in probes.union_probes:
        vp = [x for x in vprime if x not in dset]
        if not vp:
            union["skipped"] += 1
            continue
        k = len(vp)
        if k * d**rp > n / logn:
            union["skipped"] += 1
            continue
        dist = bfs_distances(g, vp, max_depth=rp)
        size = int(np.count_nonzero(dist == rp))
        scale = k * d**rp
        union["checked"] += 1
        ok = lo_const * scale <= size <= 9.0 * scale
        if ok:
            union["passed"] += 1
        const = size / scale
        if const < union["min_constant"]:
            union["min_constant"] = const
        if const > union["max_constant"]:
            union["max_constant"] = const
            union["witness"] = {"v": v, "k": k, "r_prime": rp, "size": size}

    # Q-sets on a few probe anchors
    q_sets = []
    for v, r in probes.vertex_probes[:3]:
        rp = probes.radii[0]
        q_sets.append(q_set_construction(g, v, r, rp, d))

    return SparseExpansionReport(
        n=n,
        d=d,
        density_eps=density_eps,
        delta=delta,
        g_eps_value=gval,
        low_degree=dset,
        erratic=frozenset(erratic),
        q_sets=q_sets,
        per_condition={"sphere_upper": upper, "sphere_lower": lower, "union": union},
    )
