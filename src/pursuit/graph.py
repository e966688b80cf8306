"""Immutable graph views and the BFS kernels everything else builds on.

Graphs are simple and undirected, vertices are 0..n-1.  A GraphView keeps
adjacency in CSR form (numpy int32 arrays) so that sphere/ball queries and
multi-source BFS run at array speed on graphs with ~10^6 edges.  All
mutating workflows go through `from_edges`, which validates and
canonicalizes; there is no in-place edge surgery.

Distance conventions: distances are int32, unreachable is the sentinel -1
(never a large magic number).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GraphView",
    "from_edges",
    "sphere",
    "ball",
    "set_sphere",
    "set_ball",
    "closed_neighborhood",
    "components",
    "bfs_distances",
    "bfs_layers",
    "bfs_per_source",
    "two_nearest_source_distances",
    "shortest_path",
    "read_edge_list",
    "write_edge_list",
    "to_edge_list_text",
    "parse_edge_list_text",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "petersen_graph",
    "grid_graph",
    "UNREACHABLE",
]

UNREACHABLE = np.int32(-1)


class GraphView:
    """Immutable simple undirected graph with CSR adjacency."""

    __slots__ = ("n", "_indptr", "_indices", "_edges")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, edges: np.ndarray):
        self.n = int(n)
        self._indptr = indptr
        self._indices = indices
        self._edges = edges
        for a in (self._indptr, self._indices, self._edges):
            a.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, sorted by (u, v)."""
        return self._edges

    def adjacency(self, v: int) -> np.ndarray:
        """Sorted neighbor array of v (read-only view)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        return (self._indptr[1:] - self._indptr[:-1]).astype(np.int64)

    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        row = self.adjacency(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and row[i] == v

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphView):
            return NotImplemented
        return self.n == other.n and self._edges.shape == other._edges.shape and bool(
            np.array_equal(self._edges, other._edges)
        )

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"GraphView(n={self.n}, m={self.num_edges})"


def from_edges(n: int, edge_iter: Iterable[tuple[int, int]] | np.ndarray) -> GraphView:
    """Build a GraphView, validating simplicity.

    Accepts any iterable of pairs or an (m, 2) integer array, which is
    used as is.  Rejects self-loops, out-of-range endpoints, and
    duplicate edges (either orientation counts as a duplicate).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not isinstance(edge_iter, np.ndarray):
        edge_iter = list(edge_iter)
    pairs = np.asarray(edge_iter, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self-loop rejected")
    # Both orientations of every edge, sorted on the key src*n + dst: the
    # sorted keys are the CSR rows in order, and an edge given twice (in
    # either orientation) shows up as two equal neighbouring keys.
    keys = np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]])
    keys.sort()
    if len(keys) > 1 and np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edge rejected")
    src, dst = np.divmod(keys, max(n, 1))
    indices = dst.astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    lower = src < indices
    edges = np.column_stack([src[lower], indices[lower]]).astype(np.int32)
    return GraphView(n, indptr, indices, edges)


# ---------------------------------------------------------------------------
# BFS kernels
#
# Two entry points cover every traversal; everything that needs
# distances, spheres or balls reads them off one of them.
#
# `bfs_distances` computes one distance field for the union of its
# sources.  It is level-synchronous and direction-optimising (Beamer,
# Asanovic and Patterson, SC 2012).  A level runs top-down, marking the
# frontier's gathered neighbour lists in a mask and keeping the
# unvisited ones, while the frontier holds fewer adjacency entries than
# the unvisited vertices do; otherwise it runs bottom-up, and each
# unvisited vertex joins when one of its neighbours is in the frontier.
# The distance array doubles as the visited mask.  Each step costs about
# one pass over the entries it touches, so the cheaper one is taken;
# both give the same distances.
#
# `bfs_per_source` searches from each of many sources independently and
# returns their spheres level by level, for callers that would otherwise
# run one truncated `bfs_distances` per source.  A level is an array of
# (source, vertex) keys; see its docstring.

# Entry budget of `bfs_per_source`: its scratch array, one int32 entry per
# (source, vertex) key of a chunk of sources, has at most this many
# entries.  A chunk's levels and each piece of gathered neighbour lists
# cost several arrays per entry, so they stay within an eighth of it.
BFS_CHUNK = 1 << 18


def _concat_ranges(indices: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """indices[starts[i] : starts[i] + counts[i]] for every i, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return indices[:0]
    pos = np.repeat(starts - ends + counts, counts)
    pos += np.arange(total)
    return indices[pos]


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of `verts` (duplicates preserved) and their lengths."""
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    return _concat_ranges(indices, starts, counts), counts


def bfs_distances(g: GraphView, sources: Sequence[int], max_depth: int | None = None) -> np.ndarray:
    """Multi-source BFS distance array; -1 marks unreached vertices."""
    indptr, indices = g.csr()
    n = g.n
    dist = np.full(n, UNREACHABLE, dtype=np.int32)
    if not isinstance(sources, np.ndarray):
        sources = list(sources)
    frontier = np.asarray(sources, dtype=np.int64).ravel()
    if frontier.size == 0:
        return dist
    if frontier.size > 1:
        frontier = np.unique(frontier)
    if frontier[0] < 0 or frontier[-1] >= n:
        raise ValueError("source vertex out of range")
    dist[frontier] = 0
    unvisited_entries = len(indices)
    depth = 0
    while max_depth is None or depth < max_depth:
        if len(frontier) == 1:
            lo, hi = indptr[frontier[0]], indptr[frontier[0] + 1]
            frontier_entries = int(hi - lo)
        else:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            frontier_entries = int(counts.sum())
        unvisited_entries -= frontier_entries
        if frontier_entries > unvisited_entries:
            rows = np.flatnonzero((dist < 0) & (indptr[1:] > indptr[:-1]))
            if len(rows) == 0:
                break
            nbrs, counts = _gather_neighbors(indptr, indices, rows)
            fresh = rows[np.logical_or.reduceat((dist == depth)[nbrs], np.cumsum(counts) - counts)]
        elif len(frontier) == 1:
            # one row of a simple graph repeats no vertex
            nbrs = indices[lo:hi]
            fresh = nbrs[dist[nbrs] < 0]
        else:
            reached = np.zeros(n, dtype=bool)
            reached[_concat_ranges(indices, starts, counts)] = True
            fresh = np.flatnonzero(reached & (dist < 0))
        if len(fresh) == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = fresh
    return dist


def bfs_per_source(
    g: GraphView, sources: Sequence[int], max_depth: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Truncated BFS from every source on its own, level by level.

    Unlike `bfs_distances`, which gives one distance field for the union
    of its sources, each source here gets its own search; a repeated
    source is searched again.  Sources are searched in chunks of
    consecutive ones.  For each chunk, in order, this yields
    `(first, r, which, verts)` for r = 0, 1, ... up to `max_depth` or the
    chunk's last non-empty level: `which` and `verts` are equal-length
    arrays, and `verts[i]` lies at distance exactly r from
    `sources[first + which[i]]`.  At r = 0, `which` is 0, 1, ... over the
    chunk.  Within a level each pair appears once, in no particular
    order.

    A level's pairs are keys `which * n + vertex`.  Expanding level r
    gathers the neighbour lists of its vertices; in an undirected graph
    these lie on levels r - 1, r and r + 1 only, so the keys of levels r
    and r - 1 are dropped and what remains, without repeats, is level
    r + 1.  Both steps use one scratch array indexed by key: every
    gathered key writes its own id, the two previous levels overwrite
    theirs with -1, and the one copy of a key whose id stuck stands for
    it (the write-own-id step of `solver._claim`).  Every key read was
    written in the same level, so the scratch is never cleared.

    Chunks bound the memory.  A chunk holds at least one source and at
    most `BFS_CHUNK // n`, so the scratch has at most max(BFS_CHUNK, n)
    entries.  Within `max_depth` a source reaches at most
    1 + D + D(D - 1) + ... vertices, D the largest degree, and at most n;
    a chunk also holds few enough sources that its levels stay within
    `BFS_CHUNK // 8` entries together, and neighbour lists are gathered
    in pieces of at most that many entries (or one vertex's list).
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    indptr, indices = g.csr()
    n = g.n
    src = np.asarray(sources if isinstance(sources, np.ndarray) else list(sources), dtype=np.int64)
    src = src.ravel()
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ValueError("source vertex out of range")
    deg = indptr[1:] - indptr[:-1]
    top, reach, width = int(deg.max(initial=0)), 1, 1
    for r in range(max_depth):
        width *= top if r == 0 else top - 1
        reach += width
        if reach >= n or width == 0:
            break
    level_cap = BFS_CHUNK // 8
    step = max(1, min(BFS_CHUNK // max(n, 1), level_cap // max(1, min(reach, n))))
    scratch = np.empty(min(step, len(src)) * n, dtype=np.int32)
    for first in range(0, len(src), step):
        # keys stay below max(BFS_CHUNK, n), so int32 holds them
        verts = src[first:first + step].astype(np.int32)
        which = np.arange(len(verts), dtype=np.int32)
        keys, prev_keys = which * np.int32(n) + verts, which[:0]
        yield first, 0, which, verts
        for r in range(1, max_depth + 1):
            starts, counts = indptr[verts], deg[verts]
            ends = np.cumsum(counts)
            if ends[-1] == 0:
                break
            if r == 1:
                # a row of a simple graph repeats no vertex and leaves out
                # its own, so every gathered key is new
                found = [_gather_keys(indices, starts, counts, keys - verts)]
            else:
                cuts = [0, len(verts)]
                if ends[-1] > level_cap:
                    cuts = [0]
                    while cuts[-1] < len(verts):
                        a = cuts[-1]
                        cut = ends[a] - counts[a] + level_cap
                        cuts.append(max(a + 1, int(np.searchsorted(ends, cut, "right"))))
                found = []
                for a, b in zip(cuts, cuts[1:]):
                    nv, nk = _gather_keys(indices, starts[a:b], counts[a:b], keys[a:b] - verts[a:b])
                    ids = np.arange(len(nk), dtype=np.int32)
                    scratch[nk] = ids
                    scratch[keys] = -1
                    scratch[prev_keys] = -1
                    for _, k in found:
                        scratch[k] = -1
                    fresh = scratch[nk] == ids
                    found.append((nv[fresh], nk[fresh]))
            verts, new_keys = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
            if not len(verts):
                break
            prev_keys, keys = keys, new_keys
            yield first, r, keys // np.int32(n), verts


def _gather_keys(indices, starts, counts, bases):
    """Neighbour lists of a level's vertices and their keys bases[i] + neighbour."""
    nv = _concat_ranges(indices, starts, counts)
    nk = np.repeat(bases, counts)
    nk += nv
    return nv, nk


def bfs_layers(g: GraphView, sources: Sequence[int], max_depth: int | None = None) -> list[np.ndarray]:
    """Layers of a multi-source BFS; layers[r] holds vertices at distance r, sorted."""
    dist = bfs_distances(g, sources, max_depth=max_depth)
    return [np.flatnonzero(dist == r) for r in range(int(dist.max(initial=-1)) + 1)]


def sphere(g: GraphView, v: int, r: int) -> frozenset[int]:
    """Vertices at distance exactly r from v."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    layers = bfs_layers(g, [v], max_depth=r)
    if r < len(layers):
        return frozenset(int(x) for x in layers[r])
    return frozenset()


def ball(g: GraphView, v: int, r: int) -> frozenset[int]:
    """Vertices at distance at most r from v."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    layers = bfs_layers(g, [v], max_depth=r)
    out: set[int] = set()
    for layer in layers:
        out.update(int(x) for x in layer)
    return frozenset(out)


def set_sphere(g: GraphView, vs: Iterable[int], r: int) -> frozenset[int]:
    """Vertices at distance exactly r from the set vs (multi-source)."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    layers = bfs_layers(g, list(vs), max_depth=r)
    if r < len(layers):
        return frozenset(int(x) for x in layers[r])
    return frozenset()


def set_ball(g: GraphView, vs: Iterable[int], r: int) -> frozenset[int]:
    """Vertices at distance at most r from the set vs."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    layers = bfs_layers(g, list(vs), max_depth=r)
    out: set[int] = set()
    for layer in layers:
        out.update(int(x) for x in layer)
    return frozenset(out)


def closed_neighborhood(g: GraphView, vs: Iterable[int]) -> frozenset[int]:
    """The set vs together with every neighbor of a member."""
    return set_ball(g, vs, 1)


def components(g: GraphView) -> list[tuple[int, ...]]:
    """Connected components, each sorted, ordered by smallest member."""
    seen = np.zeros(g.n, dtype=bool)
    out: list[tuple[int, ...]] = []
    for v in range(g.n):
        if seen[v]:
            continue
        dist = bfs_distances(g, [v])
        comp = np.flatnonzero(dist >= 0)
        seen[comp] = True
        out.append(tuple(int(x) for x in comp))
    return out


def shortest_path(
    g: GraphView, src: int, dst: int, max_depth: int | None = None
) -> list[int] | None:
    """One shortest path src -> dst, ties broken toward smaller vertex ids.

    Walks parents from dst back to src over a BFS distance field, always
    picking the smallest-id neighbor one layer closer, so the result is
    deterministic.  Returns None when dst is unreachable or farther than
    max_depth.
    """
    if src == dst and 0 <= src < g.n:
        return [src]
    dist = bfs_distances(g, [src], max_depth=max_depth)
    if dist[dst] < 0:
        return None
    path = [dst]
    cur = dst
    while cur != src:
        row = g.adjacency(cur)
        closer = row[dist[row] == dist[cur] - 1]
        cur = int(closer[0])
        path.append(cur)
    path.reverse()
    return path


def two_nearest_source_distances(
    g: GraphView, sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex, the two smallest distances to the source multiset.

    `sources` may repeat a vertex; a doubled source counts twice, so the
    second-smallest distance through it equals the smallest.  Returns
    (d1, d2) int32 arrays with -1 where fewer than one / two sources are
    reachable.  Runs a label-propagating BFS that keeps at most two
    distinct source labels per vertex; each level is resolved with array
    ops so large graphs stay cheap.
    """
    indptr, indices = g.csr()
    n = g.n
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ValueError("source vertex out of range")
    d1 = np.full(n, -1, dtype=np.int32)
    d2 = np.full(n, -1, dtype=np.int32)
    s1 = np.full(n, -1, dtype=np.int64)
    if src.size == 0:
        return d1, d2
    uniq, counts = np.unique(src, return_counts=True)
    d1[uniq] = 0
    s1[uniq] = uniq
    d2[uniq[counts >= 2]] = 0
    multi = np.zeros(n, dtype=bool)
    multi[uniq[counts >= 2]] = True

    frontier_v = uniq
    frontier_s = uniq
    level = 0
    while len(frontier_v):
        level += 1
        nv, cnt = _gather_neighbors(indptr, indices, frontier_v)
        if len(nv) == 0:
            break
        nv = nv.astype(np.int64)
        ns = np.repeat(frontier_s, cnt)
        # drop labels the target vertex cannot accept
        keep = (d2[nv] == -1) & (s1[nv] != ns)
        nv, ns = nv[keep], ns[keep]
        if len(nv) == 0:
            break
        order = np.lexsort((ns, nv))
        nv, ns = nv[order], ns[order]
        dup = np.zeros(len(nv), dtype=bool)
        dup[1:] = (nv[1:] == nv[:-1]) & (ns[1:] == ns[:-1])
        nv, ns = nv[~dup], ns[~dup]
        first = np.ones(len(nv), dtype=bool)
        first[1:] = nv[1:] != nv[:-1]
        second = np.zeros(len(nv), dtype=bool)
        second[1:] = first[:-1] & (nv[1:] == nv[:-1])
        had_d1 = d1[nv] != -1
        acc_d2_existing = first & had_d1
        acc_d1_new = first & ~had_d1
        acc_d2_new = second & ~had_d1
        d2[nv[acc_d2_existing]] = level
        d1[nv[acc_d1_new]] = level
        s1[nv[acc_d1_new]] = ns[acc_d1_new]
        d2[nv[acc_d2_new]] = level
        newly = acc_d2_existing | acc_d1_new | acc_d2_new
        frontier_v = nv[newly]
        frontier_s = ns[newly]

    # a doubled source vertex supplies its own second-nearest distance
    has = s1 >= 0
    dup_src = np.zeros(n, dtype=bool)
    dup_src[has] = multi[s1[has]]
    fix = dup_src & ((d2 == -1) | (d2 > d1))
    d2[fix] = d1[fix]
    return d1, d2


# ---------------------------------------------------------------------------
# Canonical edge-list serialization
#
# First line "n m", then m lines "u v" with u < v, rows sorted by (u, v),
# vertices 0-indexed, "\n" line endings.  This is the byte-exact format the
# CLI reads and writes.


def to_edge_list_text(g: GraphView) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    for u, v in g.edges():
        lines.append(f"{int(u)} {int(v)}")
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> GraphView:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("line 1: expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) < 1 + m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) != 2:
            raise ValueError(f"line {i + 2}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"line {i + 2}: requires u < v")
        edges.append((u, v))
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            raise ValueError("edge lines not sorted")
    return from_edges(n, edges)


def write_edge_list(g: GraphView, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_edge_list_text(g))


def read_edge_list(path) -> GraphView:
    with open(path) as fh:
        return parse_edge_list_text(fh.read())


# ---------------------------------------------------------------------------
# Named graphs used throughout the tests and the CLI


def path_graph(k: int) -> GraphView:
    return from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> GraphView:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> GraphView:
    return from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star_graph(leaves: int) -> GraphView:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> GraphView:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def grid_graph(rows: int, cols: int) -> GraphView:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return from_edges(rows * cols, edges)
