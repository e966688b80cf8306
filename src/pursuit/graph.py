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
    "bfs_distances",
    "bfs_layers",
    "bfs_per_source",
    "two_nearest_source_distances",
    "read_edge_list",
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
# a blocked vertex while `bfs_distances` runs; never returned
_BLOCKED = np.int32(-2)


class GraphView:
    """Immutable simple undirected graph, stored only as its CSR adjacency.

    Row v, `indices[indptr[v]:indptr[v + 1]]`, lists v's neighbours in
    ascending order, so each edge appears in both endpoints' rows; the
    edge list, edge count, equality and hash are all read off the CSR.
    """

    # `_rows` and `_csr_touched` belong to `bfs_distances`: the packed
    # adjacency rows once built, and the adjacency entries its CSR levels
    # have touched until then.  Equality and hashing ignore both.
    __slots__ = ("n", "_indptr", "_indices", "_rows", "_csr_touched")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self._indptr = indptr
        self._indices = indices
        for a in (self._indptr, self._indices):
            a.setflags(write=False)
        self._rows = None
        self._csr_touched = 0

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def edges(self) -> np.ndarray:
        """(m, 2) int32 array of edges with u < v, sorted by (u, v).

        Built on each call from the upper half of every CSR row.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int32), self._indptr[1:] - self._indptr[:-1])
        upper = self._indices > src
        out = np.empty((self.num_edges, 2), dtype=np.int32)
        out[:, 0] = src[upper]
        out[:, 1] = self._indices[upper]
        return out

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
        return (
            self.n == other.n
            and bool(np.array_equal(self._indptr, other._indptr))
            and bool(np.array_equal(self._indices, other._indices))
        )

    def __hash__(self):
        return hash((self.n, self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"GraphView(n={self.n}, m={self.num_edges})"


def from_edges(n: int, edge_iter: Iterable[tuple[int, int]] | np.ndarray) -> GraphView:
    """Build a GraphView, validating simplicity.

    Accepts any iterable of pairs or an (m, 2) integer array, which is
    used as is.  Rejects self-loops, out-of-range endpoints, and
    duplicate edges (either orientation counts as a duplicate).

    Both orientations of every edge become keys src * n + dst in one
    int64 array, sorted in place: the sorted keys are the CSR rows in
    order, row v starting at the first key >= v * n, and an edge given
    twice (in either orientation) shows up as two equal neighbouring
    keys.
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
    m = len(pairs)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(pairs[:, 0], n, out=keys[:m])
    keys[:m] += pairs[:, 1]
    np.multiply(pairs[:, 1], n, out=keys[m:])
    keys[m:] += pairs[:, 0]
    keys.sort()
    if len(keys) > 1 and np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edge rejected")
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= max(n, 1)
    return GraphView(n, indptr, keys.astype(np.int32))


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
# The distance array doubles as the visited mask, in which blocked
# vertices read -2 until the search ends.  Each step costs about one
# pass over the entries it touches, so the cheaper one is taken; both
# give the same distances.
#
# On a graph with Theta(n^2) edges even the cheaper step gathers up to
# ~10^6 entries a level, so such a graph gets packed adjacency rows: an
# n x ceil(n/64) array of 64-bit words, bit u of row v set when uv is an
# edge.  They exist only where they take no more bytes than `indices`,
# so they never cost more memory than the CSR already holds.  They are
# built once the CSR levels run on the graph have touched as many
# adjacency entries as `indices` holds; the build marks each entry once
# and packs n^2 bits, so a graph searched only once or twice never pays
# for it.
# They are cached, read-only, on the GraphView.  With rows, a level
# runs top-down by OR-ing the frontier's rows when the frontier has no
# more vertices than the unvisited set, and otherwise bottom-up by
# AND-ing each unvisited vertex's row with the packed frontier; either
# way it reads rows in pieces of at most `BFS_CHUNK` words.
#
# `bfs_per_source` searches from each of many sources independently and
# returns their spheres level by level, for callers that would otherwise
# run one truncated `bfs_distances` per source.  A level is an array of
# (source, vertex) keys; see its docstring.

# Entry budget of `bfs_per_source`: its scratch array, one int32 entry per
# (source, vertex) key of a chunk of sources, has at most this many
# entries.  A chunk's levels and each piece of gathered neighbour lists
# cost several arrays per entry, so they stay within an eighth of it.
# Packed-row levels read at most this many words at a time, and packing
# marks at most this many bits at a time (or one row).
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


def bfs_distances(
    g: GraphView,
    sources: Sequence[int],
    max_depth: int | None = None,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-source BFS distance array; -1 marks unreached vertices.

    `blocked`, a boolean mask over the vertices, keeps the search out of
    the vertices it marks, except that every source is entered: the
    result is the BFS of the subgraph induced by the unblocked vertices
    and the sources.
    """
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
    if blocked is not None:
        dist[blocked] = _BLOCKED
    dist[frontier] = 0
    rows = _packed_rows(g)
    # what the two steps are weighed by: unvisited vertices with rows,
    # unvisited adjacency entries without
    unvisited = n - len(frontier) if rows is not None else len(indices)
    touched = 0
    depth = 0
    while max_depth is None or depth < max_depth:
        if rows is not None:
            fresh = _packed_level(rows, dist, frontier, unvisited)
            unvisited -= len(fresh)
        else:
            if len(frontier) == 1:
                lo, hi = indptr[frontier[0]], indptr[frontier[0] + 1]
                frontier_entries = int(hi - lo)
            else:
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                frontier_entries = int(counts.sum())
            unvisited -= frontier_entries
            if frontier_entries > unvisited:
                left = np.flatnonzero((dist == UNREACHABLE) & (indptr[1:] > indptr[:-1]))
                if len(left) == 0:
                    break
                nbrs, counts = _gather_neighbors(indptr, indices, left)
                touched += len(nbrs)
                fresh = left[np.logical_or.reduceat((dist == depth)[nbrs], np.cumsum(counts) - counts)]
            elif len(frontier) == 1:
                # one row of a simple graph repeats no vertex
                nbrs = indices[lo:hi]
                touched += len(nbrs)
                fresh = nbrs[dist[nbrs] == UNREACHABLE]
            else:
                touched += frontier_entries
                reached = np.zeros(n, dtype=bool)
                reached[_concat_ranges(indices, starts, counts)] = True
                fresh = np.flatnonzero(reached & (dist == UNREACHABLE))
        if len(fresh) == 0:
            break
        depth += 1
        dist[fresh] = depth
        frontier = fresh
    g._csr_touched += touched
    if blocked is not None:
        dist[dist == _BLOCKED] = UNREACHABLE
    return dist


# Packed rows are little-endian words, so that their bytes, unpacked in
# little bit order, list vertices in order on any machine.
_WORD = np.dtype("<u8")


def _packed_rows(g: GraphView) -> np.ndarray | None:
    """g's packed adjacency rows, built here once the rule above allows."""
    if g._rows is None:
        indptr, indices = g.csr()
        words = (g.n + 63) // 64
        if g._csr_touched >= len(indices) and g.n * words * _WORD.itemsize <= indices.nbytes:
            g._rows = _pack_rows(indptr, indices, g.n)
    return g._rows


def _pack_rows(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Read-only n x ceil(n/64) words, bit u of row v set when u is in v's list."""
    words = (n + 63) // 64
    rows = np.empty((n, words), dtype=_WORD)
    deg = indptr[1:] - indptr[:-1]
    # whole rows, about BFS_CHUNK bits at a time, marked in a bool mask
    step = max(1, BFS_CHUNK // (64 * words))
    for a in range(0, n, step):
        b = min(n, a + step)
        bits = np.zeros((b - a) * 64 * words, dtype=bool)
        at = np.repeat(np.arange(0, len(bits), 64 * words, dtype=np.int32), deg[a:b])
        at += indices[indptr[a]:indptr[b]]
        bits[at] = True
        rows[a:b] = np.packbits(bits, bitorder="little").view(_WORD).reshape(b - a, words)
    rows.setflags(write=False)
    return rows


def _packed_level(rows: np.ndarray, dist: np.ndarray, frontier: np.ndarray, unvisited: int) -> np.ndarray:
    """The unvisited vertices adjacent to `frontier`, read off packed rows."""
    n, words = rows.shape
    step = max(1, BFS_CHUNK // words)
    if len(frontier) <= unvisited:
        reached = np.zeros(words, dtype=_WORD)
        for a in range(0, len(frontier), step):
            reached |= np.bitwise_or.reduce(rows[frontier[a:a + step]], axis=0)
        hit = np.unpackbits(reached.view(np.uint8), count=n, bitorder="little").view(bool)
        return np.flatnonzero(hit & (dist == UNREACHABLE))
    mask = np.zeros(words * 64, dtype=bool)
    mask[frontier] = True
    packed = np.packbits(mask, bitorder="little").view(_WORD)
    left = np.flatnonzero(dist == UNREACHABLE)
    hit = [(rows[left[a:a + step]] & packed).any(axis=1) for a in range(0, len(left), step)]
    return left[np.concatenate(hit)] if hit else left


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


def _step_toward(g: GraphView, dist: np.ndarray, v: int) -> int:
    """The smallest-id neighbour of v one level closer to the sources of `dist`.

    v must be reached at distance at least 1, so such a neighbour exists.
    """
    row = g.adjacency(v)
    return int(row[dist[row] == dist[v] - 1][0])


def _walk_toward(g: GraphView, dist: np.ndarray, v: int) -> list[int]:
    """The vertices after v, a reached one, on its `_step_toward` walk to a source of `dist`."""
    walk = []
    while dist[v]:
        v = _step_toward(g, dist, v)
        walk.append(v)
    return walk


def two_nearest_source_distances(
    g: GraphView, sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex, the two smallest distances to the source multiset.

    `sources` may repeat a vertex; a doubled source counts twice, so the
    second-smallest distance through it equals the smallest.  Returns
    (d1, d2) int32 arrays with -1 where fewer than one / two sources are
    reachable.

    A label-propagating BFS in which each copy of a source is its own
    label and every vertex keeps at most two labels.  A level holds
    (vertex, label) pairs, sources with their copy numbers at level 0;
    pairs whose vertex is full or already holds their label are dropped.
    One pair per vertex fills its first empty slot, and a vertex whose
    d1 was just set takes d2 from one remaining pair with another label;
    "one pair" is the one whose id sticks in an n-sized scratch (the
    write-own-id step of `bfs_per_source`).  Pairs that filled a slot
    pass their label on, until no pair is left or every vertex is full.
    d1 and d2 depend only on the multiset, so it does not matter which
    pair wins.
    """
    indptr, indices = g.csr()
    n = g.n
    verts = np.asarray(list(sources), dtype=np.intp)
    if verts.size and (verts.min() < 0 or verts.max() >= n):
        raise ValueError("source vertex out of range")
    d1 = np.full(n, -1, dtype=np.int32)
    d2 = np.full(n, -1, dtype=np.int32)
    held = np.full(n, -1, dtype=np.int32)  # the label that set d1
    scratch = np.empty(n, dtype=np.int32)
    labels = np.arange(len(verts), dtype=np.int32)
    level = 0
    while len(verts):
        keep = d2[verts] == -1
        keep &= held[verts] != labels
        verts, labels = verts[keep], labels[keep]
        ids = np.arange(len(verts), dtype=np.int32)
        scratch[verts] = ids
        won = scratch[verts] == ids
        first = won & (d1[verts] == -1)
        d1[verts[first]] = level
        held[verts[first]] = labels[first]
        d2[verts[won & ~first]] = level
        rest = ~won & (d1[verts] == level) & (held[verts] != labels)
        scratch[verts[rest]] = ids[rest]
        won |= rest & (scratch[verts] == ids)
        d2[verts[won & rest]] = level
        if d2.min() >= 0:  # every vertex holds two labels
            break
        nbrs, counts = _gather_neighbors(indptr, indices, verts[won])
        labels = np.repeat(labels[won], counts)
        verts = nbrs.astype(np.intp)
        del nbrs  # else the int32 copy lives through the next level
        level += 1
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
    if m < 0 or len(lines) < 1 + m:
        raise ValueError(f"expected {m} >= 0 edge lines, found {len(lines) - 1}")
    if any(line.strip() for line in lines[1 + m:]):
        raise ValueError(f"text after the {m} edge lines")
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
