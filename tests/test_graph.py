"""Graph core: construction, BFS kernels, serialization, named graphs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import pursuit.graph
from pursuit.graph import (
    GraphView,
    _walk_toward,
    bfs_distances,
    bfs_layers,
    bfs_per_source,
    complete_graph,
    cycle_graph,
    from_edges,
    grid_graph,
    parse_edge_list_text,
    path_graph,
    petersen_graph,
    read_edge_list,
    star_graph,
    to_edge_list_text,
    two_nearest_source_distances,
)


def random_graph_strategy(max_n=12):
    """Random (n, edge set) pairs, dense enough to be interesting."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = oracles.vertex_pairs(n)
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return n, oracles.edges_of_mask(n, mask)

    return build()


class TestConstruction:
    def test_from_edges_roundtrip(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.n == 4
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(3, 0)
        assert not g.has_edge(0, 2)
        assert list(g.adjacency(1)) == [0, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 3)])

    def test_edge_order_irrelevant(self):
        a = from_edges(4, [(2, 3), (0, 1)])
        b = from_edges(4, [(0, 1), (2, 3)])
        assert a == b
        assert hash(a) == hash(b)
        # the same edges in another order and orientation, and a graph
        # against its edge-list round trip
        pairs = seeded_gnp_with_isolated(60, 0.2, 3)
        rng = np.random.default_rng(3)
        shuffled = pairs[rng.permutation(len(pairs))][:, ::-1]
        g = from_edges(60, pairs)
        for other in (from_edges(60, shuffled), parse_edge_list_text(to_edge_list_text(g))):
            assert other == g and hash(other) == hash(g)
        assert a != from_edges(4, [(0, 1), (1, 2)]) and a != from_edges(5, [(0, 1), (2, 3)])

    def test_from_edges_keeps_only_the_csr(self):
        # a dense G(n, p) with about 770k edges; its CSR takes 6.2 MB
        n = 3000
        pairs = seeded_gnp_with_isolated(n, 0.171, 5, isolated=())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g = from_edges(n, pairs)
            retained, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        csr_bytes = sum(a.nbytes for a in g.csr())
        # the two arrays' buffers, give or take their Python objects
        assert abs(retained - csr_bytes) < 4096, (retained, csr_bytes)
        assert peak <= 5 * csr_bytes, (peak, csr_bytes)

    def test_degrees(self):
        g = star_graph(5)
        assert g.degree(0) == 5
        assert list(g.degrees()) == [5, 1, 1, 1, 1, 1]
        assert g.mean_degree() == pytest.approx(10 / 6)


class TestBFS:
    @settings(max_examples=120, deadline=None)
    @given(random_graph_strategy())
    def test_single_source_matches_oracle(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        ref = oracles.all_pairs_dist(g)
        for s in range(n):
            dist = bfs_distances(g, [s])
            for v in range(n):
                expect = ref[s].get(v, -1)
                assert dist[v] == expect

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(), st.integers(0, 4))
    def test_multi_source_and_depth_cap(self, ne, cap):
        n, edges = ne
        g = from_edges(n, edges)
        sources = [0, n - 1] if n > 1 else [0]
        full = bfs_distances(g, sources)
        capped = bfs_distances(g, sources, max_depth=cap)
        adj = oracles.adjacency_sets(g)
        ref = oracles.bfs_from(adj, sources)
        for v in range(n):
            assert full[v] == ref.get(v, -1)
            want = ref.get(v, -1)
            assert capped[v] == (want if 0 <= want <= cap else -1)

    def test_layers(self):
        g = path_graph(5)
        layers = bfs_layers(g, [0])
        assert [sorted(x) for x in layers] == [[0], [1], [2], [3], [4]]

    def test_unreachable_is_minus_one(self):
        g = from_edges(4, [(0, 1)])
        dist = bfs_distances(g, [0])
        assert dist[2] == -1 and dist[3] == -1

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_shortest_path_valid_and_tight(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        dist = bfs_distances(g, [0])
        for v in np.flatnonzero(dist >= 0).tolist():
            path = [v, *_walk_toward(g, dist, v)]
            assert path[-1] == 0
            assert len(path) == dist[v] + 1
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)


def seeded_gnp_with_isolated(n, p, seed, isolated=(0, 1, 2)):
    """G(n, p) from a seeded stream, minus every edge at `isolated`."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    keep &= ~np.isin(iu, isolated) & ~np.isin(ju, isolated)
    return np.column_stack([iu[keep], ju[keep]])


# sparse: mean degree about 1.1 log n; dense: about n/3.  On both, the
# source sets below reach levels that the kernel runs bottom-up.
KERNEL_GRAPHS = {
    "sparse": (400, 1.1 * np.log(400) / 399, 11),
    "dense": (400, 1.0 / 3.0, 12),
}


class TestKernelOnRandomGraphs:
    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_distances_match_oracle(self, kind):
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        adj = oracles.adjacency_sets(g)
        rng = np.random.default_rng(seed + 100)
        source_sets = [[5], [0], [0, 7], [1, 2], [3, 3, 9]]
        source_sets += [list(rng.choice(n, size=k, replace=False)) for k in (1, 2, 5, 16)]
        for sources in source_sets:
            ref = oracles.bfs_from(adj, sources)
            want = np.array([ref.get(v, -1) for v in range(n)])
            for cap in (None, 0, 1, 2):
                dist = bfs_distances(g, sources, max_depth=cap)
                assert dist.dtype == np.int32
                expect = want if cap is None else np.where(want <= cap, want, -1)
                assert np.array_equal(dist, expect), (sources, cap)
                layers = bfs_layers(g, sources, max_depth=cap)
                assert len(layers) == int(expect.max()) + 1
                for r, layer in enumerate(layers):
                    assert list(layer) == [v for v in range(n) if expect[v] == r]

    # BFS_CHUNK 1200 gives chunks of up to three sources at n=400 and
    # pieces of at most 150 entries; 300 searches one source at a time in
    # pieces of at most 37 entries; both split levels on both graphs
    @pytest.mark.parametrize("budget", [None, 1200, 300])
    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_per_source_matches_oracle(self, kind, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(pursuit.graph, "BFS_CHUNK", budget)
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        adj = oracles.adjacency_sets(g)
        rng = np.random.default_rng(seed + 300)
        # isolated vertices 0, 1, 2 and repeated sources among them
        sources = [5, 0, 5, 1, 2, 7, 0] + [int(v) for v in rng.choice(n, size=12, replace=False)]
        ref = [oracles.bfs_from(adj, [s]) for s in sources]
        ecc = max(max(dists.values()) for dists in ref)
        for cap in (0, 1, 2, ecc + 3):
            got = [{} for _ in sources]
            levels = []
            for first, r, which, verts in bfs_per_source(g, np.array(sources), cap):
                if r == 0:
                    chunk = len(which)
                    assert first == sum(len(w) for f, rr, w in levels if rr == 0) and chunk > 0
                    assert list(which) == list(range(chunk))
                    assert list(verts) == sources[first:first + chunk]
                else:
                    assert levels[-1][:2] == (first, r - 1)
                levels.append((first, r, which))
                assert len(which) == len(verts) > 0
                for i, v in zip(which.tolist(), verts.tolist()):
                    assert v not in got[first + i], (first + i, v)
                    got[first + i][v] = r
            # each chunk's levels run to the cap or to its last non-empty one
            firsts = sorted({f for f, _, _ in levels})
            assert firsts[-1] + len(next(w for f, rr, w in levels if f == firsts[-1] and rr == 0)) == len(sources)
            for f, nxt in zip(firsts, firsts[1:] + [len(sources)]):
                deepest = max(max(d.values()) for d in ref[f:nxt])
                assert max(rr for ff, rr, _ in levels if ff == f) == min(cap, deepest)
            for i, dists in enumerate(ref):
                assert got[i] == {v: dd for v, dd in dists.items() if dd <= cap}, (i, cap)

    def test_per_source_edge_cases(self):
        g = path_graph(4)
        assert list(bfs_per_source(g, [], 3)) == []
        with pytest.raises(ValueError, match="range"):
            list(bfs_per_source(g, [0, 4], 1))
        with pytest.raises(ValueError, match="max_depth"):
            list(bfs_per_source(g, [0], -1))

    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_csr_from_list_and_shuffled_array(self, kind):
        n, p, seed = KERNEL_GRAPHS[kind]
        pairs = seeded_gnp_with_isolated(n, p, seed)
        rng = np.random.default_rng(seed + 200)
        shuffled = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(shuffled)) < 0.5
        shuffled[flip] = shuffled[flip][:, ::-1]
        a = from_edges(n, [(int(u), int(v)) for u, v in pairs])
        b = from_edges(n, shuffled)
        adj = oracles.adjacency_sets(a)
        for g in (a, b):
            indptr, indices = g.csr()
            assert indptr.dtype == np.int64 and indices.dtype == np.int32
            assert g.edges().dtype == np.int32 and g.edges().shape == (len(pairs), 2)
            for v in range(n):
                assert list(g.adjacency(v)) == sorted(adj[v])
        assert np.array_equal(a.edges(), pairs)
        for x, y in zip(a.csr(), b.csr()):
            assert np.array_equal(x, y)
        assert np.array_equal(a.edges(), b.edges())

    def test_reversed_duplicate_in_unsorted_array_rejected(self):
        n, p, seed = KERNEL_GRAPHS["sparse"]
        pairs = seeded_gnp_with_isolated(n, p, seed)
        rng = np.random.default_rng(seed)
        bad = np.vstack([pairs, pairs[len(pairs) // 2][::-1]])
        bad = bad[rng.permutation(len(bad))]
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(n, bad)

    def test_array_input_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(3, np.array([[0, 1], [2, 2]]))
        with pytest.raises(ValueError, match="range"):
            from_edges(3, np.array([[0, 1], [1, 3]]))
        with pytest.raises(ValueError, match="pairs"):
            from_edges(3, np.array([[0, 1, 2]]))
        g = from_edges(3, np.zeros((0, 2), dtype=np.int64))
        assert g.num_edges == 0 and list(g.csr()[0]) == [0, 0, 0, 0]

    def test_shortest_path_depth_cap(self):
        g = path_graph(5)
        assert _walk_toward(g, bfs_distances(g, [0], max_depth=3), 3) == [2, 1, 0]
        assert bfs_distances(g, [0], max_depth=2)[3] == -1
        assert _walk_toward(g, bfs_distances(g, [4], max_depth=0), 4) == []


def fresh_view(g):
    """A copy of g with no packed rows and no search history."""
    return GraphView(g.n, *g.csr())


def with_packed_rows(g):
    """A copy of g whose searches all run on packed rows, built directly
    so that graphs too sparse to qualify for them can be searched too."""
    h = fresh_view(g)
    h._rows = pursuit.graph._pack_rows(*g.csr(), g.n)
    return h


# n around the word boundaries, so that the last word's padding bits are
# read; vertex 2 and the last vertex (alone in the last word at n = 65
# and 129) are isolated once n > 3
PACKED_SIZES = [1, 2, 63, 64, 65, 129]


class TestPackedRows:
    @pytest.mark.parametrize("budget", [None, 64])
    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_distances_match_oracle(self, n, p, budget, monkeypatch):
        if budget is not None:
            # pieces of one row when packing and of 21 rows a level at n = 129
            monkeypatch.setattr(pursuit.graph, "BFS_CHUNK", budget)
        isolated = (2, n - 1) if n > 3 else ()
        g = from_edges(n, seeded_gnp_with_isolated(n, p, n, isolated))
        adj = oracles.adjacency_sets(g)
        packed = with_packed_rows(g)
        rng = np.random.default_rng(n)
        source_sets = [[0], [n - 1], [0, n - 1], [n - 1, 0, n - 1], list(range(n))]
        source_sets += [[int(v) for v in rng.choice(n, size=min(k, n))] for k in (1, 3, 9)]
        for sources in source_sets:
            ref = oracles.bfs_from(adj, sources)
            want = np.array([ref.get(v, -1) for v in range(n)])
            for cap in (None, 0, 1, 2, int(want.max()) + 3):
                expect = want if cap is None else np.where(want <= cap, want, -1)
                assert np.array_equal(bfs_distances(fresh_view(g), sources, max_depth=cap), expect)
                dist = bfs_distances(packed, sources, max_depth=cap)
                assert dist.dtype == np.int32
                assert np.array_equal(dist, expect), (sources, cap)

    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_rows_hold_the_adjacency(self, n):
        g = from_edges(n, seeded_gnp_with_isolated(n, 0.5, n, (2, n - 1) if n > 3 else ()))
        rows = with_packed_rows(g)._rows
        assert rows.shape == (n, (n + 63) // 64) and not rows.flags.writeable
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        matrix = np.zeros((n, bits.shape[1]), dtype=np.uint8)
        for u, v in g.edges():
            matrix[u, v] = matrix[v, u] = 1
        assert np.array_equal(bits, matrix)  # padding bits included

    def test_built_once_csr_levels_touch_the_entries(self):
        n = 129
        g = from_edges(n, seeded_gnp_with_isolated(n, 0.5, 7, (2, n - 1)))
        twin = fresh_view(g)
        indices = g.csr()[1]
        adj = oracles.adjacency_sets(g)
        built = []
        for v in range(n):
            for cap in (None, 1):
                # a search builds the rows when the searches before it
                # touched as many entries as `indices` holds
                due = g._csr_touched >= len(indices)
                ref = oracles.bfs_from(adj, [v, (v * 7) % n])
                want = np.array([ref.get(u, -1) for u in range(n)])
                expect = want if cap is None else np.where(want <= cap, want, -1)
                assert np.array_equal(bfs_distances(g, [v, (v * 7) % n], max_depth=cap), expect)
                assert (g._rows is not None) == due
                built.append(due)
        assert not built[0] and built[-1]  # searches ran before and after the build
        rows = g._rows
        assert rows.nbytes <= indices.nbytes
        assert np.array_equal(rows, pursuit.graph._pack_rows(*g.csr(), n))
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        # equality and hashing ignore the rows
        assert g == twin and twin == g and hash(g) == hash(twin)

    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_rows_only_where_they_fit(self, kind):
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        for v in range(n):
            bfs_distances(g, [v])
        assert g._csr_touched >= len(g.csr()[1])
        # 400 rows of 7 words take 22,400 bytes; `indices` takes 210,064
        # bytes on the dense graph and 10,376 on the sparse one
        assert (g._rows is not None) == (kind == "dense")


class TestBlockedMask:
    """A masked search is the BFS of the subgraph induced by the
    unblocked vertices and the sources."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_matches_induced_subgraph_oracle(self, kind):
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        adj = oracles.adjacency_sets(g)
        rng = np.random.default_rng(seed + 500)
        # the dense graph's searches below run on packed rows
        views = [fresh_view(g), with_packed_rows(g)] if kind == "dense" else [fresh_view(g)]
        for frac in (0.0, 0.2, 0.6, 0.95):
            blocked = rng.random(n) < frac
            free = np.flatnonzero(~blocked)
            source_sets = [[0], [int(rng.integers(n))], [3, 3, 9]]
            source_sets.append([int(v) for v in rng.choice(n, size=5, replace=False)])
            if len(free):
                source_sets.append([int(free[0])])
            if blocked.any():
                # a blocked source is entered all the same
                source_sets.append([int(np.flatnonzero(blocked)[0]), int(rng.integers(n))])
            for sources in source_sets:
                for cap in (None, 0, 1, 2):
                    ref = oracles.masked_bfs_from(adj, sources, blocked, cap)
                    expect = np.array([ref.get(v, -1) for v in range(n)])
                    for h in views:
                        mask = blocked.copy()
                        dist = bfs_distances(h, sources, max_depth=cap, blocked=mask)
                        assert dist.dtype == np.int32
                        assert np.array_equal(dist, expect), (frac, sources, cap)
                        assert np.array_equal(mask, blocked)

    def test_cycle_by_hand(self):
        g = cycle_graph(6)
        blocked = np.zeros(6, dtype=bool)
        assert np.array_equal(bfs_distances(g, [], blocked=blocked), np.full(6, -1))
        blocked[[1, 4]] = True
        assert list(bfs_distances(g, [], blocked=blocked)) == [-1] * 6
        assert list(bfs_distances(g, [0], blocked=blocked)) == [0, -1, -1, -1, -1, 1]
        assert list(bfs_distances(g, [1], blocked=blocked)) == [1, 0, 1, 2, -1, 2]


class TestTwoNearest:
    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=10), st.data())
    def test_matches_per_source_oracle(self, ne, data):
        n, edges = ne
        g = from_edges(n, edges)
        k = data.draw(st.integers(1, 4))
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        d1, d2 = two_nearest_source_distances(g, sources)
        r1, r2 = oracles.two_smallest_source_dists(g, sources)
        for v in range(n):
            assert (None if d1[v] < 0 else int(d1[v])) == r1[v]
            assert (None if d2[v] < 0 else int(d2[v])) == r2[v]

    def test_duplicate_source_counts_twice(self):
        g = path_graph(4)
        d1, d2 = two_nearest_source_distances(g, [0, 0])
        assert d1[3] == 3 and d2[3] == 3

    def test_single_source_has_no_second(self):
        g = path_graph(3)
        d1, d2 = two_nearest_source_distances(g, [0])
        assert d1[2] == 2 and d2[2] == -1

    @staticmethod
    def assert_matches_oracle(g, sources):
        d1, d2 = two_nearest_source_distances(g, sources)
        r1, r2 = oracles.two_smallest_source_dists(g, sources)
        assert d1.dtype == d2.dtype == np.int32
        assert d1.tolist() == [-1 if x is None else x for x in r1], sources
        assert d2.tolist() == [-1 if x is None else x for x in r2], sources

    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_seeded_random_graphs(self, kind):
        # cops drawn with replacement, so some vertices hold two
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        rng = np.random.default_rng(seed + 200)
        for k in (2, 3, 7, 20, 40):
            self.assert_matches_oracle(g, rng.choice(n, size=k).tolist())

    @pytest.mark.parametrize("kind", sorted(KERNEL_GRAPHS))
    def test_tripled_and_isolated_cops(self, kind):
        # vertices 0, 1 and 2 are isolated
        n, p, seed = KERNEL_GRAPHS[kind]
        g = from_edges(n, seeded_gnp_with_isolated(n, p, seed))
        for sources in ([5, 5, 5], [5, 5, 5, 9], [9, 5, 5, 5, 9], [0], [0, 0], [0, 0, 0],
                        [0, 1, 50], [0, 1, 50, 50], [0, 0, 1, 2, 2, 2]):
            self.assert_matches_oracle(g, sources)

    def test_component_with_one_cop(self):
        # a sparse G(300, p) beside a 40-vertex path, which holds one cop
        n = 300
        edges = seeded_gnp_with_isolated(n, 1.1 * np.log(n) / n, 13, isolated=())
        path = [(i, i + 1) for i in range(n, n + 39)]
        g = from_edges(n + 40, np.concatenate([edges, np.array(path)]))
        rng = np.random.default_rng(13)
        for k in (1, 2, 12):
            cops = rng.choice(n, size=k).tolist()
            self.assert_matches_oracle(g, cops + [n + 17])
            self.assert_matches_oracle(g, [n + 3] + cops + [n + 3])


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    def test_text_roundtrip(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_file_roundtrip(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "g.txt"
        path.write_text(to_edge_list_text(g))
        assert read_edge_list(path) == g

    def test_parse_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            parse_edge_list_text("3 2\n0 1\n")

    def test_parse_rejects_unsorted(self):
        with pytest.raises(ValueError):
            parse_edge_list_text("3 2\n1 2\n0 1\n")

    def test_parse_rejects_reversed_pair(self):
        with pytest.raises(ValueError):
            parse_edge_list_text("3 1\n2 0\n")

    def test_parse_rejects_negative_count(self):
        with pytest.raises(ValueError, match="-1 >= 0"):
            parse_edge_list_text("3 -1\n")

    @pytest.mark.parametrize("text", ["3 1\n0 1\n1 2\n", "3 1\n0 1\nfoo bar\n"])
    def test_parse_rejects_lines_after_the_edges(self, text):
        with pytest.raises(ValueError, match="after the 1 edge lines"):
            parse_edge_list_text(text)

    def test_parse_allows_trailing_blank_lines(self):
        assert parse_edge_list_text("3 1\n0 1\n\n  \n") == from_edges(3, [(0, 1)])


class TestNamedGraphs:
    def test_path(self):
        g = path_graph(4)
        assert g.num_edges == 3 and g.degree(0) == 1 and g.degree(1) == 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5 and all(g.degree(v) == 2 for v in range(5))

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.num_edges == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # girth five: no triangles, no 4-cycles
        dist_ok = all(
            bfs_distances(g, [v]).max() == 2 for v in range(10)
        )
        assert dist_ok

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12 and g.num_edges == 3 * 3 + 4 * 2
