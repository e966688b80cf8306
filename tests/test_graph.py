"""Graph core: construction, BFS kernels, serialization, named graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import pursuit.graph
from pursuit.graph import (
    GraphView,
    ball,
    bfs_distances,
    bfs_layers,
    bfs_per_source,
    closed_neighborhood,
    complete_graph,
    components,
    cycle_graph,
    from_edges,
    grid_graph,
    parse_edge_list_text,
    path_graph,
    petersen_graph,
    read_edge_list,
    set_ball,
    shortest_path,
    sphere,
    star_graph,
    to_edge_list_text,
    two_nearest_source_distances,
    write_edge_list,
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

    def test_sphere_and_ball(self):
        g = cycle_graph(6)
        assert sphere(g, 0, 2) == frozenset({2, 4})
        assert ball(g, 0, 2) == frozenset({0, 1, 2, 4, 5})
        assert set_ball(g, [0, 3], 1) == frozenset({0, 1, 2, 3, 4, 5})
        assert closed_neighborhood(g, [0]) == frozenset({0, 1, 5})

    def test_unreachable_is_minus_one(self):
        g = from_edges(4, [(0, 1)])
        dist = bfs_distances(g, [0])
        assert dist[2] == -1 and dist[3] == -1

    def test_components(self):
        g = from_edges(6, [(0, 1), (2, 3), (3, 4)])
        assert components(g) == [(0, 1), (2, 3, 4), (5,)]

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy())
    def test_shortest_path_valid_and_tight(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        dist = bfs_distances(g, [0])
        for v in range(n):
            path = shortest_path(g, 0, v)
            if dist[v] < 0:
                assert path is None
            else:
                assert path[0] == 0 and path[-1] == v
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
        assert shortest_path(g, 0, 3, max_depth=3) == [0, 1, 2, 3]
        assert shortest_path(g, 0, 3, max_depth=2) is None
        assert shortest_path(g, 4, 4, max_depth=0) == [4]


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
        write_edge_list(g, path)
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
