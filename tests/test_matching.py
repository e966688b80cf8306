"""Radius-capped assignment and the Hall machinery behind it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import oracles
from pursuit.graph import bfs_distances, cycle_graph, from_edges, path_graph
from pursuit.matching import (
    AssignmentProblem,
    _violation_witness,
    assign_within_radius,
    hall_deficiency,
    max_matching,
)


def bipartite_strategy(max_left=7, max_right=7):
    @st.composite
    def build(draw):
        nl = draw(st.integers(0, max_left))
        nr = draw(st.integers(1, max_right))
        adj = {}
        for x in range(nl):
            adj[x] = sorted(
                draw(st.sets(st.integers(100, 99 + nr), max_size=nr))
            )
        return adj, list(range(nl))

    return build()


class TestMaxMatching:
    @settings(max_examples=200, deadline=None)
    @given(bipartite_strategy())
    def test_size_matches_backtracking(self, inst):
        adj, left = inst
        got = len(max_matching(adj, left))
        want = oracles.matching_size_backtracking(adj, left)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(bipartite_strategy())
    def test_matching_is_valid(self, inst):
        adj, left = inst
        m = max_matching(adj, left)
        used = set()
        for x, y in m.items():
            assert y in adj[x]
            assert y not in used
            used.add(y)

    @settings(max_examples=200, deadline=None)
    @given(bipartite_strategy())
    def test_deficiency_vs_hall(self, inst):
        adj, left = inst
        feasible = hall_deficiency(adj, left) == 0
        assert feasible == oracles.hall_feasible(adj, left)

    def test_deterministic(self):
        adj = {0: [10, 11], 1: [10, 11], 2: [11]}
        assert max_matching(adj, [0, 1, 2]) == max_matching(adj, [0, 1, 2])

    def test_long_augmenting_chain(self):
        # processing lefts from the top down, the last left augments
        # through every earlier pair: a 3000-step augmenting path
        n = 3000
        adj = {0: [0], **{i: [i - 1, i] for i in range(1, n)}}
        m = max_matching(adj, list(range(n - 1, -1, -1)))
        assert m == {i: i for i in range(n)}

    def test_size_matches_scipy(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            nl, nr = (int(x) for x in rng.integers(1, 60, size=2))
            mask = rng.random((nl, nr)) < rng.choice([0.02, 0.05, 0.15])
            adj = {u: [int(w) for w in np.flatnonzero(mask[u])] for u in range(nl)}
            left = [int(u) for u in rng.permutation(nl)]
            got = max_matching(adj, left)
            ref = maximum_bipartite_matching(csr_matrix(mask), perm_type="column")
            assert len(got) == int(np.count_nonzero(ref >= 0))
            assert len(set(got.values())) == len(got)
            assert all(w in adj[u] for u, w in got.items())


class TestAssignWithinRadius:
    def test_simple_feasible(self):
        g = path_graph(5)
        prob = AssignmentProblem(x_vertices=(0, 4), y_vertices=(1, 3), radius=1)
        res = assign_within_radius(g, prob)
        assert res.feasible
        assert set(res.assignment) == {0, 4}
        # each assigned cop is within the radius
        for dest, slot in res.assignment.items():
            src = prob.y_vertices[slot]
            assert bfs_distances(g, [src])[dest] <= prob.radius

    def test_infeasible_reports_witness(self):
        g = path_graph(6)
        # both destinations need the single cop at 2
        prob = AssignmentProblem(x_vertices=(1, 3), y_vertices=(2,), radius=1)
        res = assign_within_radius(g, prob)
        assert not res.feasible
        assert res.deficiency == 1
        # the witness is a literal Hall violation: fewer cops in range
        # than destinations
        witness = res.violation
        assert witness
        in_range = set()
        for dest in witness:
            dist = bfs_distances(g, [dest])
            for slot, y in enumerate(prob.y_vertices):
                if dist[y] <= prob.radius:
                    in_range.add(slot)
        assert len(in_range) < len(witness)

    def test_multiset_cops_supported(self):
        g = path_graph(3)
        prob = AssignmentProblem(x_vertices=(0, 2), y_vertices=(1, 1), radius=1)
        res = assign_within_radius(g, prob)
        assert res.feasible
        slots = sorted(res.assignment.values())
        assert slots == [0, 1]

    def test_radius_zero(self):
        g = cycle_graph(4)
        ok = assign_within_radius(
            g, AssignmentProblem(x_vertices=(1,), y_vertices=(1,), radius=0)
        )
        assert ok.feasible
        bad = assign_within_radius(
            g, AssignmentProblem(x_vertices=(1,), y_vertices=(2,), radius=0)
        )
        assert not bad.feasible

    def test_distinct_destinations_enforced(self):
        with pytest.raises(ValueError):
            AssignmentProblem(x_vertices=(1, 1), y_vertices=(0,), radius=1)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_feasibility_matches_hall_oracle(self, data):
        n = data.draw(st.integers(2, 9))
        pairs = oracles.vertex_pairs(n)
        mask = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edges(n, oracles.edges_of_mask(n, mask))
        xs = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))))
        k = data.draw(st.integers(1, 4))
        ys = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
        radius = data.draw(st.integers(0, 3))
        res = assign_within_radius(g, AssignmentProblem(xs, ys, radius))
        adj = {}
        for x in xs:
            dist = bfs_distances(g, [x])
            adj[x] = [s for s, y in enumerate(ys) if 0 <= dist[y] <= radius]
        assert res.feasible == oracles.hall_feasible(adj, list(xs))
        if not res.feasible:
            # deficiency agrees with the worst Hall gap
            worst = oracles.hall_worst_subset(adj, list(xs))
            union = set()
            for x in worst:
                union |= set(adj[x])
            assert res.deficiency >= len(worst) - len(union) > 0


def assign_per_destination(g, problem):
    """Reference: one dict-based BFS per destination, then the same matching."""
    adjsets = oracles.adjacency_sets(g)
    xs = sorted(problem.x_vertices)
    adj = {}
    for x in xs:
        dist = oracles.bfs_from(adjsets, [x])
        adj[x] = [s for s, y in enumerate(problem.y_vertices)
                  if dist.get(y, problem.radius + 1) <= problem.radius]
    match_l = max_matching(adj, xs)
    witness = () if len(match_l) == len(xs) else _violation_witness(adj, xs, match_l)
    return dict(sorted(match_l.items())), len(xs) - len(match_l), witness


def test_assign_matches_per_destination_oracle():
    # both search directions (fewer distinct cops than destinations and
    # the reverse), multisets of cops that repeat vertices, isolated
    # vertices, radius 0 and past the diameter
    rng = np.random.default_rng(2024)
    checked = {True: 0, False: 0}
    for trial in range(150):
        n = int(rng.integers(8, 60))
        p = float(rng.choice([0.03, 0.08, 0.2]))
        iu, ju = np.triu_indices(n, k=1)
        keep = (rng.random(len(iu)) < p) & (iu != 0) & (ju != 0)
        g = from_edges(n, np.column_stack([iu[keep], ju[keep]]))
        k = int(rng.integers(1, 6 if trial % 2 else n + 1))
        xs = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
        pool = rng.choice(n, size=int(rng.integers(1, 8)), replace=False)
        ys = tuple(int(v) for v in rng.choice(pool, size=int(rng.integers(1, 12))))
        radius = int(rng.integers(0, 6))
        prob = AssignmentProblem(xs, ys, radius)
        res = assign_within_radius(g, prob)
        assignment, deficiency, witness = assign_per_destination(g, prob)
        assert res.assignment == assignment, trial
        assert res.deficiency == deficiency and res.feasible == (deficiency == 0)
        assert res.violation == witness
        checked[len(set(ys)) < len(xs)] += 1
    assert min(checked.values()) > 20
